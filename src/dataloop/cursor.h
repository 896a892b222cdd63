// Cursor: resumable dataloop processing (MPICH2's "segment" in this
// codebase's vocabulary).
//
// A dataloop instance defines a *stream*: its data bytes enumerated in
// traversal order. A Cursor walks `count` instances of a dataloop anchored
// at `base`, converting stream ranges into (offset, length) regions — the
// operation at the heart of datatype I/O servicing. Three properties the
// paper depends on are implemented here:
//
//   * partial processing: process() takes region/byte budgets and can be
//     resumed, so intermediate offset-length storage stays bounded
//     (paper §3.2);
//   * separation of parsing from action: the region sink is a caller
//     callback (build PVFS access lists, memcpy for pack/unpack, count);
//   * coalescing: adjacent regions merge during emission (paper §3.2,
//     "optimizations to coalesce adjacent regions").
//
// seek() repositions the cursor at an arbitrary stream byte in
// O(depth * log blocks) using per-loop size metadata — this is what lets
// an I/O server start processing at the first byte that falls in its own
// stripe set without walking the prefix.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/region.h"
#include "dataloop/dataloop.h"

namespace dtio::dl {

/// Outcome of one process() call.
struct ProcessResult {
  std::int64_t regions = 0;  ///< regions handed to the sink
  std::int64_t bytes = 0;    ///< stream bytes consumed
};

class Cursor {
 public:
  /// Walk `count` instances of `loop`, instance i anchored at
  /// base + i*loop->extent.
  Cursor(DataloopPtr loop, std::int64_t base, std::int64_t count);

  [[nodiscard]] std::int64_t total_bytes() const noexcept {
    return count_ * loop_->size;
  }
  [[nodiscard]] std::int64_t position() const noexcept { return pos_; }
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Reposition at an absolute stream byte (0 <= pos <= total_bytes()).
  void seek(std::int64_t stream_pos);

  /// Span filter for pruned traversal. Before descending into a subtree
  /// (a whole instance, a block, or a child instance) whose data bytes all
  /// lie within file offsets [lo, hi), traversal asks the filter whether
  /// that interval is interesting; a `false` answer skips the subtree
  /// without expanding it — the stream position still advances past its
  /// bytes, so seek/resume and window accounting stay exact. This is what
  /// lets an I/O server stay sublinear in other servers' data: combined
  /// with FileLayout::intersects_server, whole rows/tiles that miss this
  /// server's strips cost one probe instead of a walk. The filter must be
  /// conservative: it may keep a span it does not need, but must never
  /// reject a span that contains wanted bytes. It must also be monotone: a
  /// sub-span of a rejected span is rejected. Traversal relies on this
  /// twice — to skip the rest of a partly consumed block, and to skip a
  /// whole run of vector blocks after one probe of the span covering them
  /// (runs are found by galloping then bisecting, so a run of k rejected
  /// blocks costs O(log k) probes; where runs keep coming out too short to
  /// pay, the cursor backs off toward per-block probes. The pruning
  /// counters advance per block either way, exactly as per-block probing
  /// would).
  ///
  /// `run_fn`, when given, answers for a strided run of spans at once:
  /// run_fn(ctx, run, keep) is how many leading spans [run.offset + i *
  /// run.stride, ... + run.length) of the run (stride > length > 0) `fn`
  /// would answer `keep` for, asked one span at a time. It must agree with
  /// `fn` exactly. With it, peek_run() reports the kept regions of a leaf
  /// run as one run, and a run of rejected vector blocks is skipped in one
  /// call instead of by galloping.
  using FilterFn = bool (*)(const void* ctx, std::int64_t lo, std::int64_t hi);
  using RunFilterFn = std::int64_t (*)(const void* ctx, const RegionRun& run,
                                       bool keep);
  void set_filter(FilterFn fn, const void* ctx,
                  RunFilterFn run_fn = nullptr) noexcept {
    filter_ = fn;
    run_filter_ = run_fn;
    filter_ctx_ = ctx;
  }

  /// Hard stream end: the cursor reports done at `stream_end` even when
  /// more instances remain, and peek() clips the last region to it. This
  /// bounds a request's stream window independently of process() byte
  /// budgets — required under a filter, where skipped subtrees consume
  /// stream bytes that never reach the sink.
  void set_stream_limit(std::int64_t stream_end) noexcept {
    limit_ = stream_end;
    if (pos_ >= limit_) done_ = true;
  }

  /// Pruning telemetry (cumulative across process() calls).
  [[nodiscard]] std::int64_t subtrees_skipped() const noexcept {
    return subtrees_skipped_;
  }
  [[nodiscard]] std::int64_t regions_pruned() const noexcept {
    return regions_pruned_;
  }
  [[nodiscard]] std::int64_t bytes_pruned() const noexcept {
    return bytes_pruned_;
  }

  /// Emit regions to `sink(offset, length)` until `max_regions` regions or
  /// `max_bytes` stream bytes have been produced, or the stream ends.
  /// Regions arrive in stream order; with `coalesce`, adjacent ones are
  /// merged before reaching the sink. Resumable: call again to continue.
  template <typename Sink>
  ProcessResult process(std::int64_t max_regions, std::int64_t max_bytes,
                        Sink&& sink, bool coalesce = true) {
    ProcessResult result;
    Region pending{0, 0};
    bool have_pending = false;
    Region r;
    while (result.bytes < max_bytes && peek(r)) {
      const std::int64_t len = std::min(r.length, max_bytes - result.bytes);
      if (have_pending && coalesce && pending.end() == r.offset) {
        pending.length += len;
      } else {
        if (have_pending) {
          sink(pending.offset, pending.length);
          ++result.regions;
          have_pending = false;
          if (result.regions == max_regions) break;
        }
        pending = Region{r.offset, len};
        have_pending = true;
      }
      advance(len);
      result.bytes += len;
    }
    if (have_pending) {
      sink(pending.offset, pending.length);
      ++result.regions;
    }
    return result;
  }

  /// process() over the whole stream with no budgets, emitting runs:
  /// sink(const RegionRun&) receives the regions process() would give its
  /// sink, in the same order and coalesced the same way, grouped into runs
  /// (peek_run()). A run's regions never touch one another (stride >
  /// length), so adjacent regions only ever meet at run ends: the last
  /// region of one run and the first of the next merge there, as in
  /// process().
  template <typename Sink>
  void process_runs(Sink&& sink) {
    RegionRun pending;
    bool have_pending = false;
    Region r;
    std::int64_t stride = 0;
    std::int64_t n = 0;
    while (peek_run(r, stride, n)) {
      advance_run(n);
      RegionRun run{r.offset, r.length, n, n > 1 ? stride : r.length};
      if (have_pending && pending.end() == run.offset) {
        if (pending.count > 1) {
          // Only the pending run's last region continues into this one.
          --pending.count;
          sink(pending);
          pending = RegionRun{
              pending.offset + pending.count * pending.stride, pending.length};
        }
        pending.length += run.length;
        pending.stride = pending.length;
        if (run.count == 1) continue;
        sink(pending);
        run = RegionRun{run.offset + run.stride, run.length, run.count - 1,
                        run.count > 2 ? run.stride : run.length};
      } else if (have_pending) {
        sink(pending);
      }
      pending = run;
      have_pending = true;
    }
    if (have_pending) sink(pending);
  }

  /// Expose the next atomic region without consuming it (false when done).
  bool peek(Region& out);

  /// Consume `len` bytes (len <= the length peek() reported).
  void advance(std::int64_t len);

  /// peek() plus the arithmetic run the region starts: `n` regions of
  /// out.length bytes at out.offset + i * stride (i < n), the same ones
  /// the next n peek()/advance() steps would report. A run is what is left
  /// of a leaf level: the remaining blocks of a block-atomic vector (a
  /// tile's rows), or of a block-atomic blockindexed while its offsets
  /// step uniformly, or the remaining solid children under a contig
  /// parent (FLASH's 8-byte cells 192 bytes apart). It is cut at the
  /// stream limit (the region the limit splits comes on its own), and
  /// only formed when stride > out.length, so its regions never touch or
  /// overlap. Under a filter, a run needs the run filter and holds only
  /// the regions it keeps. Everywhere else, and always for a partly
  /// consumed region, n = 1.
  bool peek_run(Region& out, std::int64_t& stride, std::int64_t& n);

  /// Consume the first k (1 <= k <= n) regions of the run peek_run()
  /// reported, leaving the cursor exactly where k peek()/advance() steps
  /// would.
  void advance_run(std::int64_t k);

 private:
  struct Frame {
    const Dataloop* loop;
    std::int64_t origin;  ///< absolute byte offset of this instance's origin
    std::int64_t block = 0;
    std::int64_t elem = 0;
  };

  /// Ensure the stack top denotes the current atomic region (or done).
  void settle();
  void pop_and_advance();
  void descend_to(const Dataloop* loop, std::int64_t origin, std::int64_t rem);

  static bool block_atomic(const Dataloop& loop) noexcept;
  [[nodiscard]] Region current_region() const;

  /// Skip a fresh subtree instance anchored at `origin` if its file span
  /// misses the filter; true means skipped (stream advanced past it).
  bool prune_subtree(const Dataloop& sub, std::int64_t origin);
  /// Same for a whole block of `blocklen` child instances starting at
  /// `start` (child spacing = extent).
  bool prune_block(const Dataloop& child, std::int64_t start,
                   std::int64_t blocklen);
  /// Same for a block-atomic block whose (remaining) contiguous region is
  /// region_consumed_ bytes into {region_lo, region_len}.
  bool prune_atomic(std::int64_t region_lo, std::int64_t region_len);
  /// After a block of kVector frame `f` was pruned: skip the longest run of
  /// following blocks that the filter rejects (by the run filter where
  /// block spans do not overlap, else by galloping over covering spans).
  void skip_rejected_run(Frame& f);
  /// Longest run of at most max_run blocks from `first` (blocks `stride`
  /// apart, block data at [lo_off, hi_off) from each start) whose covering
  /// span the filter rejects: gallop to bracket it, then bisect.
  std::int64_t gallop_rejected(std::int64_t first, std::int64_t lo_off,
                               std::int64_t hi_off, std::int64_t stride,
                               std::int64_t max_run);

  DataloopPtr loop_;
  std::int64_t base_;
  std::int64_t count_;
  std::int64_t inst_ = 0;
  std::int64_t pos_ = 0;
  std::int64_t region_consumed_ = 0;
  bool done_ = false;
  std::vector<Frame> stack_;

  FilterFn filter_ = nullptr;
  RunFilterFn run_filter_ = nullptr;
  const void* filter_ctx_ = nullptr;
  std::int64_t limit_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t subtrees_skipped_ = 0;
  std::int64_t regions_pruned_ = 0;
  std::int64_t bytes_pruned_ = 0;
  /// Run-skip back-off: a gallop that skips too few blocks to pay for its
  /// probes sets a hold-off of that many rejected blocks probed singly
  /// before the next gallop, doubling (up to a cap) while gallops keep
  /// failing and clearing on one that pays.
  std::int64_t gallop_backoff_ = 0;
  std::int64_t gallop_holdoff_ = 0;
};

/// File span of a stream window: the bytes that the instances of `loop`
/// holding stream bytes [stream_offset, stream_offset + stream_length)
/// can touch, instance i being anchored at base + i * loop.extent and
/// touching [data_lb, data_ub) from there. False when the span does not
/// fit in int64; an empty window spans {0, 0}. The window must lie in the
/// stream (so loop.size > 0 when stream_length > 0).
[[nodiscard]] bool window_span(const Dataloop& loop, std::int64_t base,
                               std::int64_t stream_offset,
                               std::int64_t stream_length,
                               Region& out) noexcept;

/// Convenience: fully flatten `count` instances into a region list.
[[nodiscard]] std::vector<Region> flatten(const DataloopPtr& loop,
                                          std::int64_t base,
                                          std::int64_t count,
                                          bool coalesce = true);

}  // namespace dtio::dl
