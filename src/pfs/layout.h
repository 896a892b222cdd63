// File striping: PVFS's user-visible data distribution.
//
// A file is striped round-robin over N I/O servers in strips of
// `strip_size` bytes (the paper's configuration: 16 servers, 64 KiB strips
// = 1 MiB stripes). All logical<->physical mapping in the repository goes
// through this one class, on both client (data segmentation) and server
// (access clipping) sides, so the two ends always agree.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "common/region.h"

namespace dtio::pfs {

class FileLayout {
 public:
  FileLayout(int num_servers, std::int64_t strip_size)
      : FileLayout(num_servers, strip_size, 0, num_servers) {}

  /// Per-file layout: stripe over `num_servers` of the cluster's
  /// `total_servers`, starting at `start_server`. Layout slot j maps to
  /// actual server (start_server + j) % total_servers. The 2-arg form is
  /// the legacy whole-cluster layout (start 0, total = num_servers).
  FileLayout(int num_servers, std::int64_t strip_size, int start_server,
             int total_servers)
      : num_servers_(num_servers),
        strip_size_(strip_size),
        start_server_(start_server),
        total_servers_(total_servers) {}

  [[nodiscard]] int num_servers() const noexcept { return num_servers_; }
  [[nodiscard]] int start_server() const noexcept { return start_server_; }
  [[nodiscard]] int total_servers() const noexcept { return total_servers_; }
  [[nodiscard]] std::int64_t strip_size() const noexcept { return strip_size_; }
  [[nodiscard]] std::int64_t stripe_size() const noexcept {
    return strip_size_ * num_servers_;
  }

  /// Actual server id of layout slot j (the j-th server of this file's
  /// stripe), and its inverse. With the 2-arg ctor slot == server.
  [[nodiscard]] int server_of_slot(int slot) const noexcept {
    return (start_server_ + slot) % total_servers_;
  }
  /// Layout slot of an actual server, or -1 if the server is outside this
  /// file's stripe.
  [[nodiscard]] int slot_of_server(int server) const noexcept {
    const int slot = (server - start_server_ + total_servers_) % total_servers_;
    return slot < num_servers_ ? slot : -1;
  }

  /// Which server holds logical byte `offset`, and where on that server.
  struct Placement {
    int server = 0;          ///< actual server id in [0, total_servers)
    std::int64_t physical = 0;  ///< byte offset within that server's bstream
  };
  [[nodiscard]] Placement place(std::int64_t offset) const noexcept {
    const std::int64_t stripe = offset / stripe_size();
    const std::int64_t within = offset % stripe_size();
    return Placement{server_of_slot(static_cast<int>(within / strip_size_)),
                     stripe * strip_size_ + within % strip_size_};
  }

  /// Logical offset of a server-local physical byte (inverse of place()).
  [[nodiscard]] std::int64_t logical(int server,
                                     std::int64_t physical) const noexcept {
    const std::int64_t strip = physical / strip_size_;
    return strip * stripe_size() + slot_of_server(server) * strip_size_ +
           physical % strip_size_;
  }

  /// Number of distinct servers a logical range touches.
  [[nodiscard]] int servers_touched(Region region) const noexcept;

  /// k-th replica of a strip whose primary is `primary`: replica 0 is the
  /// primary itself, replica k lives k servers along the ring. All
  /// replicas of a strip store it at the SAME server-local physical
  /// offsets (the primary's), so the replica bstream is an exact mirror.
  [[nodiscard]] int replica_server(int primary, int k) const noexcept {
    return (primary + k) % total_servers_;
  }

  /// Does `server` hold a replica (primary included) of strips whose
  /// primary is `primary`, under replication factor `r`? The replica ring
  /// runs over the whole cluster even for narrow per-file layouts.
  [[nodiscard]] bool holds_replica_of(int server, int primary,
                                      int r) const noexcept {
    const int delta = (server - primary + total_servers_) % total_servers_;
    return delta < r;
  }

  /// Does any byte of logical range [region.offset, region.end()) land on
  /// `server`? O(1): find the first strip of `server` at or after the
  /// range start and test it against the range end. This is the pruning
  /// predicate servers hand to Cursor::set_filter — a subtree whose file
  /// span fails it holds no bytes of this server's strips, so the server
  /// need not expand it at all.
  [[nodiscard]] bool intersects_server(Region region, int server) const noexcept {
    if (region.length <= 0) return false;
    const int slot = slot_of_server(server);
    if (slot < 0) return false;  // server not part of this file's stripe
    const std::int64_t S = stripe_size();
    // Floor-divide (offset may be negative for exotic resized types).
    const std::int64_t off = region.offset;
    const std::int64_t k = off >= 0 ? off / S : -((-off + S - 1) / S);
    std::int64_t start = k * S + slot * strip_size_;
    if (start + strip_size_ <= off) start += S;  // strip k ends before range
    return start < region.end();
  }

  /// How many leading regions of the strided run (stride > length > 0)
  /// intersects_server() answers `intersecting` for: the run filter of the
  /// pruning walk. A region [a, a + length) meets one of the server's
  /// strips [k * S + c, k * S + c + strip) exactly when
  /// (a - c + length - 1) mod S < length + strip - 1, and that residue
  /// moves by `stride` per region, so each step below passes a whole
  /// block of regions with the same answer: O(1) per stripe crossed, not
  /// per region.
  [[nodiscard]] std::int64_t leading_regions(const RegionRun& run, int server,
                                             bool intersecting) const noexcept {
    const int slot = slot_of_server(server);
    if (slot < 0) return intersecting ? 0 : run.count;
    const std::int64_t S = stripe_size();
    const std::int64_t kept = run.length + strip_size_ - 1;
    if (kept >= S) return intersecting ? run.count : 0;  // all reach a strip
    std::int64_t y = (run.offset - slot * strip_size_ + run.length - 1) % S;
    if (y < 0) y += S;
    for (std::int64_t i = 0;;) {
      const bool in = y < kept;
      if (in != intersecting) return i;
      // Regions i .. i + k - 1 have residues y, y + stride, ... below
      // `kept` (in) or below S (out); region i + k's is past that bound.
      const std::int64_t room = (in ? kept : S) - y;
      const std::int64_t k =
          run.stride >= room ? 1 : (room + run.stride - 1) / run.stride;
      if (k >= run.count - i) return run.count;
      i += k;
      // k > 1 only when stride < S, so then k * stride < 2 * S.
      y = (y + (k == 1 ? run.stride % S : k * run.stride)) % S;
    }
  }

  /// Upper bound on the bytes of a logical window of `window_bytes` that
  /// can land on any one server: full strips per stripe plus partial
  /// strips at both ends. A cheap sizing hint for reply buffers.
  [[nodiscard]] std::int64_t max_server_bytes(
      std::int64_t window_bytes) const noexcept {
    if (window_bytes <= 0) return 0;
    return std::min(window_bytes,
                    (window_bytes / stripe_size() + 2) * strip_size_);
  }

 private:
  int num_servers_;
  std::int64_t strip_size_;
  int start_server_;
  int total_servers_;
};

/// Walks logical regions onto a FileLayout in stream order, invoking a
/// callback for each maximal single-server piece with its stream_pos: the
/// running byte position within the concatenated region data, which is how
/// clients segment outgoing data per server and servers locate their
/// slice. The mapper remembers the strip of the last piece, so a region
/// that starts inside that strip maps with no divisions; place() runs only
/// when a piece leaves it. map_run() goes further and takes a run's
/// regions a strip at a time: the cost of a strided access is per strip it
/// touches, not per region (a 64 KiB strip holds many rows of a tile).
class StripMapper {
 public:
  explicit StripMapper(const FileLayout& layout) noexcept : layout_(&layout) {}

  /// Map `region`, invoking cb(server, physical_region, stream_pos) per
  /// single-server piece; stream_pos runs on across calls.
  template <typename Callback>
  void map(Region region, Callback&& cb) {
    std::int64_t offset = region.offset;
    std::int64_t remaining = region.length;
    while (remaining > 0) {
      enter(offset);
      const std::int64_t run = std::min(remaining, strip_hi_ - offset);
      cb(server_, Region{physical_lo_ + (offset - strip_lo_), run},
         stream_pos_);
      offset += run;
      remaining -= run;
      stream_pos_ += run;
    }
  }

  /// Map the run's regions, giving the pieces map() of its regions one by
  /// one would give, with the same bytes and stream positions, grouped:
  /// cb(server, phys, stream_pos, pieces) per group, where `phys` is a run
  /// of physical regions on `server` whose data starts at stream_pos and
  /// lies back to back in the stream, and `pieces` is how many pieces the
  /// group stands for.
  ///
  ///  * Back-to-back run (stride == length): one group per strip, its
  ///    pieces merged into one physical region (phys.count == 1, pieces =
  ///    the regions touching the strip).
  ///  * Strided run (stride > length, or any single region): per strip,
  ///    the clipped head piece of a region that began in an earlier strip,
  ///    the regions wholly inside the strip as one group (phys.count ==
  ///    pieces, same stride), and the clipped tail piece of a region that
  ///    runs on past the strip.
  ///
  /// Overlapping regions (stride < length, count > 1) are not runs here:
  /// no producer forms them (Cursor::peek_run, append_run).
  template <typename Callback>
  void map_run(const RegionRun& run, Callback&& cb) {
    if (run.length <= 0 || run.count <= 0) return;
    assert(run.count == 1 || run.stride >= run.length);
    if (run.back_to_back()) {
      map_back_to_back(run, cb);
    } else {
      map_strided(run, cb);
    }
  }

 private:
  template <typename Callback>
  void map_back_to_back(const RegionRun& run, Callback& cb) {
    const std::int64_t end = run.end();
    std::int64_t offset = run.offset;
    while (offset < end) {
      enter(offset);
      const std::int64_t hi = std::min(end, strip_hi_);
      // Regions first_region..last_region of the run touch [offset, hi).
      const std::int64_t first_region = (offset - run.offset) / run.length;
      const std::int64_t last_region = (hi - 1 - run.offset) / run.length;
      cb(server_, RegionRun{physical(offset), hi - offset}, stream_pos_,
         last_region - first_region + 1);
      stream_pos_ += hi - offset;
      offset = hi;
    }
  }

  template <typename Callback>
  void map_strided(const RegionRun& run, Callback& cb) {
    std::int64_t i = 0;       // current region
    std::int64_t within = 0;  // its bytes already mapped
    while (i < run.count) {
      const std::int64_t at = run.offset + i * run.stride;
      enter(at + within);
      if (within > 0) {  // head: region i began in an earlier strip
        const std::int64_t len =
            std::min(run.length - within, strip_hi_ - (at + within));
        cb(server_, RegionRun{physical(at + within), len}, stream_pos_,
           std::int64_t{1});
        stream_pos_ += len;
        within += len;
        if (within == run.length) {
          within = 0;
          ++i;
        }
        continue;
      }
      if (at + run.length <= strip_hi_) {  // regions wholly in the strip
        const std::int64_t k = std::min(
            run.count - i, (strip_hi_ - run.length - at) / run.stride + 1);
        cb(server_, RegionRun{physical(at), run.length, k, run.stride},
           stream_pos_, k);
        stream_pos_ += k * run.length;
        i += k;
        continue;
      }
      // Tail: region i starts in the strip and runs on past its end.
      within = strip_hi_ - at;
      cb(server_, RegionRun{physical(at), within}, stream_pos_,
         std::int64_t{1});
      stream_pos_ += within;
    }
  }

  [[nodiscard]] std::int64_t physical(std::int64_t offset) const noexcept {
    return physical_lo_ + (offset - strip_lo_);
  }

  /// Make the strip holding logical byte `offset` the current one. The
  /// strip right after the current one (the next slot's, or the next
  /// stripe's first) is found with no divisions: a strided walk steps
  /// through strips in order.
  void enter(std::int64_t offset) noexcept {
    if (offset >= strip_lo_ && offset < strip_hi_) return;
    const std::int64_t strip = layout_->strip_size();
    if (slot_ >= 0 && offset >= strip_hi_ && offset - strip_hi_ < strip) {
      if (++slot_ == layout_->num_servers()) {
        slot_ = 0;
        ++stripe_;
      }
      server_ = layout_->start_server() + slot_;
      if (server_ >= layout_->total_servers()) {
        server_ -= layout_->total_servers();
      }
      physical_lo_ = stripe_ * strip + (offset - strip_hi_);
      strip_lo_ = offset;
      strip_hi_ += strip;
      return;
    }
    // FileLayout::place(), keeping the stripe and slot.
    stripe_ = offset / layout_->stripe_size();
    const std::int64_t within = offset % layout_->stripe_size();
    slot_ = static_cast<int>(within / strip);
    server_ = layout_->server_of_slot(slot_);
    physical_lo_ = stripe_ * strip + within % strip;
    strip_lo_ = offset;
    strip_hi_ = offset - within % strip + strip;
  }

  const FileLayout* layout_;
  /// Logical [strip_lo_, strip_hi_) is the rest of the last piece's strip,
  /// starting at the byte that maps to (server_, physical_lo_); the strip
  /// is layout slot slot_ (-1 before the first) of stripe stripe_.
  std::int64_t strip_lo_ = 0;
  std::int64_t strip_hi_ = 0;
  int server_ = 0;
  int slot_ = -1;
  std::int64_t stripe_ = 0;
  std::int64_t physical_lo_ = 0;
  std::int64_t stream_pos_ = 0;
};

}  // namespace dtio::pfs
