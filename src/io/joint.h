// JointWalker: lockstep traversal of a memory datatype and a file view.
//
// Produces maximal (memory offset, file offset, length) triples — the
// pieces that are contiguous on BOTH sides simultaneously. This is the
// granularity POSIX I/O must issue operations at, and the pair granularity
// ROMIO's flattening feeds to list I/O (which is why the paper's FLASH
// run needs 983 040 pieces: 8-byte elements are the joint granularity even
// though the file side alone is 4 KiB-contiguous).
//
// Streaming: nothing is materialised, so arbitrarily fine-grained accesses
// walk in O(1) memory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/region.h"
#include "dataloop/cursor.h"

namespace dtio::io {

class JointWalker {
 public:
  /// Both cursors must cover the same number of stream bytes.
  JointWalker(dl::Cursor mem, dl::Cursor file)
      : mem_(std::move(mem)), file_(std::move(file)) {}

  struct Piece {
    std::int64_t mem_offset = 0;
    std::int64_t file_offset = 0;
    std::int64_t length = 0;
  };

  /// Next joint piece; false at end of stream.
  bool next(Piece& out) {
    Region m, f;
    if (!mem_.peek(m) || !file_.peek(f)) return false;
    const std::int64_t len = std::min(m.length, f.length);
    out = Piece{m.offset, f.offset, len};
    mem_.advance(len);
    file_.advance(len);
    return true;
  }

  /// `count` memory regions of `length` bytes at offset + i * stride: the
  /// memory side of a run of joint pieces.
  struct MemRun {
    std::int64_t offset = 0;
    std::int64_t stride = 0;
    std::int64_t length = 0;
    std::int64_t count = 1;
  };

  /// Append pieces until `pieces` reaches `cap` or the stream ends: their
  /// file regions to `file` and their memory regions to `mem`, both run-
  /// length encoded in stream order, and their bytes to `bytes`. The
  /// pieces are the ones repeated next() calls give, but the file region
  /// is peeked once for all the pieces it holds, and a run of memory
  /// regions (Cursor::peek_run) that fits in it is taken in one step, so
  /// FLASH's 8-byte cells cost a cursor step per row instead of two per
  /// cell, and a batch of them is one file run.
  void fill(std::vector<RegionRun>& file, std::vector<MemRun>& mem,
            std::int64_t cap, std::int64_t& pieces, std::int64_t& bytes) {
    Region f;
    while (pieces < cap && file_.peek(f)) {
      std::int64_t used = 0;  // bytes of f paired so far
      Region m;
      std::int64_t stride = 0;
      std::int64_t n = 1;
      while (used < f.length && pieces < cap && mem_.peek_run(m, stride, n)) {
        const std::int64_t room = f.length - used;
        std::int64_t k = 1;
        std::int64_t len = std::min(m.length, room);
        if (n > 1 && m.length <= room) {
          k = std::min({n, room / m.length, cap - pieces});
          mem_.advance_run(k);
        } else {
          stride = 0;
          mem_.advance(len);
        }
        append_run(file, f.offset + used, len, k);
        append_mem(mem, MemRun{m.offset, stride, len, k});
        used += k * len;
        pieces += k;
      }
      if (used == 0) break;  // the memory stream has ended
      file_.advance(used);
      bytes += used;
    }
  }

 private:
  /// Extend the last memory run when `r` continues its arithmetic
  /// sequence at the same length; otherwise start a new run.
  static void append_mem(std::vector<MemRun>& mem, MemRun r) {
    if (!mem.empty()) {
      MemRun& last = mem.back();
      const std::int64_t step =
          last.count > 1 ? last.stride
                         : (r.count > 1 ? r.stride : r.offset - last.offset);
      if (last.length == r.length && (r.count == 1 || r.stride == step) &&
          r.offset == last.offset + last.count * step) {
        last.stride = step;
        last.count += r.count;
        return;
      }
    }
    mem.push_back(r);
  }

  dl::Cursor mem_;
  dl::Cursor file_;
};

}  // namespace dtio::io
