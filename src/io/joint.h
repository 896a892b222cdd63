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

  /// Append pieces until `file` holds `cap` of them or the stream ends:
  /// each piece's file region to `file`, its memory offset to `mem`, and
  /// its length to `bytes`. The pieces are the ones repeated next() calls
  /// give, but the file region is peeked once for all the pieces it
  /// holds, and a run of memory regions (Cursor::peek_run) that fits in
  /// it is taken in one step, so FLASH's 8-byte cells cost a cursor step
  /// per row instead of two per cell.
  void fill(std::vector<Region>& file, std::vector<std::int64_t>& mem,
            std::size_t cap, std::int64_t& bytes) {
    Region f;
    while (file.size() < cap && file_.peek(f)) {
      std::int64_t used = 0;  // bytes of f paired so far
      Region m;
      std::int64_t stride = 0;
      std::int64_t n = 1;
      while (used < f.length && file.size() < cap &&
             mem_.peek_run(m, stride, n)) {
        const std::int64_t room = f.length - used;
        if (n > 1 && m.length <= room) {
          const std::int64_t k =
              std::min({n, room / m.length,
                        static_cast<std::int64_t>(cap - file.size())});
          for (std::int64_t i = 0; i < k; ++i) {
            file.push_back(Region{f.offset + used + i * m.length, m.length});
            mem.push_back(m.offset + i * stride);
          }
          mem_.advance_run(k);
          used += k * m.length;
          continue;
        }
        const std::int64_t len = std::min(m.length, room);
        file.push_back(Region{f.offset + used, len});
        mem.push_back(m.offset);
        mem_.advance(len);
        used += len;
      }
      if (used == 0) break;  // the memory stream has ended
      file_.advance(used);
      bytes += used;
    }
  }

 private:
  dl::Cursor mem_;
  dl::Cursor file_;
};

}  // namespace dtio::io
