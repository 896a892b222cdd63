// Applier: how a server applies one data request's logical regions to its
// own store, shared by the contiguous, list and datatype handlers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cache/buffer_cache.h"
#include "common/region.h"
#include "pfs/bstream.h"
#include "pfs/layout.h"
#include "pfs/protocol.h"

namespace dtio::pfs {

/// Shared region-application state for the three data interfaces: walks
/// logical regions in stream order, clips them to this server's strips,
/// and moves bytes between the bstream and the request/reply buffers.
struct Applier {
  const FileLayout& layout;
  int my_server;
  Bstream& bstream;
  bool is_write;
  bool carry_data;
  const DataBuffer& request_data;  ///< write payload (may be null)
  DataBuffer reply_data;           ///< read gather target (may be null)
  /// When the buffer cache is on, all bstream traffic routes through it
  /// (physical offsets are server-local and dense, so cache blocks map
  /// directly onto disk adjacency); `plan` collects the disk work the
  /// handler charges afterwards. Null: bytes go straight to the bstream
  /// and the handler charges them to the disk as direct bytes.
  cache::BlockCache* cache = nullptr;
  cache::AccessPlan* plan = nullptr;
  std::uint64_t handle = 0;
  /// When set (replicated writes), every applied physical region is
  /// recorded so the handler can advance the covered strips' write epochs.
  std::vector<Region>* applied_out = nullptr;
  /// When set (reads with block checksums on), every physical region this
  /// server read is recorded — in reply_data append order — so the handler
  /// can verify the visited pages and re-gather after a repair.
  std::vector<Region>* visited_out = nullptr;

  /// Set when a piece has side effects of its own beyond its bytes: the
  /// buffer cache's stride detector, the per-write replica strip epochs
  /// (applied_out), per-piece media verification (visited_out) and media
  /// fault draws per bstream write. apply_run() then applies a run's
  /// regions one by one instead of a strip at a time.
  bool per_piece = false;

  /// One mapper per request: consecutive regions mostly share a strip.
  StripMapper mapper{layout};
  std::int64_t my_pos = 0;     ///< bytes of MY data consumed/produced
  std::int64_t pieces = 0;     ///< every piece walked (all servers)
  std::int64_t my_pieces = 0;  ///< pieces on this server
  std::int64_t my_bytes = 0;

  void apply(Region logical) {
    mapper.map(logical, [&](int server, Region phys, std::int64_t) {
      take(server, RegionRun{phys.offset, phys.length}, 1);
    });
  }

  void apply_run(const RegionRun& run) {
    if (!per_piece) {
      mapper.map_run(run, [&](int server, const RegionRun& phys, std::int64_t,
                              std::int64_t n) { take(server, phys, n); });
      return;
    }
    if (run.length <= 0) return;  // empty regions map to no pieces
    for (std::int64_t i = 0; i < run.count; ++i) {
      apply(Region{run.offset + i * run.stride, run.length});
    }
  }

  /// Apply the physical regions of `phys`, which stand for `n` pieces
  /// (phys.count > 1 or n > 1 only when !per_piece: one bstream access per
  /// region of phys).
  void take(int server, const RegionRun& phys, std::int64_t n) {
    pieces += n;
    if (server != my_server) return;
    my_pieces += n;
    my_bytes += phys.length * phys.count;
    for (std::int64_t i = 0; i < phys.count; ++i) {
      move_bytes(Region{phys.offset + i * phys.stride, phys.length});
    }
  }

  /// Move one physical region's bytes between the store and the request
  /// or reply.
  void move_bytes(Region phys) {
    if (is_write) {
      if (cache != nullptr) {
        cache->write(handle, phys.offset, phys.length,
                     (carry_data && request_data)
                         ? std::span<const std::uint8_t>(
                               request_data->data() + my_pos,
                               static_cast<std::size_t>(phys.length))
                         : std::span<const std::uint8_t>{},
                     *plan);
      } else if (carry_data && request_data) {
        bstream.write(phys.offset,
                      std::span<const std::uint8_t>(
                          request_data->data() + my_pos,
                          static_cast<std::size_t>(phys.length)));
      } else {
        bstream.note_write(phys.offset, phys.length);
      }
      if (applied_out != nullptr) applied_out->push_back(phys);
    } else if (cache != nullptr) {
      std::span<std::uint8_t> out;
      if (carry_data && reply_data) {
        const std::size_t old = reply_data->size();
        reply_data->resize(old + static_cast<std::size_t>(phys.length));
        out = std::span<std::uint8_t>(
            reply_data->data() + old, static_cast<std::size_t>(phys.length));
      }
      // Timing-only reads (empty out) still walk the cache: residency
      // and readahead are what the timing model is here to capture.
      cache->read(handle, phys.offset, phys.length, out, *plan);
    } else if (carry_data && reply_data) {
      const std::size_t old = reply_data->size();
      reply_data->resize(old + static_cast<std::size_t>(phys.length));
      bstream.read(phys.offset,
                   std::span<std::uint8_t>(reply_data->data() + old,
                                           static_cast<std::size_t>(
                                               phys.length)));
    }
    if (!is_write && visited_out != nullptr) visited_out->push_back(phys);
    my_pos += phys.length;
  }
};

}  // namespace dtio::pfs
