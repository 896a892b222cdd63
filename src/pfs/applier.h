// Applier: how a server applies one data request's logical regions to its
// own store (IOServer::handle_data: contig, list and datatype requests),
// and Store, the one way server code moves bytes in and out of a store.
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

/// One handle's bytes on this server: through the buffer cache when it is
/// on (physical offsets are server-local and dense, so cache blocks map
/// directly onto disk adjacency; `plan` collects the disk work the caller
/// charges afterwards), else straight to the bstream (the caller charges
/// the bytes to the disk as direct bytes). Each call is one store access.
struct Store {
  cache::BlockCache* cache;  ///< null: the bstream directly
  cache::AccessPlan& plan;
  Bstream& bstream;
  std::uint64_t handle;

  /// Write `phys`; `src` is its phys.length bytes, or empty when the run
  /// carries no data (timing only).
  void write(Region phys, std::span<const std::uint8_t> src) const {
    if (cache != nullptr) {
      cache->write(handle, phys.offset, phys.length, src, plan);
    } else if (!src.empty()) {
      bstream.write(phys.offset, src);
    } else {
      bstream.note_write(phys.offset, phys.length);
    }
  }

  /// Read `phys` into `out` (phys.length bytes, or empty: timing only).
  void read(Region phys, std::span<std::uint8_t> out) const {
    if (cache != nullptr) {
      // Timing-only reads still walk the cache: residency and readahead
      // are what the timing model is here to capture.
      cache->read(handle, phys.offset, phys.length, out, plan);
    } else if (!out.empty()) {
      bstream.read(phys.offset, out);
    }
  }
};

/// Walks a data request's logical runs in stream order, clips them to
/// this server's strips a strip at a time, and moves bytes between the
/// store and the request/reply buffers: one store access per physical
/// region of a mapped group (a back-to-back run's regions in one strip
/// are one region; a strided group's rows are one each).
struct Applier {
  const FileLayout& layout;
  int my_server;
  Store store;
  bool is_write;
  bool carry_data;
  const DataBuffer& request_data;  ///< write payload (may be null)
  DataBuffer reply_data;           ///< read gather target (may be null)
  /// When set (replicated writes), every applied physical region is
  /// recorded so the handler can advance the covered strips' write epochs.
  std::vector<Region>* applied_out = nullptr;
  /// When set (reads with block checksums on), every physical region this
  /// server read is recorded — in reply_data append order — so the handler
  /// can verify the visited pages and re-gather after a repair.
  std::vector<Region>* visited_out = nullptr;

  /// One mapper per request: consecutive regions mostly share a strip.
  StripMapper mapper{layout};
  std::int64_t my_pos = 0;     ///< bytes of MY data consumed/produced
  std::int64_t pieces = 0;     ///< every piece walked (all servers)
  std::int64_t my_pieces = 0;  ///< pieces on this server
  std::int64_t my_bytes = 0;

  /// Apply `run` (a contig request is one count-1 run).
  void apply_run(const RegionRun& run) {
    mapper.map_run(run, [&](int server, const RegionRun& phys, std::int64_t,
                            std::int64_t n) { take(server, phys, n); });
  }

  /// Apply the physical regions of `phys`, which stand for `n` pieces.
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
  /// or reply. A region past the end of carried write data is skipped; the
  /// handler refuses the request, as my_bytes then differs from its size.
  void move_bytes(Region phys) {
    if (is_write) {
      const bool carried = carry_data && request_data;
      if (carried && phys.length > std::ssize(*request_data) - my_pos) {
        my_pos += phys.length;
        return;
      }
      store.write(phys, carried ? std::span<const std::uint8_t>(
                                      request_data->data() + my_pos,
                                      static_cast<std::size_t>(phys.length))
                                : std::span<const std::uint8_t>{});
      if (applied_out != nullptr) applied_out->push_back(phys);
    } else {
      std::span<std::uint8_t> out;
      if (carry_data && reply_data) {
        const std::size_t old = reply_data->size();
        reply_data->resize(old + static_cast<std::size_t>(phys.length));
        out = std::span<std::uint8_t>(reply_data->data() + old,
                                      static_cast<std::size_t>(phys.length));
      }
      store.read(phys, out);
      if (visited_out != nullptr) visited_out->push_back(phys);
    }
    my_pos += phys.length;
  }
};

}  // namespace dtio::pfs
