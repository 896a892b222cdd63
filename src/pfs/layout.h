// File striping: PVFS's user-visible data distribution.
//
// A file is striped round-robin over N I/O servers in strips of
// `strip_size` bytes (the paper's configuration: 16 servers, 64 KiB strips
// = 1 MiB stripes). All logical<->physical mapping in the repository goes
// through this one class, on both client (data segmentation) and server
// (access clipping) sides, so the two ends always agree.
#pragma once

#include <algorithm>
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

/// Walks logical regions onto a FileLayout, one region at a time in stream
/// order, invoking cb(server, physical_region, stream_pos) for each maximal
/// single-server piece. `stream_pos` is the running byte position within
/// the concatenated region data: how clients segment outgoing data per
/// server and servers locate their slice. The mapper remembers the strip
/// of the last piece, so a region that starts inside that strip maps with
/// no divisions; place() runs only when a piece leaves it. Regions of a
/// strided access mostly share strips with their predecessor (a 64 KiB
/// strip holds many rows of a tile), so per-region mapping becomes a
/// compare and an add.
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

  /// Map the run's regions one strip extent at a time, invoking
  /// cb(server, physical_extent, stream_pos, pieces) per extent, where
  /// `pieces` is how many pieces map() of the run's regions one by one
  /// would give inside that extent: the regions that touch its strip. The
  /// extents are those pieces merged, with the same bytes and stream
  /// positions.
  template <typename Callback>
  void map_run(const RegionRun& run, Callback&& cb) {
    if (run.length <= 0 || run.count <= 0) return;
    const std::int64_t end = run.end();
    std::int64_t offset = run.offset;
    while (offset < end) {
      enter(offset);
      const std::int64_t hi = std::min(end, strip_hi_);
      // Regions first_region..last_region of the run touch [offset, hi).
      const std::int64_t first_region = (offset - run.offset) / run.length;
      const std::int64_t last_region = (hi - 1 - run.offset) / run.length;
      cb(server_, Region{physical_lo_ + (offset - strip_lo_), hi - offset},
         stream_pos_, last_region - first_region + 1);
      stream_pos_ += hi - offset;
      offset = hi;
    }
  }

 private:
  /// Make the strip holding logical byte `offset` the current one.
  void enter(std::int64_t offset) noexcept {
    if (offset >= strip_lo_ && offset < strip_hi_) return;
    const FileLayout::Placement p = layout_->place(offset);
    strip_lo_ = offset;
    strip_hi_ = offset + layout_->strip_size() - offset % layout_->strip_size();
    server_ = p.server;
    physical_lo_ = p.physical;
  }

  const FileLayout* layout_;
  /// Logical [strip_lo_, strip_hi_) is the rest of the last piece's strip,
  /// starting at the byte that place() mapped to (server_, physical_lo_).
  std::int64_t strip_lo_ = 0;
  std::int64_t strip_hi_ = 0;
  int server_ = 0;
  std::int64_t physical_lo_ = 0;
  std::int64_t stream_pos_ = 0;
};

}  // namespace dtio::pfs
