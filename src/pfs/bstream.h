// Bstream: the byte store behind one file handle on one I/O server
// (PVFS vocabulary). Sparse page map so 600^3-sized files only occupy
// memory where data was actually written; unwritten bytes read as zero.
//
// Data transfer is optional: when the simulated run opts out of carrying
// real bytes (large timing-only sweeps), writes still advance the size
// high-water mark so stat() stays correct.
//
// Storage integrity (default-off): a server attaches one MediaEnv — a
// seeded media RNG, a net::DiskFaultSpec, and the checksum switch — to
// every Bstream it owns. While the env is enabled, each data-carrying
// write maintains a per-page CRC32 over the stored bytes and draws the
// configured media faults (silent bit rot, latent sector errors) from
// the env's RNG; verify_range() re-checks a byte range and attributes
// failures, repair_write() rewrites a range clean (no fault draws — the
// path that makes repairs converge), and torn_write() applies a crash's
// partial extent without fixing up checksums so the torn tail is
// detectable. With no env attached (the default) every method costs one
// pointer test over the legacy behaviour and the event sequence is
// untouched.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "net/fault.h"

namespace dtio::pfs {

/// How a page failed verification. Attribution order: a latent sector
/// error masks everything else, a torn tail masks bit rot.
enum class MediaFault : std::uint8_t {
  kNone = 0,
  kSectorError,  ///< latent sector error: the medium itself errors the read
  kBitRot,       ///< silent bit flip: bytes differ from the stored checksum
  kTorn,         ///< torn write: a crash applied only a prefix of the extent
};

/// Per-server media context shared by all of that server's byte streams
/// (primary and replica stores). Owned by the server, attached via
/// Bstream::set_media; the single RNG makes the whole server's fault
/// stream deterministic from one seed regardless of how many streams it
/// hosts.
struct MediaEnv {
  Rng rng{1};
  net::DiskFaultSpec spec;
  bool checksums = false;

  /// Bumped by every data-carrying write (not by repairs); the scrubber
  /// uses it to park while the store is quiescent.
  std::uint64_t writes_gen = 0;

  // Injection totals (what the fault plan actually did, independent of
  // whether anything detected it yet).
  std::uint64_t pages_rotted = 0;
  std::uint64_t pages_poisoned = 0;
  std::uint64_t pages_torn = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return checksums || spec.active();
  }
};

class Bstream {
 public:
  static constexpr std::int64_t kPageSize = 64 * 1024;

  /// One page that failed verify_range, with fault attribution.
  struct BadPage {
    std::int64_t page = 0;  ///< page index (byte offset / kPageSize)
    MediaFault kind = MediaFault::kNone;
  };

  void write(std::int64_t offset, std::span<const std::uint8_t> data);
  void read(std::int64_t offset, std::span<std::uint8_t> out) const;

  /// Record a write of `length` bytes at `offset` without storing data
  /// (timing-only mode).
  void note_write(std::int64_t offset, std::int64_t length) noexcept;

  /// Attach (or detach, nullptr) the owning server's media context.
  void set_media(MediaEnv* media) noexcept { media_ = media; }

  /// Verify every resident, checksummed page touching
  /// [offset, offset + length); returns the pages that fail, attributed
  /// (sector error > torn > bit rot). Pages never written with an
  /// enabled env carry no checksum and are skipped — there is nothing to
  /// verify them against. Empty when no env is attached.
  [[nodiscard]] std::vector<BadPage> verify_range(std::int64_t offset,
                                                  std::int64_t length) const;

  /// Rewrite [offset, offset + data.size()) with known-good bytes: store
  /// them, recompute page checksums, and clear every fault flag on the
  /// touched pages. Never draws media faults and never bumps writes_gen,
  /// so repair passes converge instead of re-injecting.
  void repair_write(std::int64_t offset, std::span<const std::uint8_t> data);

  /// Apply only data's first `applied` bytes — a crash tearing an
  /// in-flight extent — without updating checksums, and mark the touched
  /// pages torn so verification catches the stale tail. The un-applied
  /// suffix is simply lost (its pages keep their old, still-consistent
  /// contents).
  void torn_write(std::int64_t offset, std::span<const std::uint8_t> data,
                  std::int64_t applied);

  /// One past the highest byte ever written.
  [[nodiscard]] std::int64_t size() const noexcept { return size_; }

  /// Pages currently resident (memory accounting / tests).
  [[nodiscard]] std::size_t resident_pages() const noexcept {
    return pages_.size();
  }

 private:
  struct PageMeta {
    std::uint32_t crc = 0;
    bool has_crc = false;
    bool poisoned = false;  ///< latent sector error
    bool torn = false;      ///< crash-torn, checksum record stale
    bool rotted = false;    ///< silent flip pending at (rot_pos, rot_mask)
    std::int32_t rot_pos = 0;
    std::uint8_t rot_mask = 0;
  };

  /// Post-write page bookkeeping: clear flags the overwrite healed,
  /// refresh the checksum, then draw this write's media faults.
  void meta_after_write(std::int64_t page, std::size_t in_page,
                        std::size_t run);

  [[nodiscard]] bool media_on() const noexcept {
    return media_ != nullptr && media_->enabled();
  }

  std::unordered_map<std::int64_t, std::vector<std::uint8_t>> pages_;
  std::unordered_map<std::int64_t, PageMeta> meta_;
  std::int64_t size_ = 0;
  MediaEnv* media_ = nullptr;
};

}  // namespace dtio::pfs
