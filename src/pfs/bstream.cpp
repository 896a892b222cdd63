#include "pfs/bstream.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"

namespace dtio::pfs {

void Bstream::write(std::int64_t offset, std::span<const std::uint8_t> data) {
  note_write(offset, static_cast<std::int64_t>(data.size()));
  const bool media = media_on() && !data.empty();
  if (media) ++media_->writes_gen;
  std::size_t done = 0;
  while (done < data.size()) {
    const std::int64_t at = offset + static_cast<std::int64_t>(done);
    const std::int64_t page = at / kPageSize;
    const auto in_page = static_cast<std::size_t>(at % kPageSize);
    const std::size_t run = std::min(data.size() - done,
                                     static_cast<std::size_t>(kPageSize) -
                                         in_page);
    auto& storage = pages_[page];
    if (storage.empty()) storage.resize(kPageSize, 0);
    std::memcpy(storage.data() + in_page, data.data() + done, run);
    if (media) meta_after_write(page, in_page, run);
    done += run;
  }
}

void Bstream::meta_after_write(std::int64_t page, std::size_t in_page,
                               std::size_t run) {
  PageMeta& m = meta_[page];
  // Overwriting heals: a rewritten sector is remapped (poison cleared), a
  // torn page becomes consistent once its checksum is refreshed, and a
  // pending flip vanishes if the overwrite covered its position.
  m.poisoned = false;
  m.torn = false;
  if (m.rotted && static_cast<std::size_t>(m.rot_pos) >= in_page &&
      static_cast<std::size_t>(m.rot_pos) < in_page + run) {
    m.rotted = false;
  }
  m.crc = crc32(std::span<const std::uint8_t>(pages_.at(page)));
  m.has_crc = true;
  // This write's fault draws, in a fixed order (bit rot, then sector
  // error); a zero probability consumes no draw, so enabling one fault
  // kind never shifts another kind's verdicts.
  const net::DiskFaultSpec& spec = media_->spec;
  if (spec.bit_rot > 0 && media_->rng.next_double() < spec.bit_rot) {
    m.rotted = true;
    m.rot_pos = static_cast<std::int32_t>(
        in_page + static_cast<std::size_t>(
                      media_->rng.next_below(static_cast<std::uint64_t>(run))));
    m.rot_mask = static_cast<std::uint8_t>(1U << media_->rng.next_below(8));
    ++media_->pages_rotted;
  }
  if (spec.sector_error > 0 &&
      media_->rng.next_double() < spec.sector_error) {
    m.poisoned = true;
    ++media_->pages_poisoned;
  }
}

void Bstream::read(std::int64_t offset, std::span<std::uint8_t> out) const {
  const bool media = media_ != nullptr && !meta_.empty();
  std::size_t done = 0;
  while (done < out.size()) {
    const std::int64_t at = offset + static_cast<std::int64_t>(done);
    const std::int64_t page = at / kPageSize;
    const auto in_page = static_cast<std::size_t>(at % kPageSize);
    const std::size_t run = std::min(out.size() - done,
                                     static_cast<std::size_t>(kPageSize) -
                                         in_page);
    const auto it = pages_.find(page);
    if (it == pages_.end()) {
      std::memset(out.data() + done, 0, run);
    } else {
      std::memcpy(out.data() + done, it->second.data() + in_page, run);
      if (media) {
        // A pending silent flip corrupts what the caller sees; the bytes
        // at rest stay pristine so a later partial overwrite cannot
        // launder the flip into a fresh checksum.
        const auto mit = meta_.find(page);
        if (mit != meta_.end() && mit->second.rotted) {
          const auto pos = static_cast<std::size_t>(mit->second.rot_pos);
          if (pos >= in_page && pos < in_page + run) {
            out[done + (pos - in_page)] ^= mit->second.rot_mask;
          }
        }
      }
    }
    done += run;
  }
}

std::vector<Bstream::BadPage> Bstream::verify_range(std::int64_t offset,
                                                    std::int64_t length) const {
  std::vector<BadPage> bad;
  if (media_ == nullptr || length <= 0 || meta_.empty()) return bad;
  const std::int64_t first = offset / kPageSize;
  const std::int64_t last = (offset + length - 1) / kPageSize;
  for (std::int64_t page = first; page <= last; ++page) {
    const auto mit = meta_.find(page);
    if (mit == meta_.end()) continue;
    const PageMeta& m = mit->second;
    if (m.poisoned) {
      bad.push_back(BadPage{page, MediaFault::kSectorError});
      continue;
    }
    if (m.torn) {
      bad.push_back(BadPage{page, MediaFault::kTorn});
      continue;
    }
    if (!m.has_crc) continue;
    const auto it = pages_.find(page);
    if (it == pages_.end()) continue;
    std::uint32_t crc = 0;
    if (m.rotted) {
      std::vector<std::uint8_t> copy = it->second;
      copy[static_cast<std::size_t>(m.rot_pos)] ^= m.rot_mask;
      crc = crc32(std::span<const std::uint8_t>(copy));
    } else {
      crc = crc32(std::span<const std::uint8_t>(it->second));
    }
    if (crc != m.crc) bad.push_back(BadPage{page, MediaFault::kBitRot});
  }
  return bad;
}

void Bstream::repair_write(std::int64_t offset,
                           std::span<const std::uint8_t> data) {
  note_write(offset, static_cast<std::int64_t>(data.size()));
  std::size_t done = 0;
  while (done < data.size()) {
    const std::int64_t at = offset + static_cast<std::int64_t>(done);
    const std::int64_t page = at / kPageSize;
    const auto in_page = static_cast<std::size_t>(at % kPageSize);
    const std::size_t run = std::min(data.size() - done,
                                     static_cast<std::size_t>(kPageSize) -
                                         in_page);
    auto& storage = pages_[page];
    if (storage.empty()) storage.resize(kPageSize, 0);
    std::memcpy(storage.data() + in_page, data.data() + done, run);
    if (media_ != nullptr) {
      PageMeta& m = meta_[page];
      m.poisoned = false;
      m.torn = false;
      m.rotted = false;
      m.crc = crc32(std::span<const std::uint8_t>(storage));
      m.has_crc = true;
    }
    done += run;
  }
}

void Bstream::torn_write(std::int64_t offset,
                         std::span<const std::uint8_t> data,
                         std::int64_t applied) {
  applied = std::clamp<std::int64_t>(applied, 0,
                                     static_cast<std::int64_t>(data.size()));
  if (applied == 0 || media_ == nullptr) return;
  ++media_->pages_torn;  // one torn extent event; pages marked below
  // Counts as a write for the scrubber's quiescence check: a restart must
  // re-arm the scrub loop so torn tails are found even with no new I/O.
  ++media_->writes_gen;
  std::size_t done = 0;
  const auto len = static_cast<std::size_t>(applied);
  while (done < len) {
    const std::int64_t at = offset + static_cast<std::int64_t>(done);
    const std::int64_t page = at / kPageSize;
    const auto in_page = static_cast<std::size_t>(at % kPageSize);
    const std::size_t run = std::min(len - done,
                                     static_cast<std::size_t>(kPageSize) -
                                         in_page);
    auto& storage = pages_[page];
    if (storage.empty()) storage.resize(kPageSize, 0);
    std::memcpy(storage.data() + in_page, data.data() + done, run);
    // Deliberately no checksum refresh: the page's stored CRC (if any) now
    // disagrees with its contents, which is exactly what verification
    // should catch. Pages that never had a checksum still get flagged —
    // the checksum record the full write would have created is missing.
    meta_[page].torn = true;
    done += run;
  }
}

void Bstream::note_write(std::int64_t offset, std::int64_t length) noexcept {
  size_ = std::max(size_, offset + length);
}

}  // namespace dtio::pfs
