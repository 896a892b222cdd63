#include "common/crc32.h"

#include <array>

namespace dtio {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8: kTables[0] is the classic byte-at-a-time table;
// kTables[k][i] is the CRC of byte i followed by k zero bytes, so eight
// lookups fold in eight input bytes at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFU];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed) noexcept {
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFU] ^ kTables[6][(lo >> 8) & 0xFFU] ^
        kTables[5][(lo >> 16) & 0xFFU] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFU] ^ kTables[2][(hi >> 8) & 0xFFU] ^
        kTables[1][(hi >> 16) & 0xFFU] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

}  // namespace dtio
