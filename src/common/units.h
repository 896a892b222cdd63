// Byte-size and time-unit helpers shared across the simulator and benches.
#pragma once

#include <cstdint>
#include <string>

namespace dtio {

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

/// Simulated time is kept in integer nanoseconds to make event ordering
/// exact and runs reproducible (no floating-point accumulation drift).
using SimTime = std::int64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000;
inline constexpr SimTime kMillisecond = 1000 * kMicrosecond;
inline constexpr SimTime kSecond = 1000 * kMillisecond;

/// Seconds as a double, for bandwidth math in benches.
inline constexpr double to_seconds(SimTime t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Transfer time of `bytes` at `bytes_per_second`, rounded up to whole ns.
SimTime transfer_time(std::uint64_t bytes, double bytes_per_second) noexcept;

/// "2.25 MiB" / "768 B" style rendering for tables.
std::string format_bytes(std::uint64_t bytes);

}  // namespace dtio
