#include "common/units.h"

#include <cmath>
#include <cstdio>

namespace dtio {

SimTime transfer_time(std::uint64_t bytes, double bytes_per_second) noexcept {
  if (bytes == 0 || bytes_per_second <= 0.0) return 0;
  const double seconds = static_cast<double>(bytes) / bytes_per_second;
  return static_cast<SimTime>(std::ceil(seconds * static_cast<double>(kSecond)));
}

namespace {

std::string format_scaled(double value, const char* const* suffixes,
                          int n_suffixes, double step) {
  int idx = 0;
  while (value >= step && idx + 1 < n_suffixes) {
    value /= step;
    ++idx;
  }
  char buf[64];
  if (value >= 100.0 || idx == 0) {
    std::snprintf(buf, sizeof buf, "%.0f %s", value, suffixes[idx]);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f %s", value, suffixes[idx]);
  }
  return buf;
}

}  // namespace

std::string format_bytes(std::uint64_t bytes) {
  static const char* const kSuffixes[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  return format_scaled(static_cast<double>(bytes), kSuffixes, 5, 1024.0);
}

}  // namespace dtio
