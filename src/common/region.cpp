#include "common/region.h"

#include <algorithm>

namespace dtio {

std::int64_t total_length(std::span<const Region> regions) noexcept {
  std::int64_t total = 0;
  for (const Region& r : regions) total += r.length;
  return total;
}

void append_run(std::vector<RegionRun>& runs, std::int64_t offset,
                std::int64_t length, std::int64_t count) {
  if (!runs.empty() && runs.back().length == length &&
      runs.back().end() == offset) {
    runs.back().count += count;
    return;
  }
  runs.push_back(RegionRun{offset, length, count});
}

std::vector<RegionRun> runs_of(std::span<const Region> regions) {
  std::vector<RegionRun> runs;
  for (const Region& r : regions) append_run(runs, r.offset, r.length, 1);
  return runs;
}

std::int64_t region_count(std::span<const RegionRun> runs) noexcept {
  std::int64_t n = 0;
  for (const RegionRun& r : runs) n += r.count;
  return n;
}

bool regions_sorted_disjoint(std::span<const Region> regions) noexcept {
  for (std::size_t i = 1; i < regions.size(); ++i) {
    if (regions[i].offset < regions[i - 1].end()) return false;
  }
  return true;
}

std::size_t coalesce_adjacent(std::vector<Region>& regions) noexcept {
  if (regions.size() < 2) return 0;
  std::size_t merges = 0;
  std::size_t out = 0;
  for (std::size_t i = 1; i < regions.size(); ++i) {
    if (regions[i].offset == regions[out].end()) {
      regions[out].length += regions[i].length;
      ++merges;
    } else {
      regions[++out] = regions[i];
    }
  }
  regions.resize(out + 1);
  return merges;
}

void intersect_range(std::span<const Region> regions, std::int64_t lo,
                     std::int64_t hi, std::vector<Region>& out) {
  for (const Region& r : regions) {
    const std::int64_t begin = std::max(r.offset, lo);
    const std::int64_t end = std::min(r.end(), hi);
    if (begin < end) out.push_back({begin, end - begin});
  }
}

Region bounding_hull(std::span<const Region> regions) noexcept {
  if (regions.empty()) return {0, 0};
  std::int64_t lo = regions.front().offset;
  std::int64_t hi = regions.front().end();
  for (const Region& r : regions) {
    lo = std::min(lo, r.offset);
    hi = std::max(hi, r.end());
  }
  return {lo, hi - lo};
}

std::vector<Region> region_union(std::vector<Region> regions) {
  std::sort(regions.begin(), regions.end(),
            [](const Region& a, const Region& b) {
              return a.offset < b.offset;
            });
  std::vector<Region> out;
  for (const Region& r : regions) {
    if (r.length <= 0) continue;
    if (!out.empty() && r.offset <= out.back().end()) {
      out.back().length =
          std::max(out.back().end(), r.end()) - out.back().offset;
    } else {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace dtio
