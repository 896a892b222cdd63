// Offset-length regions: the flattened representation of noncontiguous
// accesses. These are the "accesses" of PVFS's job structure and the lists
// shipped by list I/O; the dataloop processor emits them as well.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dtio {

/// One contiguous byte range at `offset` (in a file or a memory buffer).
struct Region {
  std::int64_t offset = 0;
  std::int64_t length = 0;

  [[nodiscard]] std::int64_t end() const noexcept { return offset + length; }

  friend bool operator==(const Region&, const Region&) = default;
};

/// `count` back-to-back regions of `length` bytes from `offset`: region i
/// is [offset + i * length, offset + (i + 1) * length). List I/O carries
/// its region lists in runs: a FLASH batch of 64 eight-byte cells that lie
/// back to back in the file is one run, not 64 regions.
struct RegionRun {
  std::int64_t offset = 0;
  std::int64_t length = 0;
  std::int64_t count = 1;

  [[nodiscard]] std::int64_t end() const noexcept {
    return offset + length * count;
  }

  friend bool operator==(const RegionRun&, const RegionRun&) = default;
};

/// Append `count` regions of `length` bytes from `offset`, extending the
/// last run when they continue it back to back at the same length.
void append_run(std::vector<RegionRun>& runs, std::int64_t offset,
                std::int64_t length, std::int64_t count);

/// Run-length encode `regions` (in order; nothing is reordered).
[[nodiscard]] std::vector<RegionRun> runs_of(std::span<const Region> regions);

/// Regions the runs stand for (sum of counts).
[[nodiscard]] std::int64_t region_count(
    std::span<const RegionRun> runs) noexcept;

/// Sum of region lengths.
std::int64_t total_length(std::span<const Region> regions) noexcept;

/// True if regions are sorted by offset and non-overlapping.
bool regions_sorted_disjoint(std::span<const Region> regions) noexcept;

/// Merge adjacent regions in place (regions must be in emission order;
/// only regions where prev.end() == next.offset are merged, preserving
/// access order — this mirrors the coalescing done while building PVFS
/// access lists). Returns the number of merges performed.
std::size_t coalesce_adjacent(std::vector<Region>& regions) noexcept;

/// Intersect a sorted, disjoint region list with [lo, hi); appends the
/// clipped pieces to `out`.
void intersect_range(std::span<const Region> regions, std::int64_t lo,
                     std::int64_t hi, std::vector<Region>& out);

/// Smallest [min_offset, max_end) hull covering all regions.
/// Returns {0, 0} for an empty list.
Region bounding_hull(std::span<const Region> regions) noexcept;

/// Set-union of arbitrary (unsorted, possibly overlapping) regions:
/// returns a sorted, disjoint, coalesced list covering the same bytes.
[[nodiscard]] std::vector<Region> region_union(std::vector<Region> regions);

}  // namespace dtio
