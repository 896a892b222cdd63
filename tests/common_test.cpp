// Unit tests for common utilities: Status/Result, regions, units, CRC, RNG.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/box.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/region.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"

namespace dtio {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = not_found("no such file: /pvfs/a");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: no such file: /pvfs/a");
}

TEST(Status, AllCodesHaveNames) {
  // Every enumerator, by value: a code added without a name breaks here.
  for (int code = 0; code < kNumStatusCodes; ++code) {
    EXPECT_NE(status_code_name(static_cast<StatusCode>(code)), "UNKNOWN")
        << "status code " << code << " has no name";
  }
  EXPECT_EQ(status_code_name(static_cast<StatusCode>(kNumStatusCodes)),
            "UNKNOWN");
}

TEST(Status, ReliabilityCodesRoundTrip) {
  EXPECT_EQ(unavailable("s").code(), StatusCode::kUnavailable);
  EXPECT_EQ(timed_out_error("s").code(), StatusCode::kTimedOut);
  EXPECT_EQ(data_loss("s").code(), StatusCode::kDataLoss);
  EXPECT_EQ(status_code_name(StatusCode::kUnavailable), "UNAVAILABLE");
  EXPECT_EQ(status_code_name(StatusCode::kTimedOut), "TIMED_OUT");
  EXPECT_EQ(status_code_name(StatusCode::kDataLoss), "DATA_LOSS");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = invalid_argument("negative count");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(Region, EndIsOffsetPlusLength) {
  Region r{100, 50};
  EXPECT_EQ(r.end(), 150);
}

TEST(Region, TotalLength) {
  std::vector<Region> rs{{0, 10}, {20, 5}, {100, 1}};
  EXPECT_EQ(total_length(rs), 16);
  EXPECT_EQ(total_length(std::vector<Region>{}), 0);
}

TEST(Region, SortedDisjointDetection) {
  EXPECT_TRUE(regions_sorted_disjoint(std::vector<Region>{}));
  EXPECT_TRUE(regions_sorted_disjoint(std::vector<Region>{{0, 10}}));
  EXPECT_TRUE(regions_sorted_disjoint(std::vector<Region>{{0, 10}, {10, 5}}));
  EXPECT_FALSE(regions_sorted_disjoint(std::vector<Region>{{0, 10}, {9, 5}}));
  EXPECT_FALSE(regions_sorted_disjoint(std::vector<Region>{{10, 5}, {0, 5}}));
}

TEST(Region, CoalesceMergesOnlyAdjacent) {
  std::vector<Region> rs{{0, 10}, {10, 10}, {30, 5}, {35, 5}, {50, 1}};
  const std::size_t merges = coalesce_adjacent(rs);
  EXPECT_EQ(merges, 2u);
  EXPECT_EQ(rs, (std::vector<Region>{{0, 20}, {30, 10}, {50, 1}}));
}

TEST(Region, CoalesceSingleAndEmpty) {
  std::vector<Region> empty;
  EXPECT_EQ(coalesce_adjacent(empty), 0u);
  std::vector<Region> one{{5, 5}};
  EXPECT_EQ(coalesce_adjacent(one), 0u);
  EXPECT_EQ(one, (std::vector<Region>{{5, 5}}));
}

TEST(Region, CoalesceChainCollapsesToOne) {
  std::vector<Region> rs;
  for (int i = 0; i < 100; ++i) rs.push_back({i * 4, 4});
  coalesce_adjacent(rs);
  EXPECT_EQ(rs, (std::vector<Region>{{0, 400}}));
}

TEST(Region, IntersectRangeClips) {
  std::vector<Region> rs{{0, 10}, {20, 10}, {40, 10}};
  std::vector<Region> out;
  intersect_range(rs, 5, 45, out);
  EXPECT_EQ(out, (std::vector<Region>{{5, 5}, {20, 10}, {40, 5}}));
}

TEST(Region, IntersectRangeEmptyWhenNoOverlap) {
  std::vector<Region> rs{{0, 10}};
  std::vector<Region> out;
  intersect_range(rs, 100, 200, out);
  EXPECT_TRUE(out.empty());
}

TEST(Region, BoundingHull) {
  std::vector<Region> rs{{20, 10}, {5, 2}, {100, 1}};
  EXPECT_EQ(bounding_hull(rs), (Region{5, 96}));
  EXPECT_EQ(bounding_hull(std::vector<Region>{}), (Region{0, 0}));
}

TEST(Units, TransferTimeRoundsUp) {
  EXPECT_EQ(transfer_time(0, 1e6), 0);
  // 1 byte at 1 GB/s = 1 ns exactly.
  EXPECT_EQ(transfer_time(1, 1e9), 1);
  // 1000 bytes at 1 MB/s = 1 ms.
  EXPECT_EQ(transfer_time(1000, 1e6), kMillisecond);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2 * kMiB + 256 * kKiB), "2.25 MiB");
}

TEST(Units, ToSeconds) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(kMillisecond), 1e-3);
}

TEST(Crc32, MatchesKnownVector) {
  // CRC32("123456789") == 0xCBF43926 (IEEE check value).
  const char* s = "123456789";
  const std::uint32_t crc = crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s), 9));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(1000);
  Rng rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const std::uint32_t whole = crc32(data);
  std::uint32_t chained = 0;
  chained = crc32(std::span(data).subspan(0, 400), chained);
  chained = crc32(std::span(data).subspan(400), chained);
  EXPECT_EQ(whole, chained);
}

TEST(Crc32, ChainingMatchesOneShotAtEverySplit) {
  // The table-sliced loop folds 8 bytes at a time and finishes the tail
  // bytewise, so cover every tail length and every split point.
  std::vector<std::uint8_t> data(1024 + 15);
  Rng rng(11);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t tail = 0; tail < 16; ++tail) {
    const auto buf = std::span<const std::uint8_t>(data).first(1024 + tail);
    const std::uint32_t whole = crc32(buf);
    for (std::size_t split = 0; split <= buf.size(); ++split) {
      EXPECT_EQ(crc32(buf.subspan(split), crc32(buf.first(split))), whole)
          << "length " << buf.size() << " split " << split;
    }
  }
}

TEST(Crc32, MatchesBitwiseDefinition) {
  std::vector<std::uint8_t> data(300);
  Rng rng(12);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t n = 0; n <= data.size(); n += 7) {
    std::uint32_t c = 0xFFFFFFFFU;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= data[i];
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    EXPECT_EQ(crc32(std::span(data).first(n)), c ^ 0xFFFFFFFFU) << "n=" << n;
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, RangeBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(IoStats, AccumulatesAcrossClients) {
  IoStats a{.desired_bytes = 10, .accessed_bytes = 20, .io_ops = 3};
  IoStats b{.desired_bytes = 1, .accessed_bytes = 2, .io_ops = 4,
            .resent_bytes = 8};
  a += b;
  EXPECT_EQ(a.desired_bytes, 11u);
  EXPECT_EQ(a.accessed_bytes, 22u);
  EXPECT_EQ(a.io_ops, 7u);
  EXPECT_EQ(a.resent_bytes, 8u);
  a.reset();
  EXPECT_EQ(a.io_ops, 0u);
}

TEST(IoStats, ToStringRendersEveryReportedCounter) {
  IoStats s{.desired_bytes = 100,
            .accessed_bytes = 64 * 1024,
            .io_ops = 768,
            .resent_bytes = 0,
            .request_bytes = 2048};
  const std::string line = s.to_string();
  EXPECT_EQ(line,
            "desired=100 B accessed=64.00 KiB io_ops=768 resent=0 B "
            "req_bytes=2.00 KiB");
}

TEST(IoStats, ToStringOfDefaultIsAllZero) {
  const std::string line = IoStats{}.to_string();
  EXPECT_EQ(line,
            "desired=0 B accessed=0 B io_ops=0 resent=0 B req_bytes=0 B");
}

TEST(Logging, ParseLevelAcceptsKnownNamesOnly) {
  LogLevel level = LogLevel::kWarn;
  EXPECT_TRUE(parse_log_level("debug", level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(parse_log_level("off", level));
  EXPECT_EQ(level, LogLevel::kOff);
  level = LogLevel::kError;
  EXPECT_FALSE(parse_log_level("verbose", level));
  EXPECT_FALSE(parse_log_level("", level));
  EXPECT_FALSE(parse_log_level("DEBUG", level));  // case-sensitive
  EXPECT_EQ(level, LogLevel::kError);  // unchanged on failure
}

TEST(Logging, FormatLineCarriesLevelFileAndMessage) {
  const std::string line = detail::format_log_line(
      LogLevel::kInfo, "/long/path/to/file.cpp", 42, "hello");
  EXPECT_EQ(line, "[INFO file.cpp:42] hello");
}

TEST(Logging, FormatLinePrefixesSimTimeWhenClockAttached) {
  set_log_sim_clock([] { return std::int64_t{1'234'500}; });  // 1234.5 us
  const std::string line =
      detail::format_log_line(LogLevel::kWarn, "a.cpp", 7, "msg");
  set_log_sim_clock(nullptr);
  EXPECT_EQ(line, "[WARN t=1234.500us a.cpp:7] msg");
  // Detached again: back to the clockless format.
  EXPECT_EQ(detail::format_log_line(LogLevel::kWarn, "a.cpp", 7, "msg"),
            "[WARN a.cpp:7] msg");
}

TEST(Box, TransfersOwnershipExactlyOnce) {
  Box<std::vector<int>> box(std::vector<int>{1, 2, 3});
  EXPECT_TRUE(box.has_value());
  EXPECT_EQ(box.peek().size(), 3u);
  Box<std::vector<int>> copy = box;  // shares the slot
  std::vector<int> taken = copy.take();
  EXPECT_EQ(taken, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(copy.has_value());
}

TEST(Box, EmptyBoxTakesDefault) {
  Box<std::vector<int>> empty;
  EXPECT_FALSE(empty.has_value());
  EXPECT_TRUE(empty.take().empty());
}

}  // namespace
}  // namespace dtio
