// Unit and property tests for the dataloop engine: builders and their
// regularity-capturing normalisations, cursor traversal, partial
// processing, seek, pack/unpack, and wire serialisation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/region.h"
#include "common/rng.h"
#include "dataloop/cursor.h"
#include "dataloop/dataloop.h"
#include "dataloop/pack.h"
#include "dataloop/serialize.h"
#include "pfs/layout.h"

namespace dtio::dl {
namespace {

constexpr std::int64_t kUnlimited = std::numeric_limits<std::int64_t>::max();

std::vector<Region> collect(Cursor& cursor, std::int64_t max_regions = kUnlimited,
                            std::int64_t max_bytes = kUnlimited,
                            bool coalesce = true) {
  std::vector<Region> out;
  cursor.process(
      max_regions, max_bytes,
      [&](std::int64_t off, std::int64_t len) { out.push_back({off, len}); },
      coalesce);
  return out;
}

// ---- Builders -------------------------------------------------------------

TEST(Builder, LeafBasics) {
  auto leaf = make_leaf(4);
  EXPECT_EQ(leaf->kind, Kind::kLeaf);
  EXPECT_EQ(leaf->size, 4);
  EXPECT_EQ(leaf->extent, 4);
  EXPECT_EQ(leaf->lb, 0);
  EXPECT_TRUE(leaf->solid);
  EXPECT_EQ(leaf->node_count(), 1);
  EXPECT_EQ(leaf->depth(), 1);
  EXPECT_THROW(make_leaf(0), std::invalid_argument);
  EXPECT_THROW(make_leaf(-1), std::invalid_argument);
}

TEST(Builder, ContigComputesSizeAndExtent) {
  auto c = make_contig(10, make_leaf(4));
  EXPECT_EQ(c->kind, Kind::kContig);
  EXPECT_EQ(c->size, 40);
  EXPECT_EQ(c->extent, 40);
  EXPECT_TRUE(c->solid);
}

TEST(Builder, ContigOfOneCollapsesToChild) {
  auto leaf = make_leaf(8);
  auto c = make_contig(1, leaf);
  EXPECT_EQ(c.get(), leaf.get());
}

TEST(Builder, NestedContigCollapses) {
  auto c = make_contig(3, make_contig(5, make_leaf(2)));
  EXPECT_EQ(c->kind, Kind::kContig);
  EXPECT_EQ(c->count, 15);
  EXPECT_EQ(c->child->kind, Kind::kLeaf);
}

TEST(Builder, VectorComputesGeometry) {
  // 4 blocks of 3 int32s every 100 bytes.
  auto v = make_vector(4, 3, 100, make_leaf(4));
  EXPECT_EQ(v->kind, Kind::kVector);
  EXPECT_EQ(v->size, 48);
  EXPECT_EQ(v->extent, 3 * 100 + 12);
  EXPECT_EQ(v->lb, 0);
  EXPECT_FALSE(v->solid);
  EXPECT_EQ(v->region_count(), 4);
}

TEST(Builder, VectorWithSeamlessStrideBecomesContig) {
  auto v = make_vector(4, 3, 12, make_leaf(4));
  EXPECT_EQ(v->kind, Kind::kContig);
  EXPECT_EQ(v->count, 12);
}

TEST(Builder, VectorCountOneBecomesContig) {
  auto v = make_vector(1, 5, 999, make_leaf(4));
  EXPECT_EQ(v->kind, Kind::kContig);
  EXPECT_EQ(v->size, 20);
}

TEST(Builder, VectorNegativeStride) {
  auto v = make_vector(3, 1, -10, make_leaf(4));
  EXPECT_EQ(v->size, 12);
  EXPECT_EQ(v->lb, -20);
  EXPECT_EQ(v->extent, 20 + 4);
}

TEST(Builder, BlockIndexedKeepsIrregularOffsets) {
  const std::int64_t offs[] = {0, 10, 50};
  auto b = make_blockindexed(3, 2, offs, make_leaf(1));
  EXPECT_EQ(b->kind, Kind::kBlockIndexed);
  EXPECT_EQ(b->size, 6);
  EXPECT_EQ(b->extent, 52);
  EXPECT_EQ(b->region_count(), 3);
}

TEST(Builder, BlockIndexedUniformStrideBecomesVector) {
  const std::int64_t offs[] = {0, 100, 200, 300};
  auto b = make_blockindexed(4, 2, offs, make_leaf(4));
  EXPECT_EQ(b->kind, Kind::kVector);
  EXPECT_EQ(b->stride, 100);
}

TEST(Builder, IndexedUniformBlocklensBecomesBlockIndexed) {
  const std::int64_t lens[] = {3, 3, 3};
  const std::int64_t offs[] = {0, 7, 100};
  auto ix = make_indexed(lens, offs, make_leaf(1));
  EXPECT_EQ(ix->kind, Kind::kBlockIndexed);
  EXPECT_EQ(ix->blocklen, 3);
}

TEST(Builder, IndexedIrregularGeometry) {
  const std::int64_t lens[] = {2, 0, 5};
  const std::int64_t offs[] = {10, 90, 40};
  auto ix = make_indexed(lens, offs, make_leaf(4));
  EXPECT_EQ(ix->kind, Kind::kIndexed);
  EXPECT_EQ(ix->size, 28);
  EXPECT_EQ(ix->lb, 10);                 // empty block at 90 ignored
  EXPECT_EQ(ix->extent, 40 + 20 - 10);   // hull [10, 60)
  EXPECT_EQ(ix->region_count(), 2);
  ASSERT_EQ(ix->block_bytes_prefix.size(), 4u);
  EXPECT_EQ(ix->block_bytes_prefix[1], 8);
  EXPECT_EQ(ix->block_bytes_prefix[2], 8);
  EXPECT_EQ(ix->block_bytes_prefix[3], 28);
}

TEST(Builder, StructMixedChildren) {
  const std::int64_t lens[] = {1, 2};
  const std::int64_t offs[] = {0, 16};
  const DataloopPtr kids[] = {make_leaf(8), make_leaf(4)};
  auto st = make_struct(lens, offs, kids);
  EXPECT_EQ(st->kind, Kind::kStruct);
  EXPECT_EQ(st->size, 16);
  EXPECT_EQ(st->extent, 24);
}

TEST(Builder, StructHomogeneousBecomesIndexed) {
  auto leaf = make_leaf(4);
  const std::int64_t lens[] = {1, 2};
  const std::int64_t offs[] = {0, 16};
  const DataloopPtr kids[] = {leaf, leaf};
  auto st = make_struct(lens, offs, kids);
  EXPECT_NE(st->kind, Kind::kStruct);
}

TEST(Builder, ResizedOverridesExtent) {
  auto r = make_resized(make_contig(2, make_leaf(4)), 0, 32);
  EXPECT_EQ(r->size, 8);
  EXPECT_EQ(r->extent, 32);
  EXPECT_TRUE(r->solid);  // instance itself is still one solid run
}

TEST(Builder, MismatchedSpansThrow) {
  const std::int64_t lens[] = {1, 2};
  const std::int64_t offs[] = {0};
  EXPECT_THROW(make_indexed(lens, offs, make_leaf(1)), std::invalid_argument);
  EXPECT_THROW(make_contig(-1, make_leaf(1)), std::invalid_argument);
  EXPECT_THROW(make_contig(2, nullptr), std::invalid_argument);
}

// ---- Cursor traversal -----------------------------------------------------

TEST(Cursor, SolidTypeEmitsOneRegion) {
  Cursor c(make_contig(8, make_leaf(4)), 1000, 1);
  auto regions = collect(c);
  EXPECT_EQ(regions, (std::vector<Region>{{1000, 32}}));
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.position(), 32);
}

TEST(Cursor, MultipleInstancesOfSolidTypeCoalesce) {
  Cursor c(make_contig(8, make_leaf(4)), 0, 5);
  auto regions = collect(c);
  EXPECT_EQ(regions, (std::vector<Region>{{0, 160}}));
}

TEST(Cursor, VectorEmitsPerBlock) {
  // Row extraction: 3 rows of 4 ints out of a 10-int-wide 2D array.
  Cursor c(make_vector(3, 4, 40, make_leaf(4)), 0, 1);
  auto regions = collect(c);
  EXPECT_EQ(regions,
            (std::vector<Region>{{0, 16}, {40, 16}, {80, 16}}));
}

TEST(Cursor, VectorInstancesTileByExtent) {
  auto v = make_vector(2, 1, 8, make_leaf(4));  // extent = 8 + 4 = 12
  Cursor c(v, 0, 2);
  // Instance 0 blocks at 0 and 8; instance 1 at 12 and 20. The block at 8
  // touches instance 1's first block at 12, so they coalesce.
  auto regions = collect(c);
  EXPECT_EQ(regions, (std::vector<Region>{{0, 4}, {8, 8}, {20, 4}}));
  Cursor raw(v, 0, 2);
  auto uncoalesced = collect(raw, kUnlimited, kUnlimited, /*coalesce=*/false);
  EXPECT_EQ(uncoalesced,
            (std::vector<Region>{{0, 4}, {8, 4}, {12, 4}, {20, 4}}));
}

TEST(Cursor, IndexedSkipsEmptyBlocks) {
  const std::int64_t lens[] = {2, 0, 1, 0};
  const std::int64_t offs[] = {0, 50, 30, 99};
  Cursor c(make_indexed(lens, offs, make_leaf(4)), 0, 1);
  auto regions = collect(c);
  EXPECT_EQ(regions, (std::vector<Region>{{0, 8}, {30, 4}}));
}

TEST(Cursor, StructWalksHeterogeneousChildren) {
  const std::int64_t lens[] = {1, 3};
  const std::int64_t offs[] = {0, 10};
  const DataloopPtr kids[] = {make_leaf(2), make_leaf(4)};
  Cursor c(make_struct(lens, offs, kids), 100, 1);
  auto regions = collect(c);
  EXPECT_EQ(regions, (std::vector<Region>{{100, 2}, {110, 12}}));
}

TEST(Cursor, NestedVectorOfVector) {
  // Outer: 2 blocks stride 100 of inner; inner: 2 blocks of 1x4B stride 10.
  auto inner = make_vector(2, 1, 10, make_leaf(4));  // extent 14, size 8
  auto outer = make_vector(2, 1, 100, inner);
  Cursor c(outer, 0, 1);
  auto regions = collect(c);
  EXPECT_EQ(regions,
            (std::vector<Region>{{0, 4}, {10, 4}, {100, 4}, {110, 4}}));
}

TEST(Cursor, ResizedChildLeavesGapsBetweenElements) {
  // 3 elements of a 4-byte leaf resized to extent 10 inside a contig.
  auto el = make_resized(make_leaf(4), 0, 10);
  Cursor c(make_contig(3, el), 0, 1);
  auto regions = collect(c);
  EXPECT_EQ(regions, (std::vector<Region>{{0, 4}, {10, 4}, {20, 4}}));
}

TEST(Cursor, CoalesceMergesTouchingBlocks) {
  // Indexed with adjacent blocks 0..8 and 8..12.
  const std::int64_t lens[] = {2, 1, 2};
  const std::int64_t offs[] = {0, 8, 100};
  Cursor c(make_indexed(lens, offs, make_leaf(4)), 0, 1);
  auto merged = collect(c);
  EXPECT_EQ(merged, (std::vector<Region>{{0, 12}, {100, 8}}));
  Cursor c2(make_indexed(lens, offs, make_leaf(4)), 0, 1);
  auto raw = collect(c2, kUnlimited, kUnlimited, /*coalesce=*/false);
  EXPECT_EQ(raw, (std::vector<Region>{{0, 8}, {8, 4}, {100, 8}}));
}

TEST(Cursor, EmptyTypeIsImmediatelyDone) {
  Cursor c(make_contig(0, make_leaf(4)), 0, 5);
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.total_bytes(), 0);
  auto regions = collect(c);
  EXPECT_TRUE(regions.empty());
}

TEST(Cursor, ZeroCountIsDone) {
  Cursor c(make_leaf(4), 0, 0);
  EXPECT_TRUE(c.done());
}

// ---- Partial processing ---------------------------------------------------

TEST(PartialProcessing, RegionBudgetIsResumable) {
  auto v = make_vector(10, 1, 8, make_leaf(4));
  Cursor whole(v, 0, 1);
  const auto expect = collect(whole);

  Cursor c(v, 0, 1);
  std::vector<Region> got;
  while (!c.done()) {
    auto part = collect(c, /*max_regions=*/3);
    got.insert(got.end(), part.begin(), part.end());
    EXPECT_LE(part.size(), 3u);
  }
  EXPECT_EQ(got, expect);
}

TEST(PartialProcessing, ByteBudgetSplitsRegions) {
  Cursor c(make_contig(10, make_leaf(4)), 0, 1);  // solid 40 bytes
  auto part1 = collect(c, kUnlimited, /*max_bytes=*/12);
  EXPECT_EQ(part1, (std::vector<Region>{{0, 12}}));
  EXPECT_EQ(c.position(), 12);
  auto part2 = collect(c, kUnlimited, 100);
  EXPECT_EQ(part2, (std::vector<Region>{{12, 28}}));
  EXPECT_TRUE(c.done());
}

TEST(PartialProcessing, ByteBudgetAcrossBlocks) {
  auto v = make_vector(4, 2, 20, make_leaf(4));  // blocks of 8B at 0,20,40,60
  Cursor c(v, 0, 1);
  auto part = collect(c, kUnlimited, /*max_bytes=*/12);
  EXPECT_EQ(part, (std::vector<Region>{{0, 8}, {20, 4}}));
  auto rest = collect(c);
  EXPECT_EQ(rest, (std::vector<Region>{{24, 4}, {40, 8}, {60, 8}}));
}

TEST(PartialProcessing, ProcessReportsCounts) {
  auto v = make_vector(5, 1, 10, make_leaf(4));
  Cursor c(v, 0, 1);
  auto r = c.process(2, kUnlimited, [](std::int64_t, std::int64_t) {});
  EXPECT_EQ(r.regions, 2);
  EXPECT_EQ(r.bytes, 8);
}

// ---- Seek -----------------------------------------------------------------

TEST(Seek, MatchesSequentialConsumption) {
  const std::int64_t lens[] = {3, 1, 4};
  const std::int64_t offs[] = {0, 20, 33};
  auto type = make_indexed(lens, offs, make_leaf(4));
  const std::int64_t total = 2 * type->size;
  for (std::int64_t pos = 0; pos <= total; ++pos) {
    Cursor seeker(type, 0, 2);
    seeker.seek(pos);
    EXPECT_EQ(seeker.position(), pos);
    auto via_seek = collect(seeker);

    Cursor walker(type, 0, 2);
    auto skipped = collect(walker, kUnlimited, pos);
    (void)skipped;
    auto via_walk = collect(walker);
    EXPECT_EQ(via_seek, via_walk) << "at pos " << pos;
  }
}

TEST(Seek, ReseekAfterDoneRestartsCleanly) {
  auto type = make_vector(5, 2, 16, make_leaf(4));
  Cursor c(type, 0, 2);
  (void)collect(c);
  EXPECT_TRUE(c.done());
  c.seek(0);  // rewind
  EXPECT_FALSE(c.done());
  auto again = collect(c);
  Cursor fresh(type, 0, 2);
  EXPECT_EQ(again, collect(fresh));
}

TEST(Seek, PackAfterSeekProducesTheStreamSuffix) {
  auto type = make_vector(8, 4, 16, make_leaf(1));  // 32 data bytes
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(type->extent));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i);
  }
  Cursor whole(type, 0, 1);
  std::vector<std::uint8_t> full(32);
  pack(buf.data(), whole, full);

  Cursor suffix(type, 0, 1);
  suffix.seek(13);
  std::vector<std::uint8_t> tail(19);
  EXPECT_EQ(pack(buf.data(), suffix, tail), 19u);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), full.begin() + 13));
}

TEST(Seek, ToEndIsDone) {
  auto type = make_vector(3, 2, 16, make_leaf(4));
  Cursor c(type, 0, 4);
  c.seek(c.total_bytes());
  EXPECT_TRUE(c.done());
}

TEST(Seek, OutOfRangeThrows) {
  Cursor c(make_leaf(4), 0, 1);
  EXPECT_THROW(c.seek(-1), std::out_of_range);
  EXPECT_THROW(c.seek(5), std::out_of_range);
}

TEST(Seek, DeepNestedSeek) {
  auto inner = make_vector(4, 1, 10, make_leaf(2));   // 8B per instance
  auto mid = make_vector(3, 2, 100, inner);           // 48B per instance
  auto outer = make_contig(5, mid);                   // 240B per instance
  const std::int64_t total = 2 * outer->size;
  for (std::int64_t pos = 0; pos <= total; pos += 7) {
    Cursor seeker(outer, 0, 2);
    seeker.seek(pos);
    auto via_seek = collect(seeker);
    Cursor walker(outer, 0, 2);
    (void)collect(walker, kUnlimited, pos);
    auto via_walk = collect(walker);
    EXPECT_EQ(via_seek, via_walk) << "at pos " << pos;
  }
}

// ---- Pruned traversal: span filter + stream limit --------------------------

struct Window {
  std::int64_t lo;
  std::int64_t hi;
};

bool window_filter(const void* ctx, std::int64_t lo, std::int64_t hi) {
  const auto* w = static_cast<const Window*>(ctx);
  return lo < w->hi && hi > w->lo;
}

TEST(Filter, KeepAllMatchesUnfiltered) {
  auto inner = make_vector(3, 1, 10, make_leaf(2));
  auto type = make_contig(4, inner);
  Cursor plain(type, 5, 2);
  auto all = collect(plain, kUnlimited, kUnlimited, /*coalesce=*/false);

  Cursor filtered(type, 5, 2);
  Window w{std::numeric_limits<std::int64_t>::min() / 2,
           std::numeric_limits<std::int64_t>::max() / 2};
  filtered.set_filter(window_filter, &w);
  auto same = collect(filtered, kUnlimited, kUnlimited, /*coalesce=*/false);
  EXPECT_EQ(same, all);
  EXPECT_EQ(filtered.subtrees_skipped(), 0);
  EXPECT_EQ(filtered.bytes_pruned(), 0);
}

TEST(Filter, RejectAllSkipsEverythingButAdvancesStream) {
  auto type = make_vector(6, 2, 24, make_leaf(4));
  Cursor c(type, 0, 3);
  Window w{-100, -50};  // nothing intersects
  c.set_filter(window_filter, &w);
  auto regions = collect(c);
  EXPECT_TRUE(regions.empty());
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.position(), c.total_bytes());
  // Whole instances are rejected at the root: one probe per instance.
  EXPECT_EQ(c.subtrees_skipped(), 3);
  EXPECT_EQ(c.regions_pruned(), 3 * type->region_count());
  EXPECT_EQ(c.bytes_pruned(), c.total_bytes());
}

TEST(Filter, WindowFilterKeepsEveryIntersectingRegion) {
  // Mixed-kind tree exercising every prune point: a struct whose blocks
  // are a block-atomic vector, a gappy (non-packed) child under indexed,
  // and a contig — walked for two instances so root pruning fires too.
  auto gappy = make_vector(2, 1, 12, make_leaf(4));  // solid=false
  auto atomic_v = make_vector(3, 2, 20, make_leaf(4));
  const std::int64_t ilens[] = {2, 1};
  const std::int64_t ioffs[] = {0, 60};
  auto idx = make_indexed(ilens, ioffs, gappy);
  auto ctg = make_contig(2, atomic_v);
  const std::int64_t slens[] = {1, 1, 1};
  const std::int64_t soffs[] = {0, 200, 500};
  const DataloopPtr kids[] = {atomic_v, idx, ctg};
  auto type = make_struct(slens, soffs, kids);

  Cursor whole(type, 0, 2);
  const auto all = collect(whole, kUnlimited, kUnlimited, /*coalesce=*/false);
  ASSERT_FALSE(all.empty());

  const Window windows[] = {{0, 40},   {40, 230},  {230, 520},
                            {500, 700}, {700, 5000}, {0, 5000}};
  for (const Window& w : windows) {
    Cursor c(type, 0, 2);
    Window win = w;
    c.set_filter(window_filter, &win);
    const auto got = collect(c, kUnlimited, kUnlimited, /*coalesce=*/false);

    // `got` must be an in-order subsequence of the full expansion, and
    // every omitted region must miss the window (the filter may keep
    // extra regions — it is conservative — but must never drop a wanted
    // one).
    std::size_t j = 0;
    std::int64_t got_bytes = 0;
    for (const Region& r : all) {
      if (j < got.size() && got[j].offset == r.offset &&
          got[j].length == r.length) {
        ++j;
        got_bytes += r.length;
        continue;
      }
      EXPECT_FALSE(r.offset < win.hi && r.end() > win.lo)
          << "dropped region {" << r.offset << "," << r.length
          << "} intersects window [" << win.lo << "," << win.hi << ")";
    }
    EXPECT_EQ(j, got.size()) << "emitted a region the full walk never did";
    EXPECT_TRUE(c.done());
    EXPECT_EQ(c.position(), c.total_bytes());
    EXPECT_EQ(got_bytes + c.bytes_pruned(), c.total_bytes());
  }
}

TEST(Filter, MidBlockSeekThenFilteredProcess) {
  // Block-atomic vector: each block is one 8-byte contiguous region at
  // offset 32*b. Seek lands 3 bytes into block 0, then a filter that only
  // keeps blocks 2 and 3 must prune the partially-consumed remainder.
  auto type = make_vector(4, 2, 32, make_leaf(4));
  Cursor c(type, 0, 1);
  c.seek(3);
  Window w{64, 200};
  c.set_filter(window_filter, &w);
  auto got = collect(c);
  EXPECT_EQ(got, (std::vector<Region>{{64, 8}, {96, 8}}));
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.position(), c.total_bytes());
}

TEST(StreamLimit, ClipsFinalRegionAndStops) {
  auto type = make_vector(5, 1, 10, make_leaf(4));
  Cursor c(type, 0, 1);
  c.set_stream_limit(6);  // mid second region
  auto got = collect(c);
  EXPECT_EQ(got, (std::vector<Region>{{0, 4}, {10, 2}}));
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.position(), 6);
}

TEST(StreamLimit, AtSeekPositionIsImmediatelyDone) {
  auto type = make_vector(5, 1, 10, make_leaf(4));
  Cursor c(type, 0, 1);
  c.seek(8);
  c.set_stream_limit(8);
  EXPECT_TRUE(c.done());
  auto got = collect(c);
  EXPECT_TRUE(got.empty());
}

TEST(StreamLimit, BoundsWindowIndependentlyOfFilter) {
  // Under a filter, pruned bytes never reach process()'s byte budget, so
  // the window must be enforced by the stream limit. Stream window [4, 14)
  // with a filter that rejects the first two file regions: region 1
  // (stream [4,8)) is pruned — consuming window bytes without emitting —
  // region 2 (stream [8,12)) is emitted whole, and region 3 is clipped to
  // the 2 window bytes left.
  auto type = make_vector(5, 1, 10, make_leaf(4));  // regions at 0,10,20,30,40
  Cursor c(type, 0, 1);
  c.seek(4);
  c.set_stream_limit(14);
  Window w{20, 1000};  // rejects file regions {0,4} and {10,4}
  c.set_filter(window_filter, &w);
  auto got = collect(c);
  EXPECT_EQ(got, (std::vector<Region>{{20, 4}, {30, 2}}));
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.position(), 14);
}

// ---- Run skip over pruned vector blocks ------------------------------------

// Stripe filter for one server that counts its probes. With
// `block_width` set it is the per-block reference: a span wider than one
// block that is not a whole instance can only be a run probe, and keeping
// it is conservative, so the cursor skips rejected blocks one at a time —
// exactly what per-block probing does, from the same cursor code.
struct StripeProbe {
  const pfs::FileLayout* layout;
  int server;
  std::int64_t block_width = 0;  ///< 0: answer every span from the layout
  std::vector<Region> instances;
  mutable std::int64_t probes = 0;
};

bool stripe_probe(const void* ctx, std::int64_t lo, std::int64_t hi) {
  const auto* p = static_cast<const StripeProbe*>(ctx);
  ++p->probes;
  const Region span{lo, hi - lo};
  if (p->block_width > 0 && span.length > p->block_width &&
      std::find(p->instances.begin(), p->instances.end(), span) ==
          p->instances.end()) {
    return true;
  }
  return p->layout->intersects_server(span, p->server);
}

/// Data span of one vector block, from its start.
std::int64_t block_width(const Dataloop& vec) {
  const Dataloop& child = *vec.child;
  return std::abs((vec.blocklen - 1) * child.extent) + child.data_ub -
         child.data_lb;
}

std::vector<Region> instance_spans(const Dataloop& loop, std::int64_t base,
                                   std::int64_t count) {
  std::vector<Region> spans;
  for (std::int64_t i = 0; i < count; ++i) {
    spans.push_back(Region{base + i * loop.extent + loop.data_lb,
                           loop.data_ub - loop.data_lb});
  }
  return spans;
}

TEST(RunSkip, MatchesPerBlockProbingOnRandomVectors) {
  Rng rng(1414);
  std::int64_t fast_probes = 0;
  std::int64_t ref_probes = 0;
  std::int64_t runs_cut_by_limit = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    // Atomic blocks (packed leaf child) or non-atomic ones (gappy child).
    const std::int64_t el = rng.next_range(1, 8);
    const DataloopPtr child =
        rng.next_below(2) == 0
            ? make_leaf(el)
            : make_vector(2, 1, el + rng.next_range(1, 16), make_leaf(el));
    const std::int64_t count = rng.next_range(2, 80);
    const std::int64_t blocklen = rng.next_range(1, 4);
    // Any stride but the seamless one (that normalises to contig); small
    // ones make blocks overlap.
    std::int64_t stride = rng.next_range(1, blocklen * child->extent + 300);
    if (stride == blocklen * child->extent) ++stride;
    if (rng.next_below(2) == 0) stride = -stride;
    const DataloopPtr loop = make_vector(count, blocklen, stride, child);
    ASSERT_EQ(loop->kind, Kind::kVector);

    // 1-16 servers, often a narrow per-file layout; the probing server may
    // lie outside the file's stripe (then everything is rejected).
    const int total = static_cast<int>(rng.next_range(1, 16));
    const int servers = static_cast<int>(rng.next_range(1, total));
    const int start = static_cast<int>(rng.next_range(0, total - 1));
    const pfs::FileLayout layout(servers, rng.next_range(4, 600), start, total);
    const int server = static_cast<int>(rng.next_range(0, total - 1));

    const std::int64_t instances = rng.next_range(1, 3);
    const std::int64_t base = rng.next_range(0, 4096) - loop->data_lb;
    Cursor fast(loop, base, instances);
    Cursor ref(loop, base, instances);
    const std::int64_t seek = rng.next_range(0, fast.total_bytes());
    std::int64_t limit = fast.total_bytes();
    if (rng.next_below(2) == 0) limit = rng.next_range(seek, limit);
    const StripeProbe fast_filter{&layout, server, 0, {}};
    const StripeProbe ref_filter{&layout, server, block_width(*loop),
                                 instance_spans(*loop, base, instances)};
    for (auto [c, f] : {std::pair{&fast, &fast_filter}, {&ref, &ref_filter}}) {
      c->seek(seek);
      c->set_stream_limit(limit);
      c->set_filter(stripe_probe, f);
    }
    const auto got = collect(fast, kUnlimited, kUnlimited, /*coalesce=*/false);
    const auto want = collect(ref, kUnlimited, kUnlimited, /*coalesce=*/false);

    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << "\n" << loop->to_string()
                 << "base=" << base << " instances=" << instances
                 << " seek=" << seek << " limit=" << limit << " layout("
                 << servers << "," << layout.strip_size() << "," << start
                 << "," << total << ") server=" << server);
    ASSERT_EQ(got, want);
    EXPECT_EQ(fast.subtrees_skipped(), ref.subtrees_skipped());
    EXPECT_EQ(fast.regions_pruned(), ref.regions_pruned());
    EXPECT_EQ(fast.bytes_pruned(), ref.bytes_pruned());
    EXPECT_EQ(fast.position(), ref.position());
    EXPECT_TRUE(fast.done());
    fast_probes += fast_filter.probes;
    ref_probes += ref_filter.probes;
    if (limit < fast.total_bytes() && fast.position() > limit) {
      ++runs_cut_by_limit;  // the last skipped block straddles the limit
    }
  }
  EXPECT_LT(fast_probes, ref_probes);
  EXPECT_GT(runs_cut_by_limit, 0);
}

TEST(RunSkip, TileRowsProbeAQuarterAsOftenAsPerBlock) {
  // The tile reader's file type (768 rows of 3072 bytes, stride 7596) over
  // 16 frames, striped over 16 servers in 64 KiB strips, from server 0.
  // Per-block probing asks once per frame and once per row; the run skip
  // must cut that at least 4x while walking and skipping the same.
  const auto rows = make_vector(768, 3072, 7596, make_leaf(1));
  const pfs::FileLayout layout(16, 64 * 1024);
  const StripeProbe fast_filter{&layout, 0, 0, {}};
  const StripeProbe ref_filter{&layout, 0, block_width(*rows),
                               instance_spans(*rows, 0, 16)};
  Cursor fast(rows, 0, 16);
  Cursor ref(rows, 0, 16);
  fast.set_filter(stripe_probe, &fast_filter);
  ref.set_filter(stripe_probe, &ref_filter);
  const auto pieces = collect(fast);
  EXPECT_EQ(pieces, collect(ref));
  EXPECT_EQ(pieces.size(), 805u);
  EXPECT_EQ(fast.subtrees_skipped(), 11482);
  EXPECT_EQ(fast.subtrees_skipped(), ref.subtrees_skipped());
  EXPECT_EQ(fast.regions_pruned(), ref.regions_pruned());
  const std::int64_t per_block_probes = 16 + 16 * 768;
  EXPECT_LE(4 * fast_filter.probes, per_block_probes) << fast_filter.probes;
}

TEST(RunSkip, GappyBlocksStayNearOneProbePerBlock) {
  // The FLASH checkpoint's file type: 24 blocks of 320 KiB at a 5 MiB
  // stride. Each block covers the same 5 strips of a 16 x 64 KiB stripe,
  // and every gap holds all 16 servers' strips, so no span of two blocks
  // is ever rejected. Galloping cannot pay here; backing off keeps every
  // server within 25% of per-block probing (which asks once for the
  // instance and once per block).
  const auto blocks = make_vector(24, 320 * 1024, 5 << 20, make_leaf(1));
  const pfs::FileLayout layout(16, 64 * 1024);
  for (int server = 0; server < 16; ++server) {
    const StripeProbe filter{&layout, server, 0, {}};
    Cursor c(blocks, 0, 1);
    c.set_filter(stripe_probe, &filter);
    collect(c);
    EXPECT_LE(4 * filter.probes, 5 * (1 + 24)) << "server " << server;
  }
}

// ---- Pack / unpack --------------------------------------------------------

TEST(Pack, GatherScatterRoundTrip) {
  auto type = make_vector(4, 2, 24, make_leaf(4));  // 32 data bytes
  const std::int64_t footprint = type->extent;
  std::vector<std::uint8_t> src(static_cast<std::size_t>(footprint), 0xEE);
  // Paint data bytes with a recognisable ramp via unpack of a ramp stream.
  std::vector<std::uint8_t> stream(32);
  std::iota(stream.begin(), stream.end(), std::uint8_t{1});

  Cursor w(type, 0, 1);
  EXPECT_EQ(unpack(src.data(), w, stream), 32u);

  Cursor r(type, 0, 1);
  std::vector<std::uint8_t> out(32, 0);
  EXPECT_EQ(pack(src.data(), r, out), 32u);
  EXPECT_EQ(out, stream);

  // Gap bytes untouched.
  EXPECT_EQ(src[8], 0xEE);
  EXPECT_EQ(src[20], 0xEE);
}

TEST(Pack, BoundedBufferPacksIncrementally) {
  auto type = make_vector(8, 1, 6, make_leaf(4));  // 32 data bytes
  std::vector<std::uint8_t> src(static_cast<std::size_t>(type->extent));
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i);
  }
  Cursor c(type, 0, 1);
  std::vector<std::uint8_t> all;
  std::vector<std::uint8_t> chunk(10);
  while (!c.done()) {
    const std::size_t n = pack(src.data(), c, chunk);
    all.insert(all.end(), chunk.begin(), chunk.begin() + static_cast<long>(n));
  }
  ASSERT_EQ(all.size(), 32u);
  Cursor c2(type, 0, 1);
  std::vector<std::uint8_t> whole(32);
  pack(src.data(), c2, whole);
  EXPECT_EQ(all, whole);
}

// ---- Serialisation --------------------------------------------------------

TEST(Serialize, RoundTripPreservesStructure) {
  const std::int64_t lens[] = {1, 3, 2};
  const std::int64_t offs[] = {0, 11, 60};
  const DataloopPtr kids[] = {make_leaf(8), make_leaf(4),
                              make_vector(2, 1, 12, make_leaf(4))};
  auto type = make_struct(lens, offs, kids);
  std::vector<std::uint8_t> wire;
  encode(*type, wire);
  EXPECT_EQ(wire.size(), encoded_size(*type));
  auto back = decode(wire);
  EXPECT_TRUE(deep_equal(*type, *back));
}

TEST(Serialize, RoundTripPreservesResizedExtent) {
  auto type = make_resized(make_vector(3, 1, 10, make_leaf(4)), -4, 64);
  std::vector<std::uint8_t> wire;
  encode(*type, wire);
  auto back = decode(wire);
  EXPECT_EQ(back->extent, 64);
  EXPECT_EQ(back->lb, -4);
  EXPECT_TRUE(deep_equal(*type, *back));
}

TEST(Serialize, DecodedLoopProcessesIdentically) {
  const std::int64_t lens[] = {5, 2, 7};
  const std::int64_t offs[] = {3, 50, 90};
  auto type = make_indexed(lens, offs, make_leaf(2));
  std::vector<std::uint8_t> wire;
  encode(*type, wire);
  auto back = decode(wire);
  Cursor a(type, 1000, 3);
  Cursor b(back, 1000, 3);
  EXPECT_EQ(collect(a), collect(b));
}

TEST(Serialize, MalformedInputsThrow) {
  EXPECT_THROW((void)decode({}), std::invalid_argument);
  std::vector<std::uint8_t> wire;
  encode(*make_leaf(4), wire);
  wire.pop_back();
  EXPECT_THROW((void)decode(wire), std::invalid_argument);
  wire.push_back(0);
  wire.push_back(0xFF);  // trailing garbage
  EXPECT_THROW((void)decode(wire), std::invalid_argument);
  std::vector<std::uint8_t> bogus(32, 0xAB);
  EXPECT_THROW((void)decode(bogus), std::invalid_argument);
}

TEST(Serialize, DecoderSurvivesRandomBytes) {
  // Fuzz the wire decoder: random byte strings must either decode to a
  // valid loop or throw std::invalid_argument — never crash or hang.
  Rng rng(0xF022);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> bytes(rng.next_below(120));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    try {
      auto loop = decode(bytes);
      // If it decoded, it must be internally consistent.
      EXPECT_GE(loop->size, 0);
      EXPECT_GE(loop->node_count(), 1);
    } catch (const std::invalid_argument&) {
      // expected for malformed input
    }
  }
}

TEST(Serialize, DecoderSurvivesBitFlips) {
  const std::int64_t lens[] = {2, 5, 1};
  const std::int64_t offs[] = {0, 30, 90};
  auto type = make_indexed(lens, offs, make_leaf(4));
  std::vector<std::uint8_t> wire;
  encode(*type, wire);
  Rng rng(99);
  for (int round = 0; round < 500; ++round) {
    auto mutated = wire;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    try {
      auto loop = decode(mutated);
      EXPECT_GE(loop->node_count(), 1);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(Serialize, DecoderRejectsSizeOverflow) {
  // A descriptor whose sizes, extents or spans overflow int64 is malformed
  // input: the builders reject it instead of wrapping.
  std::vector<std::uint8_t> wire;
  encode(*make_vector(4, 2, 24, make_leaf(4)), wire);
  const std::uint64_t huge = std::uint64_t{1} << 61;  // count * 8 B overflows
  for (int i = 0; i < 8; ++i) {
    wire[1 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  }
  EXPECT_THROW(decode(wire), std::invalid_argument);

  const std::int64_t big = std::int64_t{1} << 62;
  const std::int64_t lens[] = {2, 5};
  const std::int64_t offs[] = {0, 64};
  EXPECT_THROW(make_indexed(lens, offs, make_contig(big, make_leaf(1))),
               std::invalid_argument);
  EXPECT_THROW(make_vector(3, 1, big, make_leaf(1)), std::invalid_argument);
  EXPECT_THROW(make_contig(4, make_vector(2, 1, big, make_leaf(1))),
               std::invalid_argument);
}

TEST(Cursor, DeepNestingStress) {
  // 20 levels of alternating vectors: traversal and seek stay correct.
  DataloopPtr loop = make_leaf(2);
  for (int d = 0; d < 20; ++d) {
    loop = make_vector(2, 1, loop->extent + 1 + d % 3, loop);
  }
  EXPECT_EQ(loop->size, 2 << 20);
  auto regions = flatten(loop, 0, 1);
  EXPECT_EQ(total_length(regions), loop->size);
  Cursor seeker(loop, 0, 1);
  seeker.seek(loop->size / 2);
  Region r;
  EXPECT_TRUE(seeker.peek(r));
  EXPECT_EQ(seeker.position(), loop->size / 2);
}

// ---- Property tests over random (monotonic) types -------------------------

DataloopPtr random_type(Rng& rng, int depth) {
  if (depth == 0) {
    return make_leaf(rng.next_range(1, 16));
  }
  auto child = random_type(rng, depth - 1);
  switch (rng.next_below(5)) {
    case 0:
      return make_contig(rng.next_range(1, 5), child);
    case 1: {
      const std::int64_t blocklen = rng.next_range(1, 4);
      const std::int64_t min_stride = blocklen * child->extent;
      return make_vector(rng.next_range(2, 5), blocklen,
                         min_stride + rng.next_range(0, 32), child);
    }
    case 2: {
      const std::int64_t count = rng.next_range(1, 5);
      const std::int64_t blocklen = rng.next_range(1, 3);
      std::vector<std::int64_t> offs;
      std::int64_t at = 0;
      for (std::int64_t i = 0; i < count; ++i) {
        offs.push_back(at);
        at += blocklen * child->extent + rng.next_range(0, 40);
      }
      return make_blockindexed(count, blocklen, offs, child);
    }
    case 3: {
      const std::int64_t count = rng.next_range(1, 5);
      std::vector<std::int64_t> lens, offs;
      std::int64_t at = rng.next_range(0, 8);
      for (std::int64_t i = 0; i < count; ++i) {
        const std::int64_t bl = rng.next_range(0, 3);
        lens.push_back(bl);
        offs.push_back(at);
        at += bl * child->extent + rng.next_range(1, 24);
      }
      return make_indexed(lens, offs, child);
    }
    default: {
      // Heterogeneous struct with monotonic non-overlapping blocks.
      const std::int64_t count = rng.next_range(2, 4);
      std::vector<std::int64_t> lens, offs;
      std::vector<DataloopPtr> kids;
      std::int64_t at = rng.next_range(0, 8);
      for (std::int64_t i = 0; i < count; ++i) {
        auto kid = i == 0 ? child : random_type(rng, 0);
        const std::int64_t bl = rng.next_range(1, 2);
        lens.push_back(bl);
        offs.push_back(at);
        // The block's data ends at offset + bl*extent + lb (instances tile
        // by extent from the block origin, data spans [lb, lb+extent) of
        // each instance); keep the next block past that.
        at += bl * kid->extent + kid->lb + rng.next_range(1, 24);
        kids.push_back(std::move(kid));
      }
      return make_struct(lens, offs, kids);
    }
  }
}

class DataloopProperty : public ::testing::TestWithParam<int> {};

TEST_P(DataloopProperty, FlattenCoversExactlySizeBytes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto type = random_type(rng, static_cast<int>(rng.next_range(1, 3)));
  const std::int64_t count = rng.next_range(1, 4);
  auto regions = flatten(type, 0, count);
  EXPECT_EQ(total_length(regions), type->size * count);
  EXPECT_TRUE(regions_sorted_disjoint(regions));
  // Coalesced output never has touching neighbours.
  for (std::size_t i = 1; i < regions.size(); ++i) {
    EXPECT_GT(regions[i].offset, regions[i - 1].end());
  }
}

TEST_P(DataloopProperty, PartialProcessingMatchesFull) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  auto type = random_type(rng, static_cast<int>(rng.next_range(1, 3)));
  const std::int64_t count = rng.next_range(1, 3);
  auto expect = flatten(type, 0, count);

  Cursor c(type, 0, count);
  std::vector<Region> got;
  while (!c.done()) {
    auto part = collect(c, rng.next_range(1, 4), rng.next_range(1, 64));
    got.insert(got.end(), part.begin(), part.end());
  }
  coalesce_adjacent(got);  // budget cuts may split regions
  EXPECT_EQ(got, expect);
}

TEST_P(DataloopProperty, SerializeRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  auto type = random_type(rng, static_cast<int>(rng.next_range(1, 3)));
  std::vector<std::uint8_t> wire;
  encode(*type, wire);
  auto back = decode(wire);
  EXPECT_TRUE(deep_equal(*type, *back));
}

TEST_P(DataloopProperty, PackUnpackIdentity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  auto type = random_type(rng, static_cast<int>(rng.next_range(1, 3)));
  const std::int64_t count = rng.next_range(1, 3);
  const std::int64_t total = type->size * count;
  const std::int64_t span = type->extent * count + 64;

  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(span), 0);
  std::vector<std::uint8_t> stream(static_cast<std::size_t>(total));
  for (auto& b : stream) b = static_cast<std::uint8_t>(rng.next());

  Cursor w(type, 0, count);
  ASSERT_EQ(unpack(buffer.data(), w, stream),
            static_cast<std::size_t>(total));
  Cursor r(type, 0, count);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(total), 0);
  ASSERT_EQ(pack(buffer.data(), r, out), static_cast<std::size_t>(total));
  EXPECT_EQ(out, stream);
}

TEST_P(DataloopProperty, SeekEquivalentToSkip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537);
  auto type = random_type(rng, static_cast<int>(rng.next_range(1, 3)));
  const std::int64_t count = rng.next_range(1, 3);
  const std::int64_t total = type->size * count;
  const std::int64_t pos = rng.next_range(0, total);

  Cursor seeker(type, 0, count);
  seeker.seek(pos);
  auto via_seek = collect(seeker);

  Cursor walker(type, 0, count);
  (void)collect(walker, kUnlimited, pos);
  auto via_walk = collect(walker);
  EXPECT_EQ(via_seek, via_walk);
}

INSTANTIATE_TEST_SUITE_P(RandomTypes, DataloopProperty,
                         ::testing::Range(0, 40));

// ---- Run-length walk (peek_run / advance_run) ---------------------------------

/// A random type whose innermost level is often a contig of spaced-out
/// solid children (a resized leaf or packed contig), the shape peek_run
/// reports as runs, nested under up to two more levels.
DataloopPtr random_run_type(Rng& rng) {
  DataloopPtr solid = make_leaf(rng.next_range(1, 8));
  if (rng.next_below(3) == 0) solid = make_contig(rng.next_range(2, 3), solid);
  solid = make_resized(solid, 0, solid->size + rng.next_range(0, 12));
  DataloopPtr loop = make_contig(rng.next_range(1, 9), solid);
  const std::int64_t levels = rng.next_range(0, 2);
  for (std::int64_t i = 0; i < levels; ++i) {
    switch (rng.next_below(3)) {
      case 0:
        loop = make_contig(rng.next_range(2, 4), loop);
        break;
      case 1: {
        const std::int64_t blocklen = rng.next_range(1, 3);
        loop = make_vector(rng.next_range(2, 4), blocklen,
                           blocklen * loop->extent + rng.next_range(0, 40),
                           loop);
        break;
      }
      default: {
        const DataloopPtr other = random_type(rng, 1);
        const std::int64_t lens[] = {rng.next_range(1, 2), 1};
        const std::int64_t offs[] = {
            0, lens[0] * loop->extent + rng.next_range(0, 16) - other->lb};
        const DataloopPtr kids[] = {loop, other};
        loop = make_struct(lens, offs, kids);
        break;
      }
    }
  }
  return loop;
}

struct Step {
  Region region;
  std::int64_t pos_after;  ///< position() once the region is consumed
};

std::vector<Step> walk_steps(Cursor& c) {
  std::vector<Step> steps;
  Region r;
  while (c.peek(r)) {
    c.advance(r.length);
    steps.push_back({r, c.position()});
  }
  return steps;
}

/// Walks `run` with peek_run/advance_run, taking a random prefix of each
/// run, and checks it against the peek/advance steps of an identically
/// set up cursor. Returns the largest n reported.
std::int64_t check_run_walk(Rng& rng, Cursor& run,
                            const std::vector<Step>& steps,
                            std::int64_t& partial_takes) {
  std::size_t at = 0;
  std::int64_t max_n = 0;
  Region r;
  std::int64_t stride = 0;
  std::int64_t n = 0;
  while (run.peek_run(r, stride, n)) {
    EXPECT_GE(n, 1);
    if (at + static_cast<std::size_t>(n) > steps.size()) {
      ADD_FAILURE() << "run of " << n << " past the end of the walk";
      return max_n;
    }
    for (std::int64_t i = 0; i < n; ++i) {
      const Region want = steps[at + static_cast<std::size_t>(i)].region;
      if (want != Region{r.offset + i * stride, r.length}) {
        ADD_FAILURE() << "region " << at + static_cast<std::size_t>(i)
                      << " of a run differs";
        return max_n;
      }
    }
    max_n = std::max(max_n, n);
    const std::int64_t k = rng.next_range(1, n);
    if (k < n) ++partial_takes;
    run.advance_run(k);
    at += static_cast<std::size_t>(k);
    EXPECT_EQ(run.position(), steps[at - 1].pos_after);
  }
  EXPECT_EQ(at, steps.size());
  EXPECT_TRUE(run.done());
  return max_n;
}

TEST(RunWalk, MatchesPeekAdvanceOnRandomTypes) {
  Rng rng(2718);
  std::int64_t with_runs = 0;
  std::int64_t partial_takes = 0;
  std::int64_t mid_region_seeks = 0;
  std::int64_t limits_inside_runs = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const DataloopPtr loop =
        rng.next_below(4) == 0
            ? random_type(rng, static_cast<int>(rng.next_range(1, 3)))
            : random_run_type(rng);
    const std::int64_t count = rng.next_range(1, 3);
    const std::int64_t base = rng.next_range(0, 512);

    // Seek to the start, anywhere, or strictly inside some region.
    Cursor probe(loop, base, count);
    const auto full = walk_steps(probe);
    const std::int64_t total = probe.total_bytes();
    std::int64_t seek = 0;
    switch (rng.next_below(3)) {
      case 0:
        break;
      case 1:
        seek = rng.next_range(0, total);
        break;
      default: {
        if (full.empty()) break;
        const Step& s = full[static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(full.size())))];
        if (s.region.length > 1) {
          seek = s.pos_after - s.region.length +
                 rng.next_range(1, s.region.length - 1);
          ++mid_region_seeks;
        }
      }
    }
    std::int64_t limit = total;
    if (rng.next_below(2) == 0) limit = rng.next_range(seek, total);

    Cursor ref(loop, base, count);
    Cursor run(loop, base, count);
    for (Cursor* c : {&ref, &run}) {
      c->seek(seek);
      c->set_stream_limit(limit);
    }
    const auto steps = walk_steps(ref);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << "\n" << loop->to_string()
                 << "base=" << base << " count=" << count << " seek=" << seek
                 << " limit=" << limit);
    const std::int64_t max_n = check_run_walk(rng, run, steps, partial_takes);
    EXPECT_EQ(run.position(), ref.position());
    if (max_n > 1) ++with_runs;
    // The limit cuts a run when it falls between two regions of one
    // contig parent: the unlimited walk has a region starting right there
    // that is a stride away from the one before it.
    if (max_n > 1 && limit < total && !steps.empty() &&
        steps.back().pos_after == limit && steps.size() >= 2 &&
        steps.back().region.length == steps[steps.size() - 2].region.length) {
      ++limits_inside_runs;
    }
  }
  EXPECT_GT(with_runs, 1000);
  EXPECT_GT(partial_takes, 100);
  EXPECT_GT(mid_region_seeks, 100);
  EXPECT_GT(limits_inside_runs, 50);
}

TEST(RunWalk, FilterForcesSingleRegions) {
  Rng rng(3141);
  for (int trial = 0; trial < 500; ++trial) {
    const DataloopPtr loop = random_run_type(rng);
    const std::int64_t count = rng.next_range(1, 3);
    Cursor ref(loop, 0, count);
    Cursor run(loop, 0, count);
    // Keep-all, or a window that rejects some subtrees.
    const std::int64_t span = count * loop->extent;
    Window w{std::numeric_limits<std::int64_t>::min() / 2,
             std::numeric_limits<std::int64_t>::max() / 2};
    if (rng.next_below(2) == 0) {
      w.lo = rng.next_range(0, span);
      w.hi = rng.next_range(w.lo, span + 1);
    }
    for (Cursor* c : {&ref, &run}) c->set_filter(window_filter, &w);
    const auto steps = walk_steps(ref);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << "\n"
                                      << loop->to_string());
    std::int64_t partial_takes = 0;
    EXPECT_LE(check_run_walk(rng, run, steps, partial_takes), 1);
    EXPECT_EQ(run.position(), ref.position());
    EXPECT_EQ(run.subtrees_skipped(), ref.subtrees_skipped());
  }
}

/// Keeps the spans that meet some [k * period + at, k * period + at +
/// width): a stripe set, as an I/O server's pruning filter sees it.
struct Stripes {
  std::int64_t period;
  std::int64_t at;
  std::int64_t width;
};

bool stripe_filter(const void* ctx, std::int64_t lo, std::int64_t hi) {
  const auto* s = static_cast<const Stripes*>(ctx);
  const std::int64_t d = lo - s->at;
  const std::int64_t k =
      d >= 0 ? d / s->period : -((-d + s->period - 1) / s->period);
  std::int64_t start = k * s->period + s->at;
  if (start + s->width <= lo) start += s->period;
  return start < hi;
}

/// The run companion of stripe_filter, asked region by region.
std::int64_t stripe_run_filter(const void* ctx, const RegionRun& run,
                               bool keep) {
  std::int64_t i = 0;
  while (i < run.count) {
    const std::int64_t lo = run.offset + i * run.stride;
    if (stripe_filter(ctx, lo, lo + run.length) != keep) break;
    ++i;
  }
  return i;
}

TEST(RunWalk, RunFilterMatchesPerRegionWalk) {
  // Under a span filter with its run companion, peek_run/advance_run give
  // the regions, positions and skip counters of peek/advance under the
  // span filter alone, with runs of kept leaf regions; the cursor skips
  // rejected vector blocks through the run filter instead of galloping.
  Rng rng(1618);
  std::int64_t with_runs = 0;
  std::int64_t skips = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const DataloopPtr loop =
        rng.next_below(2) == 0
            ? random_type(rng, static_cast<int>(rng.next_range(1, 3)))
            : random_run_type(rng);
    const std::int64_t count = rng.next_range(1, 3);
    const std::int64_t base = rng.next_range(0, 512);
    Stripes stripes{rng.next_range(2, 200), 0, 0};
    stripes.at = rng.next_range(0, stripes.period - 1);
    stripes.width = rng.next_range(1, stripes.period);
    Cursor probe(loop, base, count);
    const std::int64_t total = probe.total_bytes();
    const std::int64_t seek =
        rng.next_below(2) == 0 ? 0 : rng.next_range(0, total);
    const std::int64_t limit =
        rng.next_below(2) == 0 ? total : rng.next_range(seek, total);
    Cursor ref(loop, base, count);
    Cursor run(loop, base, count);
    ref.set_filter(stripe_filter, &stripes);
    run.set_filter(stripe_filter, &stripes, stripe_run_filter);
    for (Cursor* c : {&ref, &run}) {
      c->seek(seek);
      c->set_stream_limit(limit);
    }
    const auto steps = walk_steps(ref);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << "\n" << loop->to_string()
                 << "base=" << base << " count=" << count << " seek=" << seek
                 << " limit=" << limit << " stripes " << stripes.period << "/"
                 << stripes.at << "/" << stripes.width);
    std::int64_t partial_takes = 0;
    if (check_run_walk(rng, run, steps, partial_takes) > 1) ++with_runs;
    EXPECT_EQ(run.position(), ref.position());
    EXPECT_EQ(run.subtrees_skipped(), ref.subtrees_skipped());
    EXPECT_EQ(run.regions_pruned(), ref.regions_pruned());
    EXPECT_EQ(run.bytes_pruned(), ref.bytes_pruned());
    skips += ref.subtrees_skipped();
  }
  EXPECT_GT(with_runs, 500);
  EXPECT_GT(skips, 10000);
}

TEST(RunWalk, FlashInnermostRowIsOneRun) {
  // FLASH's innermost level: 8 cells of one 8-byte variable, 192 apart.
  const DataloopPtr row = make_contig(8, make_resized(make_leaf(8), 0, 192));
  Cursor c(make_vector(4, 1, 16 * 192, row), 0, 1);
  Region r;
  std::int64_t stride = 0;
  std::int64_t n = 0;
  ASSERT_TRUE(c.peek_run(r, stride, n));
  EXPECT_EQ(r, (Region{0, 8}));
  EXPECT_EQ(stride, 192);
  EXPECT_EQ(n, 8);
  c.advance_run(3);
  ASSERT_TRUE(c.peek_run(r, stride, n));
  EXPECT_EQ(r, (Region{3 * 192, 8}));
  EXPECT_EQ(n, 5);
  c.advance_run(5);
  ASSERT_TRUE(c.peek_run(r, stride, n));
  EXPECT_EQ(r, (Region{16 * 192, 8}));
  EXPECT_EQ(n, 8);
  EXPECT_EQ(c.position(), 64);
}

}  // namespace
}  // namespace dtio::dl
