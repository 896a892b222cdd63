// The server buffer cache (src/cache/): SLRU hit/miss behaviour and scan
// resistance, miss-fill coalescing, write-back staging / read-your-writes /
// flush coalescing, write-through, sequential and strided readahead,
// dirty-watermark background flush, crash drop semantics — plus the cache
// wired into a live cluster (warm reads hit, obs counters flow).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/buffer_cache.h"
#include "common/rng.h"
#include "common/units.h"
#include "dataloop/dataloop.h"
#include "obs/observability.h"
#include "pfs/cluster.h"
#include "sim/scheduler.h"

namespace dtio {
namespace {

using cache::AccessPlan;
using cache::BlockCache;
using cache::CacheConfig;
using cache::IoSeg;
using pfs::Client;
using pfs::MetaResult;
using sim::Task;

/// Map-backed durable store: reads beyond the written extent return zeros
/// (sparse-file semantics, like Bstream), and every write_at is recorded
/// so tests can see exactly what reached "disk" and when.
struct MemStore final : cache::ByteStore {
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> files;
  std::vector<IoSeg> writes;

  void read_at(std::uint64_t handle, std::int64_t offset,
               std::span<std::uint8_t> out) override {
    const auto& f = files[handle];
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto at = static_cast<std::size_t>(offset) + i;
      out[i] = at < f.size() ? f[at] : 0;
    }
  }
  void write_at(std::uint64_t handle, std::int64_t offset,
                std::span<const std::uint8_t> data) override {
    auto& f = files[handle];
    const auto end = static_cast<std::size_t>(offset) + data.size();
    if (f.size() < end) f.resize(end, 0);
    std::memcpy(f.data() + offset, data.data(), data.size());
    writes.push_back(
        {handle, offset, static_cast<std::int64_t>(data.size())});
  }
  void note_size(std::uint64_t handle, std::int64_t offset,
                 std::int64_t length) override {
    auto& hw = high_water[handle];
    hw = std::max(hw, offset + length);
  }
  [[nodiscard]] std::int64_t size_of(std::uint64_t handle) override {
    const auto it = files.find(handle);
    const std::int64_t stored =
        it == files.end() ? 0 : static_cast<std::int64_t>(it->second.size());
    const auto hw = high_water.find(handle);
    return std::max(stored, hw == high_water.end() ? 0 : hw->second);
  }
  std::unordered_map<std::uint64_t, std::int64_t> high_water;
};

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> data(n);
  Rng rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

CacheConfig small_config() {
  CacheConfig cfg;
  cfg.block_bytes = 1024;
  cfg.capacity_bytes = 16 * 1024;  // 16 blocks
  cfg.readahead_window = 0;        // off unless a test wants it
  return cfg;
}

TEST(BlockCache, MissThenHit) {
  MemStore store;
  BlockCache cache(small_config(), store);
  AccessPlan p1;
  cache.read(1, 0, 1024, {}, p1);
  EXPECT_EQ(p1.misses, 1u);
  EXPECT_EQ(p1.hits, 0u);
  ASSERT_EQ(p1.sync_reads.size(), 1u);
  EXPECT_EQ(p1.sync_reads[0], (IoSeg{1, 0, 1024}));

  AccessPlan p2;
  cache.read(1, 0, 1024, {}, p2);
  EXPECT_EQ(p2.hits, 1u);
  EXPECT_EQ(p2.misses, 0u);
  EXPECT_TRUE(p2.sync_reads.empty());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BlockCache, AdjacentMissFillsCoalesceIntoOneDiskOp) {
  MemStore store;
  BlockCache cache(small_config(), store);
  AccessPlan plan;
  cache.read(1, 0, 4096, {}, plan);  // 4 blocks, all cold
  EXPECT_EQ(plan.misses, 4u);
  ASSERT_EQ(plan.sync_reads.size(), 1u);  // one coalesced fill
  EXPECT_EQ(plan.sync_reads[0], (IoSeg{1, 0, 4096}));
}

TEST(BlockCache, PartialBlockAccessFillsWholeBlock) {
  MemStore store;
  BlockCache cache(small_config(), store);
  AccessPlan plan;
  cache.read(1, 100, 50, {}, plan);  // interior of block 0
  ASSERT_EQ(plan.sync_reads.size(), 1u);
  EXPECT_EQ(plan.sync_reads[0], (IoSeg{1, 0, 1024}));

  AccessPlan p2;
  cache.read(1, 900, 50, {}, p2);  // elsewhere in the same block: hit
  EXPECT_EQ(p2.hits, 1u);
  EXPECT_TRUE(p2.sync_reads.empty());
}

TEST(BlockCache, SlruScanResistance) {
  // A re-referenced block survives a one-shot scan bigger than probation:
  // the scan's blocks churn through probation while the protected segment
  // keeps the hot block.
  CacheConfig cfg = small_config();
  cfg.capacity_bytes = 4 * 1024;  // 4 blocks
  cfg.protected_fraction = 0.5;
  MemStore store;
  BlockCache cache(cfg, store);
  AccessPlan plan;
  cache.read(1, 0, 1024, {}, plan);  // block 0: miss
  cache.read(1, 0, 1024, {}, plan);  // block 0 again: promoted to protected
  for (int b = 1; b <= 10; ++b) {    // one-shot scan of 10 cold blocks
    cache.read(1, b * 1024, 1024, {}, plan);
  }
  AccessPlan probe;
  cache.read(1, 0, 1024, {}, probe);
  EXPECT_EQ(probe.hits, 1u) << "hot block evicted by a one-shot scan";
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(BlockCache, SingleBlockCapacityEvictsProtectedNotNewInsert) {
  // Regression: with one-block capacity, promoting the lone resident to
  // the protected segment and then inserting a new block must evict the
  // protected resident — not the block just inserted (which used to leave
  // touch() dereferencing an erased key).
  CacheConfig cfg = small_config();
  cfg.capacity_bytes = 1024;  // 1 block
  MemStore store;
  BlockCache cache(cfg, store);
  AccessPlan plan;
  cache.read(1, 0, 1024, {}, plan);     // block 0: miss
  cache.read(1, 0, 1024, {}, plan);     // hit: promoted to protected
  cache.read(1, 1024, 1024, {}, plan);  // block 1 displaces block 0
  EXPECT_EQ(cache.resident_blocks(), 1u);
  AccessPlan probe;
  cache.read(1, 1024, 1024, {}, probe);  // the new block is the survivor
  EXPECT_EQ(probe.hits, 1u);
  EXPECT_EQ(probe.misses, 0u);
}

TEST(BlockCache, OversizedBlockBytesClampedToInt32SafeRange) {
  // Dirty-range bookkeeping stores in-block offsets as int32_t, so block
  // sizes above kMaxBlockBytes are clamped rather than silently wrapping.
  CacheConfig cfg;
  cfg.block_bytes = std::int64_t{4} << 30;  // 4 GiB: would overflow int32
  cfg.capacity_bytes = std::int64_t{8} << 30;
  cfg.readahead_window = 0;
  MemStore store;
  BlockCache cache(cfg, store);
  EXPECT_EQ(cache.block_bytes(), BlockCache::kMaxBlockBytes);
  AccessPlan plan;
  const std::int64_t at = BlockCache::kMaxBlockBytes - 4096;
  cache.write(1, at, 4096, {}, plan);  // timing-only write at block end
  EXPECT_EQ(cache.dirty_bytes(), 4096);
}

TEST(BlockCache, WriteBackStagesReadsYourWritesThenFlushes) {
  MemStore store;
  BlockCache cache(small_config(), store);
  const auto data = pattern_bytes(2048, 7);
  AccessPlan wp;
  cache.write(1, 512, 2048, data, wp);
  EXPECT_TRUE(wp.sync_writes.empty());  // nothing synchronous in write-back
  EXPECT_TRUE(store.writes.empty());    // nothing reached disk yet
  EXPECT_EQ(cache.dirty_bytes(), 2048);

  // Read-your-writes: the staged bytes come back before any flush.
  std::vector<std::uint8_t> back(2048);
  AccessPlan rp;
  cache.read(1, 512, 2048, back, rp);
  EXPECT_EQ(back, data);

  AccessPlan fp;
  cache.flush_all(&fp);
  EXPECT_EQ(cache.dirty_bytes(), 0);
  EXPECT_EQ(fp.flushed_bytes, 2048u);
  ASSERT_FALSE(store.writes.empty());
  std::vector<std::uint8_t> on_disk(2048);
  store.read_at(1, 512, on_disk);
  EXPECT_EQ(on_disk, data);
  // Blocks 0..2 are adjacent, so the flush coalesced into one disk op.
  ASSERT_EQ(fp.async_writes.size(), 1u);
  EXPECT_EQ(fp.async_writes[0].handle, 1u);
}

TEST(BlockCache, WriteThroughStoresImmediately) {
  CacheConfig cfg = small_config();
  cfg.write_through = true;
  MemStore store;
  BlockCache cache(cfg, store);
  const auto data = pattern_bytes(1024, 9);
  AccessPlan plan;
  cache.write(1, 0, 1024, data, plan);
  EXPECT_EQ(cache.dirty_bytes(), 0);
  ASSERT_EQ(plan.sync_writes.size(), 1u);
  EXPECT_EQ(plan.sync_writes[0], (IoSeg{1, 0, 1024}));
  ASSERT_EQ(store.files[1].size(), 1024u);
  EXPECT_EQ(store.files[1], data);
  EXPECT_EQ(cache.drop_all(), 0u);  // crash loses nothing
}

TEST(BlockCache, SequentialReadahead) {
  CacheConfig cfg = small_config();
  cfg.capacity_bytes = 64 * 1024;
  cfg.readahead_window = 4;
  cfg.readahead_min_run = 2;
  MemStore store;
  store.files[1].resize(64 * 1024);  // readahead stops at EOF
  BlockCache cache(cfg, store);
  AccessPlan p0, p1, p2;
  cache.read(1, 0, 1024, {}, p0);     // block 0
  cache.read(1, 1024, 1024, {}, p1);  // block 1: stride 1, run 1
  cache.read(1, 2048, 1024, {}, p2);  // block 2: run 2 -> readahead arms
  EXPECT_EQ(p2.readahead_blocks, 4u);
  ASSERT_EQ(p2.async_reads.size(), 1u);  // blocks 3..6 coalesce
  EXPECT_EQ(p2.async_reads[0], (IoSeg{1, 3 * 1024, 4 * 1024}));

  AccessPlan p3;
  cache.read(1, 3 * 1024, 1024, {}, p3);  // prefetched: a hit
  EXPECT_EQ(p3.hits, 1u);
  EXPECT_EQ(p3.misses, 0u);
  // The frontier guard: the follow-up trigger prefetches NEW blocks only.
  EXPECT_TRUE(p3.async_reads.empty() ||
              p3.async_reads.front().offset >= 7 * 1024);
}

TEST(BlockCache, StridedReadahead) {
  CacheConfig cfg = small_config();
  cfg.capacity_bytes = 64 * 1024;
  cfg.readahead_window = 3;
  cfg.readahead_min_run = 2;
  MemStore store;
  store.files[1].resize(64 * 1024);
  BlockCache cache(cfg, store);
  AccessPlan plan;
  cache.read(1, 0, 1024, {}, plan);         // block 0
  cache.read(1, 4 * 1024, 1024, {}, plan);  // block 4: stride 4, run 1
  AccessPlan arm;
  cache.read(1, 8 * 1024, 1024, {}, arm);   // block 8: run 2 -> arms
  EXPECT_EQ(arm.readahead_blocks, 3u);
  // Strided prefetch: blocks 12, 16, 20 — disjoint, three disk ops.
  ASSERT_EQ(arm.async_reads.size(), 3u);
  EXPECT_EQ(arm.async_reads[0], (IoSeg{1, 12 * 1024, 1024}));
  EXPECT_EQ(arm.async_reads[1], (IoSeg{1, 16 * 1024, 1024}));
  EXPECT_EQ(arm.async_reads[2], (IoSeg{1, 20 * 1024, 1024}));

  AccessPlan probe;
  cache.read(1, 12 * 1024, 1024, {}, probe);
  EXPECT_EQ(probe.hits, 1u);
}

TEST(BlockCache, RescanAfterForwardPassStillGetsReadahead) {
  // Regression: a backward seek must reset the prefetch frontier, or a
  // second pass over a file (whose blocks were since evicted) runs with
  // readahead permanently disabled and every block is a synchronous miss.
  CacheConfig cfg = small_config();
  cfg.capacity_bytes = 8 * 1024;  // 8 blocks, smaller than the file
  cfg.readahead_window = 2;
  cfg.readahead_min_run = 2;
  MemStore store;
  store.files[1].resize(32 * 1024);  // 32 blocks
  BlockCache cache(cfg, store);
  auto scan = [&] {
    AccessPlan plan;
    for (int b = 0; b < 32; ++b) cache.read(1, b * 1024, 1024, {}, plan);
    return plan.readahead_blocks;
  };
  const std::uint64_t first = scan();
  EXPECT_GT(first, 0u);
  const std::uint64_t second = scan();
  EXPECT_GT(second, 0u) << "re-scan got no readahead: frontier not reset";
}

TEST(BlockCache, EvictionFlushesDirtyVictim) {
  CacheConfig cfg = small_config();
  cfg.block_bytes = 256;
  cfg.capacity_bytes = 4 * 256;
  cfg.dirty_watermark = 1.0;  // keep the watermark out of the way
  MemStore store;
  BlockCache cache(cfg, store);
  const auto data = pattern_bytes(256, 3);
  AccessPlan wp;
  cache.write(1, 0, 256, data, wp);  // block 0, dirty
  AccessPlan scan;
  for (int b = 1; b <= 4; ++b) {  // blocks 1..4: block 0 must be evicted
    cache.read(1, b * 256, 256, {}, scan);
  }
  EXPECT_GT(scan.evictions, 0u);
  ASSERT_FALSE(scan.async_writes.empty());  // the victim's flush
  EXPECT_EQ(scan.async_writes[0], (IoSeg{1, 0, 256}));
  std::vector<std::uint8_t> on_disk(256);
  store.read_at(1, 0, on_disk);
  EXPECT_EQ(on_disk, data);
  EXPECT_EQ(cache.dirty_bytes(), 0);
}

TEST(BlockCache, WatermarkFlushCoalescesOldestDirtyRun) {
  CacheConfig cfg = small_config();
  cfg.block_bytes = 256;
  cfg.capacity_bytes = 8 * 256;
  cfg.dirty_watermark = 0.25;  // mark at 512 dirty bytes
  MemStore store;
  BlockCache cache(cfg, store);
  const auto data = pattern_bytes(256, 5);
  AccessPlan wp;
  cache.write(1, 0, 256, data, wp);
  cache.write(1, 256, 256, data, wp);
  cache.write(1, 512, 256, data, wp);  // 768 dirty > 512 mark
  AccessPlan flush;
  cache.maybe_background_flush(flush);
  // Flushes oldest-first down to half the mark (256): blocks 0 and 1 go,
  // and being adjacent they coalesce into ONE disk op.
  EXPECT_EQ(cache.dirty_bytes(), 256);
  ASSERT_EQ(flush.async_writes.size(), 1u);
  EXPECT_EQ(flush.async_writes[0], (IoSeg{1, 0, 512}));
  EXPECT_EQ(flush.flushed_bytes, 512u);
}

TEST(BlockCache, DropAllLosesOnlyUnflushedDirty) {
  MemStore store;
  BlockCache cache(small_config(), store);
  const auto data = pattern_bytes(1024, 11);
  AccessPlan wp;
  cache.write(1, 0, 1024, data, wp);      // stays dirty
  cache.write(1, 1024, 1024, data, wp);   // flushed below
  AccessPlan fp;
  cache.flush_all(&fp);
  cache.write(1, 2048, 1024, data, wp);   // dirty again
  EXPECT_EQ(cache.dirty_bytes(), 1024);

  const std::uint64_t lost = cache.drop_all();
  EXPECT_EQ(lost, 1024u);
  EXPECT_EQ(cache.stats().dirty_lost_bytes, 1024u);
  EXPECT_EQ(cache.resident_blocks(), 0u);
  // The flushed blocks reached disk; the dropped one did not.
  std::vector<std::uint8_t> survived(1024);
  store.read_at(1, 1024, survived);
  EXPECT_EQ(survived, data);
  std::vector<std::uint8_t> gone(1024);
  store.read_at(1, 2048, gone);
  EXPECT_EQ(gone, std::vector<std::uint8_t>(1024, 0));
}

TEST(BlockCache, TimingOnlyRunsCarryNoBytes) {
  // Benches run with carry_data off: empty spans must keep all counters
  // and plans working without allocating staged data.
  MemStore store;
  BlockCache cache(small_config(), store);
  AccessPlan plan;
  cache.write(1, 0, 4096, {}, plan);
  cache.read(1, 0, 4096, {}, plan);
  EXPECT_EQ(plan.hits, 4u);  // the read finds the written blocks resident
  EXPECT_EQ(cache.dirty_bytes(), 4096);
  AccessPlan fp;
  cache.flush_all(&fp);
  EXPECT_EQ(fp.flushed_bytes, 4096u);
  EXPECT_TRUE(store.writes.empty());  // no real bytes anywhere
}

// ---- Cluster integration ---------------------------------------------------

net::ClusterConfig cached_config() {
  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 1;
  cfg.strip_size = 4096;
  cfg.server.cache_block_bytes = 1024;
  cfg.server.cache_capacity_bytes = 256 * 1024;
  return cfg;
}

TEST(CacheCluster, WarmReadsHitAndObsCountersFlow) {
  auto cfg = cached_config();
  pfs::Cluster cluster(cfg);
  obs::Observability obs;
  cluster.set_observability(&obs);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(64 * 1024, 77);

  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/warm");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        for (int pass = 0; pass < 2; ++pass) {
          std::vector<std::uint8_t> back(src.size());
          Status r = co_await c.read_contig(
              f.handle, 0, back.data(),
              static_cast<std::int64_t>(back.size()));
          EXPECT_TRUE(r.is_ok()) << r.to_string();
          EXPECT_EQ(back, src) << "pass " << pass;
        }
        done = true;
      }(*client, data, finished));
  cluster.run();
  EXPECT_TRUE(finished);

  const pfs::ServerStats total = cluster.cache_stats_total();
  // The write populated the cache, so even the first read pass hits; the
  // second pass is all hits — across both passes hits dominate misses.
  EXPECT_GT(total.cache_hits, 0u);
  EXPECT_GT(total.cache_hits, total.cache_misses);
  // Write-back: the written data is staged dirty (under the watermark, so
  // no flush has been forced yet) — it either sits dirty or was flushed.
  std::int64_t staged = 0;
  for (int s = 0; s < cfg.num_servers; ++s) {
    ASSERT_NE(cluster.server(s).block_cache(), nullptr);
    staged += cluster.server(s).block_cache()->dirty_bytes();
  }
  EXPECT_GT(static_cast<std::uint64_t>(staged) +
                total.cache_dirty_flushed_bytes,
            0u);
  cluster.publish_metrics();
  EXPECT_EQ(obs.metrics.counter_total("server_cache_hits_total"),
            total.cache_hits);
  EXPECT_EQ(obs.metrics.counter_total("server_cache_misses_total"),
            total.cache_misses);
}

TEST(CacheCluster, WarmPassSavesDiskAccesses) {
  // The acceptance shape in miniature: a cold read pass then a warm one,
  // cache on vs off; warm-pass disk accesses must collapse with the cache.
  auto run = [](bool cache_on) {
    auto cfg = cached_config();
    if (!cache_on) {
      cfg.server.cache_block_bytes = 0;
      cfg.server.cache_capacity_bytes = 0;
    }
    pfs::Cluster cluster(cfg);
    auto client = cluster.make_client(0);
    std::uint64_t cold = 0, warm = 0;
    cluster.scheduler().spawn(
        [](pfs::Cluster& cluster, Client& c, std::uint64_t& cold,
           std::uint64_t& warm) -> Task<void> {
          MetaResult f = co_await c.create("/passes");
          EXPECT_TRUE(f.status.is_ok());
          Status w = co_await c.write_contig(f.handle, 0, nullptr, 128 * 1024);
          EXPECT_TRUE(w.is_ok());
          const std::uint64_t before = cluster.cache_stats_total().disk_accesses;
          Status r1 = co_await c.read_contig(f.handle, 0, nullptr, 128 * 1024);
          EXPECT_TRUE(r1.is_ok());
          const std::uint64_t mid = cluster.cache_stats_total().disk_accesses;
          Status r2 = co_await c.read_contig(f.handle, 0, nullptr, 128 * 1024);
          EXPECT_TRUE(r2.is_ok());
          cold = mid - before;
          warm = cluster.cache_stats_total().disk_accesses - mid;
        }(cluster, *client, cold, warm));
    cluster.run();
    return std::make_pair(cold, warm);
  };
  const auto [on_cold, on_warm] = run(true);
  const auto [off_cold, off_warm] = run(false);
  EXPECT_GT(off_warm, 0u);
  // Cache on: the write left every block resident, so both passes are
  // warm; cache off re-reads from disk every time.
  EXPECT_EQ(on_warm, 0u);
  EXPECT_GE(off_warm, 4 * std::max<std::uint64_t>(on_warm, 1));
  EXPECT_LT(on_cold + on_warm, off_cold + off_warm);
}

TEST(CacheCluster, CacheOffLeavesStatsUntouched) {
  net::ClusterConfig cfg;  // defaults: cache off
  pfs::Cluster cluster(cfg);
  EXPECT_EQ(cluster.server(0).block_cache(), nullptr);
  auto client = cluster.make_client(0);
  bool finished = false;
  cluster.scheduler().spawn([](Client& c, bool& done) -> Task<void> {
    MetaResult f = co_await c.create("/off");
    EXPECT_TRUE(f.status.is_ok());
    Status w = co_await c.write_contig(f.handle, 0, nullptr, 4096);
    EXPECT_TRUE(w.is_ok());
    done = true;
  }(*client, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  const pfs::ServerStats total = cluster.cache_stats_total();
  EXPECT_EQ(total.cache_hits, 0u);
  EXPECT_EQ(total.cache_misses, 0u);
  EXPECT_GT(total.disk_accesses, 0u);  // direct charges still tally
}

// ---- Disk accounting per handler -------------------------------------------

enum class Handler { kContig, kList, kDatatype, kBatch };

struct DiskCharge {
  std::uint64_t disk_accesses = 0;
  std::uint64_t disk_bytes = 0;
  SimTime end = 0;
  std::vector<obs::Phase> disk_phases;  ///< distinct, in first-seen order
};

/// One write then one read (the batch handler only writes) through
/// `handler` on a two-server cluster: cache off, or a write-through cache.
DiskCharge run_disk_charge(Handler handler, bool write_through) {
  net::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 1;
  cfg.strip_size = 4096;
  if (write_through) {
    cfg.server.cache_block_bytes = 1024;
    cfg.server.cache_capacity_bytes = 256 * 1024;
    cfg.server.cache_write_through = true;
  }
  if (handler == Handler::kBatch) cfg.client.write_behind_bytes = 1024 * 1024;
  pfs::Cluster cluster(cfg);
  obs::Observability obs;
  cluster.set_observability(&obs);
  auto client = cluster.make_client(0);
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, Handler h, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/charge");
        EXPECT_TRUE(f.status.is_ok());
        // 100 KiB strided over both servers' strips, shaped per handler.
        const std::vector<Region> regions{
            {100, 30000}, {40000, 20000}, {70000, 50400}};
        auto loop = dl::make_vector(25, 2048, 4096, dl::make_leaf(2));
        switch (h) {
          case Handler::kContig:
            EXPECT_TRUE(
                (co_await c.write_contig(f.handle, 100, nullptr, 100400))
                    .is_ok());
            EXPECT_TRUE(
                (co_await c.read_contig(f.handle, 100, nullptr, 100400))
                    .is_ok());
            break;
          case Handler::kList:
            EXPECT_TRUE(
                (co_await c.write_list(f.handle, regions, nullptr)).is_ok());
            EXPECT_TRUE(
                (co_await c.read_list(f.handle, regions, nullptr)).is_ok());
            break;
          case Handler::kDatatype:
            EXPECT_TRUE((co_await c.write_datatype(f.handle, loop, 100, 1, 0,
                                                   loop->size, nullptr))
                            .is_ok());
            EXPECT_TRUE((co_await c.read_datatype(f.handle, loop, 100, 1, 0,
                                                  loop->size, nullptr))
                            .is_ok());
            break;
          case Handler::kBatch:
            for (const Region& r : regions) {
              EXPECT_TRUE(
                  (co_await c.write_contig(f.handle, r.offset, nullptr,
                                           r.length))
                      .is_ok());
            }
            EXPECT_TRUE((co_await c.flush_write_behind()).is_ok());
            break;
        }
        done = true;
      }(*client, handler, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  DiskCharge out;
  const pfs::ServerStats total = cluster.cache_stats_total();
  out.disk_accesses = total.disk_accesses;
  out.disk_bytes = total.disk_bytes;
  out.end = cluster.scheduler().now();
  for (const obs::Span& s : obs.spans.spans()) {
    if (s.name == "disk" &&
        std::find(out.disk_phases.begin(), out.disk_phases.end(), s.phase) ==
            out.disk_phases.end()) {
      out.disk_phases.push_back(s.phase);
    }
  }
  return out;
}

TEST(DiskCharge, EachHandlerPinsItsDiskAccounting) {
  // Exact figures: a change to how the handlers charge the disk must leave
  // every access, byte and nanosecond where it was. Direct charges are
  // kServerDisk; a write-through cache's sync segments are kServerCache.
  struct Case {
    Handler handler;
    bool write_through;
    DiskCharge want;
  };
  const obs::Phase disk = obs::Phase::kServerDisk;
  const obs::Phase cache = obs::Phase::kServerCache;
  const Case cases[] = {
      {Handler::kContig, false, {4, 200800, 33966326, {disk}}},
      {Handler::kContig, true, {2, 100400, 32003826, {cache}}},
      {Handler::kList, false, {4, 200800, 33875704, {disk}}},
      {Handler::kList, true, {10, 117808, 32727828, {cache}}},
      {Handler::kDatatype, false, {4, 204800, 34417407, {disk}}},
      {Handler::kDatatype, true, {2, 102400, 32451728, {cache}}},
      {Handler::kBatch, false, {2, 100400, 17931641, {disk}}},
      {Handler::kBatch, true, {6, 100400, 18731642, {cache}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "handler " << static_cast<int>(c.handler)
                 << (c.write_through ? " write-through" : " cache off"));
    const DiskCharge got = run_disk_charge(c.handler, c.write_through);
    EXPECT_EQ(got.disk_accesses, c.want.disk_accesses);
    EXPECT_EQ(got.disk_bytes, c.want.disk_bytes);
    EXPECT_EQ(got.end, c.want.end);
    EXPECT_EQ(got.disk_phases, c.want.disk_phases);
  }
}

}  // namespace
}  // namespace dtio
