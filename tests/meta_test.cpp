// Scale-out metadata subsystem: shard routing and handle encoding, the
// striped byte-range lock table, the per-file layout policy, and the
// end-to-end behaviour of a sharded cluster — namespace spreading,
// typed stale-handle stats, lock mutual exclusion / FIFO / crash
// re-grant, durable namespaces, and a randomized N-shard vs 1-shard
// equivalence oracle (the sharded service must be observationally
// identical to the legacy single metadata server, crash included).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "meta/layout_policy.h"
#include "meta/lock_table.h"
#include "meta/shard_map.h"
#include "obs/observability.h"
#include "pfs/cluster.h"
#include "pfs/layout.h"

namespace dtio {
namespace {

using sim::Task;

// ---- ShardMap --------------------------------------------------------------

TEST(ShardMap, OneShardDegeneratesToLegacy) {
  meta::ShardMap one(1);
  EXPECT_EQ(one.shards(), 1);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_EQ(one.encode_handle(seq, 0), seq);  // legacy 1, 2, 3…
    EXPECT_EQ(one.shard_of_handle(seq), 0);
  }
  EXPECT_EQ(one.shard_of_path("/any/path"), 0);
  EXPECT_EQ(one.shard_of_stripe(17), 0);
  EXPECT_EQ(meta::ShardMap(0).shards(), 1);  // clamped up
  EXPECT_EQ(meta::ShardMap(-3).shards(), 1);
}

TEST(ShardMap, HandleEncodingRoundTrips) {
  meta::ShardMap map(4);
  for (int shard = 0; shard < 4; ++shard) {
    for (std::uint64_t seq = 1; seq <= 100; ++seq) {
      const std::uint64_t h = map.encode_handle(seq, shard);
      EXPECT_EQ(map.shard_of_handle(h), shard);
      EXPECT_NE(h, 0u);
    }
  }
  // Distinct (seq, shard) pairs produce distinct handles.
  EXPECT_NE(map.encode_handle(1, 0), map.encode_handle(1, 1));
  EXPECT_NE(map.encode_handle(1, 3), map.encode_handle(2, 0));
}

TEST(ShardMap, PathRoutingIsDeterministicAndCovers) {
  meta::ShardMap map(4);
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 64; ++i) {
    const std::string path = "/dir/file" + std::to_string(i);
    const int s = map.shard_of_path(path);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
    EXPECT_EQ(map.shard_of_path(path), s);  // stable
    ++hits[static_cast<std::size_t>(s)];
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(hits[static_cast<std::size_t>(s)], 0)
        << "64 paths left shard " << s << " empty";
  }
}

TEST(ShardMap, StripesOfCoversExactlyTheRange) {
  // Degenerate inputs: no stripes.
  EXPECT_TRUE(meta::stripes_of(0, 0, 4096).empty());
  EXPECT_TRUE(meta::stripes_of(100, 50, 0).empty());
  EXPECT_TRUE(meta::stripes_of(-1, 10, 4096).empty());
  // Within one stripe.
  meta::StripeSpan s = meta::stripes_of(100, 200, 4096);
  EXPECT_EQ(s.first, 0);
  EXPECT_EQ(s.last, 0);
  EXPECT_EQ(s.count(), 1);
  // Exactly stripe-aligned range [4096, 12288) = stripes 1..2.
  s = meta::stripes_of(4096, 8192, 4096);
  EXPECT_EQ(s.first, 1);
  EXPECT_EQ(s.last, 2);
  // One byte over a boundary pulls in the next stripe.
  s = meta::stripes_of(4095, 2, 4096);
  EXPECT_EQ(s.first, 0);
  EXPECT_EQ(s.last, 1);
}

// ---- LockTable -------------------------------------------------------------

TEST(LockTable, GrantsImmediatelyThenParksFifo) {
  meta::LockTable table;
  EXPECT_TRUE(table.acquire(7, 0, {100, 1}));
  EXPECT_FALSE(table.acquire(7, 0, {101, 2}));
  EXPECT_FALSE(table.acquire(7, 0, {102, 3}));
  EXPECT_TRUE(table.acquire(7, 1, {103, 4}));  // different stripe: free
  EXPECT_TRUE(table.acquire(8, 0, {104, 5}));  // different handle: free
  EXPECT_EQ(table.held(), 3u);
  EXPECT_EQ(table.parked(), 2u);

  // Release hands the stripe to waiters in FIFO order.
  auto next = table.release(7, 0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->client_node, 101);
  next = table.release(7, 0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->client_node, 102);
  next = table.release(7, 0);
  EXPECT_FALSE(next.has_value());  // queue drained, stripe now free
  EXPECT_TRUE(table.acquire(7, 0, {105, 6}));
}

TEST(LockTable, ReleasingUnheldIsANoOp) {
  meta::LockTable table;
  EXPECT_FALSE(table.release(1, 0).has_value());
  EXPECT_EQ(table.held(), 0u);
}

TEST(LockTable, InvalidateDrainsDeterministically) {
  meta::LockTable table;
  EXPECT_TRUE(table.acquire(2, 5, {1, 10}));
  EXPECT_FALSE(table.acquire(2, 5, {2, 20}));
  EXPECT_FALSE(table.acquire(2, 5, {3, 30}));
  EXPECT_TRUE(table.acquire(1, 9, {4, 40}));
  EXPECT_FALSE(table.acquire(1, 9, {5, 50}));

  const auto parked = table.invalidate();
  EXPECT_EQ(table.held(), 0u);
  EXPECT_EQ(table.parked(), 0u);
  // (key ascending, FIFO within key): (1,9)/node4's waiter first, then
  // (2,5)'s two waiters in arrival order.
  ASSERT_EQ(parked.size(), 3u);
  EXPECT_EQ(parked[0].first, (meta::LockTable::Key{1, 9}));
  EXPECT_EQ(parked[0].second.client_node, 5);
  EXPECT_EQ(parked[1].first, (meta::LockTable::Key{2, 5}));
  EXPECT_EQ(parked[1].second.client_node, 2);
  EXPECT_EQ(parked[2].second.client_node, 3);
  // Post-invalidate the table serves a fresh lock space.
  EXPECT_TRUE(table.acquire(2, 5, {6, 60}));
}

// ---- choose_layout ---------------------------------------------------------

net::ClusterConfig layout_config() {
  net::ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.per_file_layouts = true;
  cfg.layout_small_file_bytes = 256 * kKiB;
  cfg.layout_small_servers = 2;
  return cfg;
}

TEST(LayoutPolicy, GlobalUnlessHintedSmall) {
  net::ClusterConfig cfg = layout_config();
  EXPECT_TRUE(meta::choose_layout(cfg, "/f", 0).is_global());  // no hint
  EXPECT_TRUE(meta::choose_layout(cfg, "/f", 512 * kKiB).is_global());
  cfg.per_file_layouts = false;  // feature off: always global
  EXPECT_TRUE(meta::choose_layout(cfg, "/f", 4 * kKiB).is_global());
}

TEST(LayoutPolicy, SmallHintNarrowsDeterministically) {
  const net::ClusterConfig cfg = layout_config();
  const meta::LayoutSpec spec = meta::choose_layout(cfg, "/f", 64 * kKiB);
  EXPECT_FALSE(spec.is_global());
  EXPECT_EQ(spec.servers, 2);
  EXPECT_EQ(spec.strip, static_cast<std::int64_t>(cfg.strip_size));
  EXPECT_GE(spec.start, 0);
  EXPECT_LT(spec.start, cfg.num_servers);
  EXPECT_EQ(spec, meta::choose_layout(cfg, "/f", 64 * kKiB));  // stable
}

TEST(LayoutPolicy, StartSpreadsAcrossCluster) {
  const net::ClusterConfig cfg = layout_config();
  std::vector<int> hits(static_cast<std::size_t>(cfg.num_servers), 0);
  for (int i = 0; i < 64; ++i) {
    const meta::LayoutSpec spec = meta::choose_layout(
        cfg, "/small/" + std::to_string(i), 4 * kKiB);
    EXPECT_FALSE(spec.is_global());
    ++hits[static_cast<std::size_t>(spec.start)];
  }
  int populated = 0;
  for (const int h : hits) populated += h > 0 ? 1 : 0;
  EXPECT_GE(populated, cfg.num_servers / 2)
      << "small files should start on many different servers";
}

TEST(LayoutPolicy, NoNarrowingWhenServersCoverCluster) {
  net::ClusterConfig cfg = layout_config();
  cfg.layout_small_servers = 8;  // == num_servers: nothing to narrow
  EXPECT_TRUE(meta::choose_layout(cfg, "/f", 4 * kKiB).is_global());
  cfg.layout_small_servers = 99;  // clamped to num_servers
  EXPECT_TRUE(meta::choose_layout(cfg, "/f", 4 * kKiB).is_global());
}

// ---- FileLayout (narrow per-file form) -------------------------------------

TEST(FileLayoutNarrow, SlotMappingRoundTrips) {
  // 2 servers of an 8-server cluster, starting at server 6: slots wrap.
  const pfs::FileLayout lay(2, 4 * kKiB, 6, 8);
  EXPECT_EQ(lay.server_of_slot(0), 6);
  EXPECT_EQ(lay.server_of_slot(1), 7);
  EXPECT_EQ(lay.slot_of_server(6), 0);
  EXPECT_EQ(lay.slot_of_server(7), 1);
  for (const int outside : {0, 1, 2, 3, 4, 5}) {
    EXPECT_EQ(lay.slot_of_server(outside), -1);
  }
  const pfs::FileLayout wrap(3, kKiB, 7, 8);
  EXPECT_EQ(wrap.server_of_slot(0), 7);
  EXPECT_EQ(wrap.server_of_slot(1), 0);
  EXPECT_EQ(wrap.server_of_slot(2), 1);
  EXPECT_EQ(wrap.slot_of_server(1), 2);
}

TEST(FileLayoutNarrow, PlaceAndLogicalAreInverse) {
  const pfs::FileLayout lay(3, kKiB, 5, 8);
  for (std::int64_t off = 0; off < std::int64_t{16 * kKiB}; off += 317) {
    const pfs::FileLayout::Placement p = lay.place(off);
    EXPECT_GE(lay.slot_of_server(p.server), 0) << "byte landed off-stripe";
    EXPECT_EQ(lay.logical(p.server, p.physical), off);
  }
}

TEST(FileLayoutNarrow, MapRegionsStaysOnFileServers) {
  const pfs::FileLayout lay(2, kKiB, 3, 8);
  std::int64_t covered = 0;
  pfs::StripMapper(lay).map(Region{100, 10 * kKiB},
                            [&](int server, Region r, std::int64_t) {
                              EXPECT_TRUE(server == 3 || server == 4);
                              covered += r.length;
                            });
  EXPECT_EQ(covered, 10 * kKiB);
}

// ---- End-to-end: sharded namespace -----------------------------------------

TEST(MetaSharding, NamespaceSpreadsAndRoutesConsistently) {
  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 2;
  cfg.meta_shards = 4;
  pfs::Cluster cluster(cfg);
  auto c0 = cluster.make_client(0);
  auto c1 = cluster.make_client(1);

  const meta::ShardMap map(4);
  bool done = false;
  cluster.scheduler().spawn(
      [](pfs::Client& a, pfs::Client& b, const meta::ShardMap& m,
         bool& ok) -> Task<void> {
        ok = true;
        for (int i = 0; i < 32; ++i) {
          const std::string path = "/ns/f" + std::to_string(i);
          const pfs::MetaResult created = co_await a.create(path);
          ok = ok && created.status.is_ok();
          // The handle encodes the shard that owns the path.
          ok = ok && m.shard_of_handle(created.handle) == m.shard_of_path(path);
          // A different client resolves the same handle.
          const pfs::MetaResult opened = co_await b.open(path);
          ok = ok && opened.status.is_ok() && opened.handle == created.handle;
        }
        // Remove makes the name unresolvable with a typed error.
        ok = ok && (co_await a.remove("/ns/f0")).status.is_ok();
        const pfs::MetaResult gone = co_await b.open("/ns/f0");
        ok = ok && !gone.status.is_ok() &&
             gone.status.code() == StatusCode::kNotFound;
      }(*c0, *c1, map, done));
  cluster.run();
  EXPECT_TRUE(done);

  // Every shard served namespace traffic; data-only servers none.
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(cluster.server(s).stats().meta_ops(), 0u) << "shard " << s;
  }
}

TEST(MetaSharding, StaleHandleStatIsTypedNotFound) {
  for (const int shards : {1, 2}) {
    net::ClusterConfig cfg;
    cfg.num_servers = 2;
    cfg.num_clients = 1;
    cfg.meta_shards = shards;
    pfs::Cluster cluster(cfg);
    auto client = cluster.make_client(0);
    bool done = false;
    cluster.scheduler().spawn(
        [](pfs::Client& c, bool& ok) -> Task<void> {
          const pfs::MetaResult f = co_await c.create("/stale");
          ok = f.status.is_ok();
          ok = ok && (co_await c.stat_handle(f.handle)).status.is_ok();
          ok = ok && (co_await c.remove("/stale")).status.is_ok();
          const pfs::MetaResult stale = co_await c.stat_handle(f.handle);
          ok = ok && !stale.status.is_ok() &&
               stale.status.code() == StatusCode::kNotFound;
          // A handle no shard ever issued is equally dead.
          const pfs::MetaResult never = co_await c.stat_handle(9999);
          ok = ok && !never.status.is_ok() &&
               never.status.code() == StatusCode::kNotFound;
        }(*client, done));
    cluster.run();
    EXPECT_TRUE(done) << shards << " shard(s)";
  }
}

TEST(MetaSharding, NamespaceSurvivesShardCrash) {
  net::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 1;
  cfg.meta_shards = 2;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);

  std::vector<std::uint64_t> handles;
  cluster.scheduler().spawn(
      [](pfs::Client& c, std::vector<std::uint64_t>& out) -> Task<void> {
        for (int i = 0; i < 8; ++i) {
          const pfs::MetaResult f =
              co_await c.create("/crash/f" + std::to_string(i));
          EXPECT_TRUE(f.status.is_ok());
          out.push_back(f.handle);
        }
      }(*client, handles));
  cluster.run();
  ASSERT_EQ(handles.size(), 8u);

  // Both shards crash and come back; the namespace is durable state.
  cluster.schedule_server_crash(0, cluster.scheduler().now() + kMillisecond,
                                2 * kMillisecond);
  cluster.schedule_server_crash(1, cluster.scheduler().now() + kMillisecond,
                                2 * kMillisecond);
  cluster.run();

  bool done = false;
  cluster.scheduler().spawn(
      [](pfs::Client& c, const std::vector<std::uint64_t>& want,
         bool& ok) -> Task<void> {
        ok = true;
        for (int i = 0; i < 8; ++i) {
          const pfs::MetaResult f =
              co_await c.open("/crash/f" + std::to_string(i));
          ok = ok && f.status.is_ok() &&
               f.handle == want[static_cast<std::size_t>(i)];
        }
      }(*client, handles, done));
  cluster.run();
  EXPECT_TRUE(done);
}

// ---- End-to-end: striped locks ---------------------------------------------

TEST(StripedLocks, MutualExclusionUnderContention) {
  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 4;
  cfg.meta_shards = 4;
  cfg.lock_stripe_bytes = 4 * kKiB;
  cfg.file_locking = true;
  pfs::Cluster cluster(cfg);
  std::vector<std::unique_ptr<pfs::Client>> clients;
  for (int r = 0; r < 4; ++r) clients.push_back(cluster.make_client(r));

  std::uint64_t shared_handle = 0;
  cluster.scheduler().spawn(
      [](pfs::Client& c, std::uint64_t& h) -> Task<void> {
        h = (co_await c.create("/mutex")).handle;
      }(*clients[0], shared_handle));
  cluster.run();
  EXPECT_NE(shared_handle, 0u);

  // Racy read-delay-write increments stay exact only under a real lock.
  constexpr int kIters = 16;
  std::int64_t counter = 0;
  int completed = 0;
  for (int r = 0; r < 4; ++r) {
    cluster.scheduler().spawn(
        [](pfs::Client& c, sim::Scheduler& sched, std::uint64_t h,
           std::int64_t& n, int& fin, int rank) -> Task<void> {
          for (int i = 0; i < kIters; ++i) {
            EXPECT_TRUE((co_await c.lock_range(h, 0, kKiB)).is_ok());
            const std::int64_t seen = n;
            co_await sched.delay(100 * (1 + (rank + i) % 3));
            n = seen + 1;
            EXPECT_TRUE((co_await c.unlock_range(h, 0, kKiB)).is_ok());
          }
          ++fin;
        }(*clients[r], cluster.scheduler(), shared_handle, counter, completed,
          r));
  }
  cluster.run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(counter, 4 * kIters) << "lost update: lock is not exclusive";
  std::uint64_t waits = 0;
  for (int s = 0; s < 4; ++s) waits += cluster.server(s).stats().lock_waits;
  EXPECT_GT(waits, 0u) << "the storm never actually contended";
}

TEST(StripedLocks, OverlappingMultiStripeRangesDoNotDeadlock) {
  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 2;
  cfg.meta_shards = 4;
  cfg.lock_stripe_bytes = 4 * kKiB;
  cfg.file_locking = true;
  pfs::Cluster cluster(cfg);
  auto a = cluster.make_client(0);
  auto b = cluster.make_client(1);

  std::uint64_t h = 0;
  cluster.scheduler().spawn([](pfs::Client& c, std::uint64_t& out)
                                -> Task<void> {
    out = (co_await c.create("/dl")).handle;
  }(*a, h));
  cluster.run();

  // Ranges overlap on stripes {1, 2}; clients name them from different
  // starting stripes. Ascending per-stripe acquisition means whoever wins
  // the first shared stripe wins them all — no circular wait is possible.
  int completed = 0;
  const auto storm = [](pfs::Client& c, std::uint64_t handle,
                        std::int64_t base, int& fin) -> Task<void> {
    for (int i = 0; i < 24; ++i) {
      EXPECT_TRUE(
          (co_await c.lock_range(handle, base, 12 * kKiB)).is_ok());
      EXPECT_TRUE(
          (co_await c.unlock_range(handle, base, 12 * kKiB)).is_ok());
    }
    ++fin;
  };
  cluster.scheduler().spawn(storm(*a, h, 0, completed));
  cluster.scheduler().spawn(storm(*b, h, 4 * kKiB, completed));
  cluster.run();
  EXPECT_EQ(completed, 2) << "a storm coroutine is still parked: deadlock";
}

TEST(StripedLocks, CrashInvalidatesAndRegrantsWaiters) {
  // Both lock granularities share one table and one crash rule: a striped
  // lock (4 KiB stripes) and a whole-file lock (striping off, stripe -1).
  for (const std::int64_t stripe_bytes : {std::int64_t{4 * kKiB},
                                          std::int64_t{0}}) {
    SCOPED_TRACE(stripe_bytes > 0 ? "striped" : "whole-file");
    net::ClusterConfig cfg;
    cfg.num_servers = 2;
    cfg.num_clients = 2;
    cfg.meta_shards = 2;
    cfg.lock_stripe_bytes = stripe_bytes;
    cfg.file_locking = true;
    pfs::Cluster cluster(cfg);
    auto holder = cluster.make_client(0);
    auto waiter = cluster.make_client(1);

    std::uint64_t h = 0;
    cluster.scheduler().spawn([](pfs::Client& c, std::uint64_t& out)
                                  -> Task<void> {
      out = (co_await c.create("/regrant")).handle;
    }(*holder, h));
    cluster.run();

    // Stripe 0 lives on shard 0; the whole-file lock on the handle's
    // owning shard. The holder sits on the lock across the crash window;
    // the waiter parks, the shard crashes, and the restart re-grant hands
    // the invalidated lock to the parked waiter.
    const int shard = stripe_bytes > 0
                          ? 0
                          : meta::ShardMap(cfg.meta_shards).shard_of_handle(h);
    int done = 0;
    cluster.scheduler().spawn(
        [](pfs::Client& c, sim::Scheduler& sched, std::uint64_t handle,
           int& fin) -> Task<void> {
          EXPECT_TRUE((co_await c.lock_range(handle, 0, kKiB)).is_ok());
          co_await sched.delay(50 * kMillisecond);
          // Unlock after restart: the lock was invalidated, so this is the
          // documented safe no-op.
          EXPECT_TRUE((co_await c.unlock_range(handle, 0, kKiB)).is_ok());
          ++fin;
        }(*holder, cluster.scheduler(), h, done));
    cluster.scheduler().spawn(
        [](pfs::Client& c, sim::Scheduler& sched, std::uint64_t handle,
           int& fin) -> Task<void> {
          co_await sched.delay(kMillisecond);
          EXPECT_TRUE((co_await c.lock_range(handle, 0, kKiB)).is_ok());
          EXPECT_TRUE((co_await c.unlock_range(handle, 0, kKiB)).is_ok());
          ++fin;
        }(*waiter, cluster.scheduler(), h, done));
    cluster.schedule_server_crash(/*index=*/shard, /*at=*/10 * kMillisecond,
                                  /*restart_delay=*/5 * kMillisecond);
    cluster.run();
    EXPECT_EQ(done, 2);
    EXPECT_GE(cluster.server(shard).stats().lock_regrants, 1u);
  }
}

// ---- End-to-end: per-file layouts ------------------------------------------

TEST(PerFileLayouts, SmallFileNarrowsAndRoundTripsBytes) {
  net::ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 2;
  cfg.strip_size = 4 * kKiB;
  cfg.per_file_layouts = true;
  cfg.layout_small_file_bytes = 256 * kKiB;
  cfg.layout_small_servers = 1;
  pfs::Cluster cluster(cfg);
  auto writer = cluster.make_client(0);
  auto reader = cluster.make_client(1);

  std::vector<std::uint8_t> payload(64 * kKiB);
  Rng rng(7);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());

  bool done = false;
  cluster.scheduler().spawn(
      [](pfs::Client& w, pfs::Client& r, const net::ClusterConfig& cc,
         const std::vector<std::uint8_t>& data, bool& ok) -> Task<void> {
        const auto bytes = static_cast<std::int64_t>(data.size());
        const pfs::MetaResult f = co_await w.create("/small", bytes);
        EXPECT_TRUE(f.status.is_ok());
        // Create reply carried the narrowed layout.
        EXPECT_EQ(w.layout_for(f.handle).num_servers(), 1);
        EXPECT_TRUE(
            (co_await w.write_contig(f.handle, 0, data.data(), bytes))
                .is_ok());
        // An independent client learns the same layout from open, reads
        // the same bytes, and stat agrees on the logical size.
        const pfs::MetaResult o = co_await r.open("/small");
        EXPECT_TRUE(o.status.is_ok());
        EXPECT_EQ(r.layout_for(o.handle).num_servers(), 1);
        EXPECT_EQ(r.layout_for(o.handle).start_server(),
                  w.layout_for(f.handle).start_server());
        std::vector<std::uint8_t> back(data.size(), 0);
        EXPECT_TRUE(
            (co_await r.read_contig(o.handle, 0, back.data(), bytes))
                .is_ok());
        EXPECT_EQ(back, data);
        const pfs::MetaResult st = co_await r.stat_handle(o.handle);
        EXPECT_TRUE(st.status.is_ok());
        EXPECT_EQ(st.size, bytes);
        (void)cc;
        ok = true;
      }(*writer, *reader, cfg, payload, done));
  cluster.run();
  EXPECT_TRUE(done);

  // The 64 KiB file landed on exactly one server's bstream, not eight.
  int populated = 0;
  for (int s = 0; s < cfg.num_servers; ++s) {
    populated += cluster.server(s).stats().bytes_written > 0 ? 1 : 0;
  }
  EXPECT_EQ(populated, 1);
}

TEST(PerFileLayouts, UnhintedAndLargeFilesKeepGlobalLayout) {
  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 1;
  cfg.strip_size = 4 * kKiB;
  cfg.per_file_layouts = true;
  cfg.layout_small_file_bytes = 64 * kKiB;
  cfg.layout_small_servers = 1;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  bool done = false;
  cluster.scheduler().spawn(
      [](pfs::Client& c, bool& ok) -> Task<void> {
        const pfs::MetaResult unhinted = co_await c.create("/unhinted");
        EXPECT_TRUE(unhinted.status.is_ok());
        EXPECT_EQ(c.layout_for(unhinted.handle).num_servers(), 4);
        const pfs::MetaResult large =
            co_await c.create("/large", 4 * kMiB);
        EXPECT_TRUE(large.status.is_ok());
        EXPECT_EQ(c.layout_for(large.handle).num_servers(), 4);
        ok = true;
      }(*client, done));
  cluster.run();
  EXPECT_TRUE(done);
}

// ---- Observability ---------------------------------------------------------

TEST(MetaObs, PerShardCountersOnlyWhenSharded) {
  for (const int shards : {1, 4}) {
    net::ClusterConfig cfg;
    cfg.num_servers = 4;
    cfg.num_clients = 1;
    cfg.meta_shards = shards;
    cfg.lock_stripe_bytes = 4 * kKiB;
    cfg.file_locking = true;
    pfs::Cluster cluster(cfg);
    obs::Observability obs(1 << 14);
    cluster.set_observability(&obs);
    auto client = cluster.make_client(0);
    bool done = false;
    cluster.scheduler().spawn(
        [](pfs::Client& c, bool& ok) -> Task<void> {
          for (int i = 0; i < 8; ++i) {
            const std::string path = "/obs/f" + std::to_string(i);
            const pfs::MetaResult f = co_await c.create(path);
            EXPECT_TRUE(f.status.is_ok());
            EXPECT_TRUE((co_await c.lock_range(f.handle, 0, kKiB)).is_ok());
            EXPECT_TRUE(
                (co_await c.unlock_range(f.handle, 0, kKiB)).is_ok());
            EXPECT_TRUE((co_await c.remove(path)).status.is_ok());
          }
          ok = true;
        }(*client, done));
    cluster.run();
    EXPECT_TRUE(done);

    std::uint64_t stats_total = 0;
    std::uint64_t waits_total = 0;
    for (int s = 0; s < 4; ++s) {
      stats_total += cluster.server(s).stats().meta_ops();
      waits_total += cluster.server(s).stats().lock_waits;
    }
    cluster.publish_metrics();
    EXPECT_EQ(obs.metrics.counter_total("meta_ops_total"), stats_total);
    EXPECT_EQ(obs.metrics.counter_total("meta_lock_waits_total"), waits_total);
    if (shards == 1) {
      // Only server 0 serves metadata; the others publish zero rows.
      EXPECT_EQ(stats_total, cluster.server(0).stats().meta_ops());
    }
  }
}

// ---- Randomized equivalence: N shards vs the 1-shard oracle ----------------

struct EquivResult {
  std::vector<std::string> log;      ///< per-rank op outcomes, concatenated
  std::vector<std::uint8_t> bytes;   ///< final shared-file image
  bool operator==(const EquivResult&) const = default;
};

/// One deterministic mixed meta + lock + I/O run. Everything observable —
/// status codes, stat sizes, layout widths, final file bytes — must be
/// independent of meta_shards; only handles (whose encoding is shard-
/// aware by design) and timing may differ.
EquivResult run_equivalence(int meta_shards, int seed) {
  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 3;
  cfg.strip_size = 4 * kKiB;
  cfg.meta_shards = meta_shards;
  cfg.lock_stripe_bytes = 8 * kKiB;
  cfg.file_locking = true;
  cfg.per_file_layouts = true;
  cfg.layout_small_file_bytes = 32 * kKiB;
  cfg.layout_small_servers = 1;
  pfs::Cluster cluster(cfg);
  std::vector<std::unique_ptr<pfs::Client>> clients;
  for (int r = 0; r < cfg.num_clients; ++r) {
    clients.push_back(cluster.make_client(r));
  }

  constexpr std::int64_t kRankSpan = 64 * kKiB;
  std::uint64_t shared = 0;
  cluster.scheduler().spawn(
      [](pfs::Client& c, std::uint64_t& out) -> Task<void> {
        out = (co_await c.create("/eq/shared")).handle;
      }(*clients[0], shared));
  cluster.run();

  // Phase 1: every rank creates hinted files, writes lock-protected
  // rank-disjoint slices of the shared file, and records what it saw.
  std::vector<std::vector<std::string>> logs(
      static_cast<std::size_t>(cfg.num_clients));
  std::vector<Rng> rngs;
  for (int r = 0; r < cfg.num_clients; ++r) {
    rngs.emplace_back(static_cast<std::uint64_t>(seed) * 131 + r);
  }
  const auto rank_storm = [](pfs::Client& c, Rng& rng, std::uint64_t sh,
                             int rank, std::vector<std::string>& log)
      -> Task<void> {
    for (int i = 0; i < 6; ++i) {
      const std::string path =
          "/eq/r" + std::to_string(rank) + "/f" + std::to_string(i);
      const std::int64_t hint = rng.next_below(2) == 0
                                    ? rng.next_range(1, 16) * kKiB
                                    : 64 * kKiB;  // above the small cutoff
      const pfs::MetaResult f = co_await c.create(path, hint);
      log.push_back("create " + path + " ok=" +
                    std::to_string(f.status.is_ok()) + " width=" +
                    std::to_string(c.layout_for(f.handle).num_servers()));
      // Private-file write: bytes derived from the rank's own stream.
      std::vector<std::uint8_t> data(
          static_cast<std::size_t>(rng.next_range(1, 8) * kKiB));
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
      const Status w = co_await c.write_contig(
          f.handle, 0, data.data(), static_cast<std::int64_t>(data.size()));
      log.push_back("write " + path + " ok=" + std::to_string(w.is_ok()));
      // Lock-protected slice of the shared file, disjoint per rank, so
      // grant order can never change the final image.
      const std::int64_t off =
          rank * kRankSpan + rng.next_range(0, 6) * 8 * kKiB;
      const std::int64_t len = rng.next_range(1, 2) * 8 * kKiB;
      (void)co_await c.lock_range(sh, off, len);
      std::vector<std::uint8_t> slice(static_cast<std::size_t>(len));
      for (auto& b : slice) b = static_cast<std::uint8_t>(rng.next());
      const Status sw = co_await c.write_contig(sh, off, slice.data(), len);
      (void)co_await c.unlock_range(sh, off, len);
      log.push_back("shared+" + std::to_string(off) + " ok=" +
                    std::to_string(sw.is_ok()));
    }
    // Drop half the namespace; re-stat the survivors by path.
    for (int i = 0; i < 6; i += 2) {
      const std::string path =
          "/eq/r" + std::to_string(rank) + "/f" + std::to_string(i);
      log.push_back("remove " + path + " ok=" +
                    std::to_string((co_await c.remove(path)).status.is_ok()));
    }
    for (int i = 1; i < 6; i += 2) {
      const std::string path =
          "/eq/r" + std::to_string(rank) + "/f" + std::to_string(i);
      const pfs::MetaResult st = co_await c.stat(path);
      log.push_back("stat " + path + " ok=" +
                    std::to_string(st.status.is_ok()) + " size=" +
                    std::to_string(st.size));
    }
  };
  for (int r = 0; r < cfg.num_clients; ++r) {
    cluster.scheduler().spawn(rank_storm(*clients[r], rngs[r], shared, r,
                                         logs[static_cast<std::size_t>(r)]));
  }
  cluster.run();

  // Phase 2: quiesced crash + restart of shard/server 0 — durable
  // namespace state must carry the rest of the run in both topologies.
  cluster.schedule_server_crash(0, cluster.scheduler().now() + kMillisecond,
                                2 * kMillisecond);
  cluster.run();

  // Phase 3: post-restart the namespace answers exactly as before.
  const auto verify = [](pfs::Client& c, int rank,
                         std::vector<std::string>& log) -> Task<void> {
    for (int i = 0; i < 6; ++i) {
      const std::string path =
          "/eq/r" + std::to_string(rank) + "/f" + std::to_string(i);
      const pfs::MetaResult f = co_await c.open(path);
      log.push_back("reopen " + path + " ok=" +
                    std::to_string(f.status.is_ok()));
      if (f.status.is_ok()) {
        const pfs::MetaResult st = co_await c.stat_handle(f.handle);
        log.push_back("resize " + std::to_string(st.size));
      }
    }
  };
  for (int r = 0; r < cfg.num_clients; ++r) {
    cluster.scheduler().spawn(
        verify(*clients[r], r, logs[static_cast<std::size_t>(r)]));
  }
  cluster.run();

  EquivResult result;
  for (const auto& rank_log : logs) {
    result.log.insert(result.log.end(), rank_log.begin(), rank_log.end());
  }
  result.bytes.resize(static_cast<std::size_t>(cfg.num_clients) * kRankSpan);
  bool read_ok = false;
  cluster.scheduler().spawn(
      [](pfs::Client& c, std::uint64_t sh, std::vector<std::uint8_t>& out,
         bool& ok) -> Task<void> {
        ok = (co_await c.read_contig(sh, 0, out.data(),
                                     static_cast<std::int64_t>(out.size())))
                 .is_ok();
      }(*clients[0], shared, result.bytes, read_ok));
  cluster.run();
  EXPECT_TRUE(read_ok);
  return result;
}

class MetaEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MetaEquivalence, ShardedMatchesSingleShardOracle) {
  const int seed = GetParam();
  const EquivResult oracle = run_equivalence(/*meta_shards=*/1, seed);
  for (const int shards : {2, 4}) {
    const EquivResult sharded = run_equivalence(shards, seed);
    ASSERT_EQ(sharded.log.size(), oracle.log.size()) << shards << " shards";
    for (std::size_t i = 0; i < oracle.log.size(); ++i) {
      EXPECT_EQ(sharded.log[i], oracle.log[i])
          << "op " << i << " diverged at " << shards << " shards";
    }
    EXPECT_EQ(sharded.bytes, oracle.bytes)
        << "shared-file image diverged at " << shards << " shards";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetaEquivalence, ::testing::Range(0, 4));

}  // namespace
}  // namespace dtio
