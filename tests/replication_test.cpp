// k-way strip replication end to end: quorum writes mirror every strip to
// its replica set, reads fail over to a replica when the primary is down
// (100% read availability through a crash window), restart resync pulls
// write-back dirty bytes the crash destroyed back from peer replicas, and
// the whole machine stays deterministic and byte-identical to the
// JointWalker oracle across every I/O method with a mid-run crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "io/joint.h"
#include "io/methods.h"
#include "mpiio/file.h"
#include "net/fault.h"
#include "pfs/cluster.h"
#include "sim/scheduler.h"

namespace dtio {
namespace {

using mpiio::Method;
using net::FaultPlan;
using net::FaultSpec;
using pfs::Client;
using pfs::MetaResult;
using sim::Task;

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> data(n);
  Rng rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

std::vector<std::uint8_t> bstream_bytes(const pfs::Bstream* bs,
                                        std::int64_t offset,
                                        std::int64_t length) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(length), 0);
  if (bs != nullptr) {
    bs->read(offset, std::span<std::uint8_t>(out.data(), out.size()));
  }
  return out;
}

net::ClusterConfig replicated_config(int servers, int r) {
  net::ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.num_clients = 1;
  cfg.strip_size = 1024;
  cfg.replication = r;
  cfg.client.rpc_timeout = 20 * kMillisecond;
  cfg.client.rpc_max_attempts = 5;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  return cfg;
}

// ---- Write mirroring --------------------------------------------------------

TEST(Replication, WritesMirrorToReplicaStores) {
  pfs::Cluster cluster(replicated_config(/*servers=*/2, /*r=*/2));
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(2048, 81);

  std::uint64_t handle = 0;
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src, std::uint64_t& h,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/mirror");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        h = f.handle;
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        std::vector<std::uint8_t> back(src.size());
        Status r = co_await c.read_contig(
            f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        EXPECT_EQ(back, src);
        done = true;
      }(*client, data, handle, finished));
  cluster.run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(client->effective_replication(), 2);
  EXPECT_GT(client->quorum_writes(), 0u);

  // Strip 0 (bytes [0, 1024)) lives on server 0 at physical offset 0 and is
  // mirrored — at the same physical offset — into server 1's replica store;
  // strip 1 the other way around.
  const std::vector<std::uint8_t> strip0(data.begin(), data.begin() + 1024);
  const std::vector<std::uint8_t> strip1(data.begin() + 1024, data.end());
  EXPECT_EQ(bstream_bytes(cluster.server(0).find_bstream(handle), 0, 1024),
            strip0);
  EXPECT_EQ(
      bstream_bytes(cluster.server(1).find_replica_bstream(handle, 0), 0,
                    1024),
      strip0);
  EXPECT_EQ(bstream_bytes(cluster.server(1).find_bstream(handle), 0, 1024),
            strip1);
  EXPECT_EQ(
      bstream_bytes(cluster.server(0).find_replica_bstream(handle, 1), 0,
                    1024),
      strip1);
}

// ---- Degraded reads ---------------------------------------------------------

TEST(Replication, ReadsFailOverDuringCrashWindow) {
  // Server 1 is down for 400 ms. Reads of its strips must keep succeeding
  // the whole time — first via a timeout-then-failover (one rpc_timeout of
  // latency), then near-instantly once the breaker opens and the primary
  // attempt fails fast.
  auto cfg = replicated_config(/*servers=*/3, /*r=*/2);
  cfg.client.breaker_failures = 2;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(3 * 1024, 82);

  SimTime restart_at = 0;
  SimTime reads_done_at = 0;
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, pfs::Cluster& cluster, Client& c,
         const std::vector<std::uint8_t>& src, SimTime& restart_at,
         SimTime& reads_done_at, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/failover");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();

        const SimTime crash_at = sched.now() + kMillisecond;
        restart_at = crash_at + 400 * kMillisecond;
        cluster.schedule_server_crash(/*index=*/1, crash_at,
                                      /*restart_delay=*/400 * kMillisecond);
        co_await sched.delay(crash_at + kMillisecond - sched.now());

        // Strip 1 (bytes [1024, 2048)) has primary server 1 — crashed —
        // and its replica on server 2. Every read must succeed.
        std::vector<std::uint8_t> back(1024, 0);
        const std::vector<std::uint8_t> want(src.begin() + 1024,
                                             src.begin() + 2048);
        for (int round = 0; round < 5; ++round) {
          std::fill(back.begin(), back.end(), 0);
          Status r = co_await c.read_contig(f.handle, 1024, back.data(), 1024);
          EXPECT_TRUE(r.is_ok()) << "round " << round << ": " << r.to_string();
          EXPECT_EQ(back, want) << "round " << round;
        }
        reads_done_at = sched.now();
        done = true;
      }(cluster.scheduler(), cluster, *client, data, restart_at, reads_done_at,
        finished));
  cluster.run();
  ASSERT_TRUE(finished);
  // All five reads completed while the primary was still down.
  EXPECT_LT(reads_done_at, restart_at);
  EXPECT_GE(client->read_failovers(), 5u);
  // Rounds after the breaker opened skipped the primary's timeout.
  EXPECT_GT(client->breaker_fast_fails(), 0u);
  EXPECT_EQ(cluster.server(1).stats().crashes, 1u);
  EXPECT_FALSE(cluster.server(1).crashed());
}

// ---- Restart resync ---------------------------------------------------------

TEST(Replication, ResyncRecoversDirtyWriteBackBytesLostInCrash) {
  // Write-back caching on a replicated cluster: the primary stages writes
  // as dirty cache blocks while the replica copy is written through. A
  // crash destroys the primary's staged bytes — resync must pull the
  // affected strips back from the replica before the server serves data.
  auto cfg = replicated_config(/*servers=*/2, /*r=*/2);
  cfg.server.cache_block_bytes = 256;
  cfg.server.cache_capacity_bytes = 16 * 256;  // no eviction pressure
  cfg.server.cache_dirty_watermark = 1.0;      // nothing flushes on its own
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(2048, 83);
  cluster.schedule_server_crash(/*index=*/0, /*at=*/50 * kMillisecond,
                                /*restart_delay=*/10 * kMillisecond);

  std::vector<std::uint8_t> back(2048, 0xFF);
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, std::vector<std::uint8_t>& out,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/resync");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        co_await sched.delay(200 * kMillisecond - sched.now());
        Status r = co_await c.read_contig(
            f.handle, 0, out.data(), static_cast<std::int64_t>(out.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        done = true;
      }(cluster.scheduler(), *client, data, back, finished));
  cluster.run();
  ASSERT_TRUE(finished);
  // Without replication this is the WriteBackCrashLosesOnlyUnflushedBlocks
  // scenario: the acked bytes would read back as holes. With r=2 every
  // byte survives.
  EXPECT_EQ(back, data);
  const pfs::ServerStats& s0 = cluster.server(0).stats();
  EXPECT_EQ(s0.crashes, 1u);
  EXPECT_GT(s0.cache_dirty_lost_bytes, 0u);
  EXPECT_EQ(s0.resyncs, 1u);
  EXPECT_GT(s0.resync_strips_pulled, 0u);
  EXPECT_GE(s0.resync_bytes_pulled, s0.cache_dirty_lost_bytes);
  EXPECT_GT(cluster.server(1).stats().resync_served, 0u);
  EXPECT_FALSE(cluster.server(0).resyncing());

  // The recovered copy reached the primary's own bstream, not just the
  // read path: strip 0 is byte-identical to what was written.
  bool verified = false;
  std::vector<std::uint8_t> raw(2048, 0);
  cluster.scheduler().spawn([](pfs::Cluster& cl, Client& c,
                               std::vector<std::uint8_t>& raw,
                               bool& done) -> Task<void> {
    MetaResult f = co_await c.open("/resync");
    EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
    cl.flush_caches();
    Status r = co_await c.read_contig(f.handle, 0, raw.data(),
                                      static_cast<std::int64_t>(raw.size()));
    EXPECT_TRUE(r.is_ok()) << r.to_string();
    done = true;
  }(cluster, *client, raw, verified));
  cluster.run();
  ASSERT_TRUE(verified);
  EXPECT_EQ(raw, data);
}

TEST(Replication, ResyncRefusesHostileExtents) {
  // The resync scenario above, with the first resync reply rewritten in
  // flight. Each rewrite breaks one rule of an applicable extent; the
  // puller must treat the whole reply as a refusal and retry, so the
  // clean second reply restores every byte and nothing lands out of
  // bounds or in a store for a server that does not exist.
  enum class Hostile { kNegativeOffset, kBadPrimary, kShortData };
  for (const Hostile kind : {Hostile::kNegativeOffset, Hostile::kBadPrimary,
                             Hostile::kShortData}) {
    SCOPED_TRACE(static_cast<int>(kind));
    auto cfg = replicated_config(/*servers=*/2, /*r=*/2);
    cfg.server.cache_block_bytes = 256;
    cfg.server.cache_capacity_bytes = 16 * 256;
    cfg.server.cache_dirty_watermark = 1.0;
    pfs::Cluster cluster(cfg);
    FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0x5E5C));
    plan.set_default_spec(FaultSpec{.corrupt = 1.0});
    // After set_fault_plan, which installs the payload bit-flipper: only
    // the rewrite below corrupts anything.
    cluster.set_fault_plan(&plan);
    bool rewritten = false;
    plan.set_corruptor([&rewritten, kind](sim::Message& msg, Rng&) {
      auto* reply = std::any_cast<pfs::Reply>(&msg.body);
      if (rewritten || reply == nullptr || reply->resync.empty()) return false;
      pfs::ResyncExtent& ext = reply->resync.front();
      switch (kind) {
        case Hostile::kNegativeOffset:
          ext.offset = -16;
          break;
        case Hostile::kBadPrimary:
          ext.primary = -1;
          break;
        case Hostile::kShortData:
          ext.data = std::make_shared<std::vector<std::uint8_t>>(
              ext.data->begin(), ext.data->begin() + ext.length / 2);
          break;
      }
      rewritten = true;
      return true;
    });
    auto client = cluster.make_client(0);
    const auto data = pattern_bytes(2048, 85);
    cluster.schedule_server_crash(/*index=*/0, /*at=*/50 * kMillisecond,
                                  /*restart_delay=*/10 * kMillisecond);

    std::uint64_t handle = 0;
    std::vector<std::uint8_t> back(2048, 0xFF);
    bool finished = false;
    cluster.scheduler().spawn(
        [](sim::Scheduler& sched, Client& c,
           const std::vector<std::uint8_t>& src, std::uint64_t& h,
           std::vector<std::uint8_t>& out, bool& done) -> Task<void> {
          MetaResult f = co_await c.create("/hostile");
          EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
          h = f.handle;
          Status w = co_await c.write_contig(
              f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
          EXPECT_TRUE(w.is_ok()) << w.to_string();
          co_await sched.delay(400 * kMillisecond - sched.now());
          Status r = co_await c.read_contig(
              f.handle, 0, out.data(), static_cast<std::int64_t>(out.size()));
          EXPECT_TRUE(r.is_ok()) << r.to_string();
          done = true;
        }(cluster.scheduler(), *client, data, handle, back, finished));
    cluster.run();
    ASSERT_TRUE(finished);
    EXPECT_TRUE(rewritten);
    EXPECT_EQ(back, data);
    const pfs::ServerStats& s0 = cluster.server(0).stats();
    EXPECT_EQ(s0.resyncs, 1u);
    EXPECT_GT(s0.resync_strips_pulled, 0u);
    EXPECT_EQ(s0.resync_peers_skipped, 0u);
    // The recovered strip reached server 0's own store, and the bogus
    // primary got no store of its own.
    EXPECT_EQ(bstream_bytes(cluster.server(0).find_bstream(handle), 0, 1024),
              std::vector<std::uint8_t>(data.begin(), data.begin() + 1024));
    EXPECT_EQ(cluster.server(0).find_replica_bstream(handle, -1), nullptr);
  }
}

TEST(Replication, WriteQuorumOneCompletesWhileReplicaIsDown) {
  // w=1: the primary's ack alone completes the write; the mirror to the
  // crashed replica keeps retrying in the background and the replica
  // catches up via resync after restart.
  auto cfg = replicated_config(/*servers=*/2, /*r=*/2);
  cfg.client.write_quorum = 1;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(1024, 84);
  cluster.schedule_server_crash(/*index=*/1, /*at=*/kMillisecond,
                                /*restart_delay=*/500 * kMillisecond);

  std::uint64_t handle = 0;
  SimTime write_latency = 0;
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, std::uint64_t& h,
         SimTime& latency, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/quorum1");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        h = f.handle;
        co_await sched.delay(10 * kMillisecond - sched.now());
        const SimTime t0 = sched.now();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        latency = sched.now() - t0;
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        co_await sched.delay(800 * kMillisecond - sched.now());
        std::vector<std::uint8_t> back(src.size());
        Status r = co_await c.read_contig(
            f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        EXPECT_EQ(back, src);
        done = true;
      }(cluster.scheduler(), *client, data, handle, write_latency, finished));
  cluster.run();
  ASSERT_TRUE(finished);
  EXPECT_GT(client->quorum_writes(), 0u);
  // The write did not wait out the dead replica's timeout.
  EXPECT_LT(write_latency, cluster.config().client.rpc_timeout);
  // After restart, resync pulled the strip the replica missed; its mirror
  // copy converged to the written bytes.
  EXPECT_EQ(cluster.server(1).stats().resyncs, 1u);
  EXPECT_GE(cluster.server(1).stats().resync_bytes_pulled, 1024u);
  EXPECT_EQ(
      bstream_bytes(cluster.server(1).find_replica_bstream(handle, 0), 0,
                    1024),
      data);
}

// ---- Determinism ------------------------------------------------------------

TEST(Replication, SameSeedSameReplicatedChaosRun) {
  // Two runs of the same replicated chaos workload — drops, duplicates,
  // corruption, plus a mid-run crash — must produce identical fault event
  // sequences, statuses, retry/failover totals, and end times.
  auto run = [](std::vector<net::FaultEvent>& events,
                net::FaultCounters& counters,
                std::vector<StatusCode>& codes, std::uint64_t& retries,
                std::uint64_t& failovers, std::uint64_t& quorum_writes,
                SimTime& end_time) {
    auto cfg = replicated_config(/*servers=*/3, /*r=*/2);
    cfg.seed = 4242;
    pfs::Cluster cluster(cfg);
    FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0x9E91));
    plan.set_default_spec(
        FaultSpec{.drop = 0.05, .duplicate = 0.02, .corrupt = 0.01});
    plan.set_scope_max_node(cfg.num_servers);
    plan.set_log_events(true);
    cluster.set_fault_plan(&plan);
    cluster.schedule_server_crash(/*index=*/2, /*at=*/30 * kMillisecond,
                                  /*restart_delay=*/60 * kMillisecond);
    auto client = cluster.make_client(0);
    const auto data = pattern_bytes(6 * 1024, 85);

    cluster.scheduler().spawn(
        [](Client& c, const std::vector<std::uint8_t>& src,
           std::vector<StatusCode>& codes) -> Task<void> {
          MetaResult f = co_await c.create("/det-repl");
          codes.push_back(f.status.code());
          for (int round = 0; round < 4; ++round) {
            Status w = co_await c.write_contig(
                f.handle, round * 512, src.data(),
                static_cast<std::int64_t>(src.size()));
            codes.push_back(w.code());
            std::vector<std::uint8_t> back(src.size());
            Status r = co_await c.read_contig(
                f.handle, round * 512, back.data(),
                static_cast<std::int64_t>(back.size()));
            codes.push_back(r.code());
          }
        }(*client, data, codes));
    cluster.run();
    events = plan.events();
    counters = plan.counters();
    retries = client->rpc_retries();
    failovers = client->read_failovers();
    quorum_writes = client->quorum_writes();
    end_time = cluster.scheduler().now();
  };
  std::vector<net::FaultEvent> events_a, events_b;
  net::FaultCounters counters_a, counters_b;
  std::vector<StatusCode> codes_a, codes_b;
  std::uint64_t retries_a = 0, retries_b = 0;
  std::uint64_t failovers_a = 0, failovers_b = 0;
  std::uint64_t quorum_a = 0, quorum_b = 0;
  SimTime end_a = 0, end_b = 0;
  run(events_a, counters_a, codes_a, retries_a, failovers_a, quorum_a, end_a);
  run(events_b, counters_b, codes_b, retries_b, failovers_b, quorum_b, end_b);
  EXPECT_EQ(events_a, events_b);
  EXPECT_EQ(counters_a, counters_b);
  EXPECT_EQ(codes_a, codes_b);
  EXPECT_EQ(retries_a, retries_b);
  EXPECT_EQ(failovers_a, failovers_b);
  EXPECT_EQ(quorum_a, quorum_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_GT(counters_a.total(), 0u);
  EXPECT_GT(quorum_a, 0u);
}

// ---- Retryable replies on replicated reads ----------------------------------
//
// Failover moves a read along the replica ring only when a copy is
// unreachable. A corrupted reply or a shed is retried at the same replica,
// under the same budget as an unreplicated read, so replication never
// turns a retryable reply into a failed read.

struct ReadTally {
  int ok = 0;
  int failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t data_loss_surfaced = 0;
};

/// One client writes a three-strip file; then each of `clients` clients
/// makes `reads` one-strip contig reads of it, round-robin over the strips
/// (so over every server). Counts how the reads fared.
ReadTally strip_reads(const net::ClusterConfig& cfg, FaultPlan* plan,
                      int clients, int reads) {
  pfs::Cluster cluster(cfg);
  if (plan != nullptr) cluster.set_fault_plan(plan);
  std::vector<std::unique_ptr<Client>> owned;
  for (int rank = 0; rank < clients; ++rank) {
    owned.push_back(cluster.make_client(rank));
  }
  const auto data = pattern_bytes(3 * 1024, 86);
  std::uint64_t handle = 0;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src,
         std::uint64_t& h) -> Task<void> {
        MetaResult f = co_await c.create("/strips");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        h = f.handle;
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
      }(*owned[0], data, handle));
  cluster.run();

  ReadTally tally;
  for (int rank = 0; rank < clients; ++rank) {
    cluster.scheduler().spawn(
        [](Client& c, std::uint64_t h, int rank, int reads,
           const std::vector<std::uint8_t>& src,
           ReadTally& tally) -> Task<void> {
          std::vector<std::uint8_t> back(1024);
          for (int i = 0; i < reads; ++i) {
            const int strip = (rank + i) % 3;
            Status r = co_await c.read_contig(h, strip * 1024, back.data(),
                                              1024);
            if (!r.is_ok()) {
              ++tally.failed;
              continue;
            }
            ++tally.ok;
            EXPECT_TRUE(std::equal(back.begin(), back.end(),
                                   src.begin() + strip * 1024));
          }
        }(*owned[static_cast<std::size_t>(rank)], handle, rank, reads, data,
          tally));
  }
  cluster.run();
  for (const auto& c : owned) {
    tally.retries += c->rpc_retries();
    tally.data_loss_surfaced += c->data_loss_surfaced();
  }
  return tally;
}

TEST(Replication, CorruptedReadRepliesRetryAtTheReplica) {
  auto run = [](int r) {
    const auto cfg = replicated_config(/*servers=*/3, r);
    FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xC0DE));
    plan.set_default_spec(FaultSpec{.corrupt = 0.05});
    plan.set_scope_max_node(cfg.num_servers);
    return strip_reads(cfg, &plan, /*clients=*/1, /*reads=*/300);
  };
  const ReadTally one = run(1);
  const ReadTally two = run(2);
  EXPECT_EQ(one.ok, 300);
  EXPECT_GT(one.retries, 0u);
  // Replication 2 retries the corrupted replies the same way.
  EXPECT_EQ(two.ok, 300) << two.failed << " reads failed";
  EXPECT_EQ(two.data_loss_surfaced, 0u);
  EXPECT_GT(two.retries, 0u);
}

TEST(Replication, ShedReadsFailNoMoreThanUnreplicated) {
  auto run = [](int r) {
    auto cfg = replicated_config(/*servers=*/3, r);
    cfg.num_clients = 8;
    cfg.server.max_queue_depth = 1;
    return strip_reads(cfg, nullptr, /*clients=*/8, /*reads=*/50);
  };
  const ReadTally one = run(1);
  const ReadTally two = run(2);
  EXPECT_EQ(one.ok + one.failed, 400);
  EXPECT_EQ(two.ok + two.failed, 400);
  EXPECT_GT(one.retries, 0u);  // the depth bound did shed
  EXPECT_LE(two.failed, one.failed)
      << "replication 1 failed " << one.failed << " of 400 reads";
}

// ---- Oracle equivalence under crash -----------------------------------------
//
// The tentpole acceptance: a randomized typed workload on an r=2/w=2
// cluster with write-back caching and a mid-run crash must read back —
// through EVERY I/O method, during and after the outage — byte-identical
// to the JointWalker oracle, with zero data-loss errors, and a final
// flush_caches + raw read must match the oracle exactly.

types::Datatype random_filetype(Rng& rng, int depth) {
  if (depth == 0) {
    return types::byte_t();
  }
  auto inner = random_filetype(rng, depth - 1);
  switch (rng.next_below(4)) {
    case 0:
      return types::contiguous(rng.next_range(1, 4), inner);
    case 1: {
      const std::int64_t bl = rng.next_range(1, 3);
      return types::hvector(rng.next_range(1, 4), bl,
                            bl * inner.extent() + rng.next_range(0, 32),
                            inner);
    }
    case 2: {
      const std::int64_t count = rng.next_range(1, 4);
      std::vector<std::int64_t> lens, offs;
      std::int64_t at = rng.next_range(0, 8) * inner.extent();
      for (std::int64_t i = 0; i < count; ++i) {
        const std::int64_t bl = rng.next_range(1, 2);
        lens.push_back(bl);
        offs.push_back(at);
        at += bl * inner.extent() + rng.next_range(1, 40);
      }
      return types::hindexed(lens, offs, inner);
    }
    default: {
      auto base = types::contiguous(rng.next_range(1, 3), inner);
      return types::resized(base, 0, base.extent() + rng.next_range(0, 24));
    }
  }
}

class ReplicationEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ReplicationEquivalence, CrashedRunMatchesOracleAcrossAllMethods) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 69621 + 17);
  const auto filetype =
      random_filetype(rng, static_cast<int>(rng.next_range(1, 3)));
  const std::int64_t mem_count = rng.next_range(1, 3);
  types::Datatype memtype;
  if (rng.next_below(2)) {
    memtype = types::contiguous(rng.next_range(64, 400), types::byte_t());
  } else {
    const std::int64_t bl = rng.next_range(2, 16);
    memtype = types::hvector(rng.next_range(4, 16), bl,
                             bl + rng.next_range(0, 16), types::byte_t());
  }
  const std::int64_t displacement = rng.next_range(0, 512);
  const std::int64_t offset_etypes = rng.next_range(0, 64);
  const std::int64_t total = mem_count * memtype.size();

  const std::int64_t mem_span = memtype.extent() * mem_count + 64;
  std::vector<std::uint8_t> mem_image(static_cast<std::size_t>(mem_span));
  for (auto& b : mem_image) b = static_cast<std::uint8_t>(rng.next());

  // Oracle: expected file bytes via the joint walker alone.
  std::map<std::int64_t, std::uint8_t> expected_file;
  {
    io::FileView view{displacement, types::byte_t(), filetype};
    const io::StreamWindow window = io::make_window(view, offset_etypes, total);
    io::JointWalker walker(io::make_mem_cursor(memtype, mem_count),
                           io::make_file_cursor(view, window));
    io::JointWalker::Piece piece;
    while (walker.next(piece)) {
      for (std::int64_t i = 0; i < piece.length; ++i) {
        expected_file[piece.file_offset + i] =
            mem_image[static_cast<std::size_t>(piece.mem_offset + i)];
      }
    }
    ASSERT_EQ(static_cast<std::int64_t>(expected_file.size()), total)
        << "oracle: file regions must be disjoint";
  }

  net::ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.num_clients = 1;
  cfg.strip_size = 256;
  cfg.seed = 4200 + static_cast<std::uint64_t>(GetParam());
  cfg.replication = 2;
  cfg.client.write_quorum = 2;
  cfg.client.rpc_timeout = 20 * kMillisecond;
  cfg.client.rpc_max_attempts = 6;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  cfg.server.cache_block_bytes = 256;
  cfg.server.cache_capacity_bytes = 8 * 256;
  cfg.server.cache_dirty_watermark = 1.0;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  io::Context ctx{cluster.scheduler(), *client, cluster.config()};
  mpiio::File file(ctx);

  const Method write_methods[] = {Method::kPosix, Method::kList,
                                  Method::kDatatype};
  const Method write_method = write_methods[rng.next_below(3)];

  bool wrote = false;
  cluster.scheduler().spawn(
      [](mpiio::File& f, const types::Datatype& ft, std::int64_t disp,
         std::int64_t off, const std::vector<std::uint8_t>& image,
         std::int64_t mem_count, const types::Datatype& mt, Method wm,
         bool& done) -> Task<void> {
        EXPECT_TRUE((co_await f.open("/repl-rand", true)).is_ok());
        f.set_view(disp, types::byte_t(), ft);
        Status st = co_await f.write_at(off, image.data(), mem_count, mt, wm);
        EXPECT_TRUE(st.is_ok()) << st.to_string();
        done = st.is_ok();
      }(file, filetype, displacement, offset_etypes, mem_image, mem_count,
        memtype, write_method, wrote));
  cluster.run();
  ASSERT_TRUE(wrote);

  // Mid-run crash: server 1 dies during the first read round — taking its
  // staged write-back dirty blocks with it — and restarts into resync
  // while reads are still in flight.
  cluster.schedule_server_crash(
      /*index=*/1, cluster.scheduler().now() + 2 * kMillisecond,
      /*restart_delay=*/40 * kMillisecond);

  std::int64_t file_end = 0;
  for (const auto& [off, byte] : expected_file) {
    file_end = std::max(file_end, off + 1);
  }

  // Raw image read during the outage: every byte the oracle knows must
  // come back, served from replicas where the primary is down.
  auto read_raw = [&](std::vector<std::uint8_t>& raw) {
    bool ok = false;
    cluster.scheduler().spawn(
        [](mpiio::File& f, std::vector<std::uint8_t>& out,
           bool& done) -> Task<void> {
          f.set_view(0, types::byte_t(), types::byte_t());
          auto whole = types::contiguous(
              static_cast<std::int64_t>(out.size()), types::byte_t());
          Status st = co_await f.read_at(0, out.data(), 1, whole,
                                         mpiio::Method::kPosix);
          EXPECT_TRUE(st.is_ok()) << st.to_string();
          done = st.is_ok();
        }(file, raw, ok));
    cluster.run();
    return ok;
  };
  {
    std::vector<std::uint8_t> raw(static_cast<std::size_t>(file_end), 0);
    ASSERT_TRUE(read_raw(raw));
    for (const auto& [off, byte] : expected_file) {
      ASSERT_EQ(raw[static_cast<std::size_t>(off)], byte)
          << "file byte " << off << " during outage";
    }
  }

  // Read back through the view with every method.
  for (const Method read_method :
       {Method::kPosix, Method::kDataSieving, Method::kList,
        Method::kDatatype}) {
    std::vector<std::uint8_t> back(mem_image.size(), 0);
    bool read_ok = false;
    cluster.scheduler().spawn(
        [](mpiio::File& f, const types::Datatype& ft, std::int64_t disp,
           std::int64_t off, std::int64_t mem_count,
           const types::Datatype& mt, std::vector<std::uint8_t>& out,
           Method rm, bool& done) -> Task<void> {
          f.set_view(disp, types::byte_t(), ft);
          Status st = co_await f.read_at(off, out.data(), mem_count, mt, rm);
          EXPECT_TRUE(st.is_ok()) << st.to_string();
          done = st.is_ok();
        }(file, filetype, displacement, offset_etypes, mem_count, memtype,
          back, read_method, read_ok));
    cluster.run();
    ASSERT_TRUE(read_ok) << mpiio::method_name(read_method);
    for (const Region& r : memtype.flatten(0, mem_count)) {
      for (std::int64_t i = r.offset; i < r.end(); ++i) {
        ASSERT_EQ(back[static_cast<std::size_t>(i)],
                  mem_image[static_cast<std::size_t>(i)])
            << "mem byte " << i << " via " << mpiio::method_name(read_method)
            << " after " << mpiio::method_name(write_method);
      }
    }
  }

  // The crash happened, and any dirty bytes it destroyed were re-pulled.
  const pfs::ServerStats total_stats = cluster.cache_stats_total();
  EXPECT_EQ(cluster.server(1).stats().crashes, 1u);
  EXPECT_FALSE(cluster.server(1).crashed());
  EXPECT_FALSE(cluster.server(1).resyncing());
  if (total_stats.cache_dirty_lost_bytes > 0) {
    EXPECT_GE(total_stats.resync_bytes_pulled,
              total_stats.cache_dirty_lost_bytes);
  }

  // flush_caches + raw read-back: byte-exact against the oracle.
  cluster.flush_caches();
  {
    std::vector<std::uint8_t> raw(static_cast<std::size_t>(file_end), 0);
    ASSERT_TRUE(read_raw(raw));
    for (const auto& [off, byte] : expected_file) {
      ASSERT_EQ(raw[static_cast<std::size_t>(off)], byte)
          << "file byte " << off << " after flush_caches";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ReplicationEquivalence,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace dtio
