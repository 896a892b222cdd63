// Fault injection and end-to-end request reliability: FaultPlan
// determinism, timed mailbox receives, timeout/retry/backoff behaviour,
// idempotent replay, CRC rejection of corrupted payloads, server
// crash/restart, and the stale-reply regression (a delayed reply from an
// abandoned attempt must never satisfy a later attempt or a later op).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "dataloop/dataloop.h"
#include "io/methods.h"
#include "mpiio/file.h"
#include "net/fault.h"
#include "pfs/cluster.h"
#include "sim/mailbox.h"
#include "sim/scheduler.h"
#include "sim/waitgroup.h"
#include "workloads/tile.h"

namespace dtio {
namespace {

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

// ---- FaultPlan unit behaviour ---------------------------------------------

TEST(FaultPlan, SameSeedSameDecisions) {
  const FaultSpec spec{.drop = 0.2, .duplicate = 0.2, .corrupt = 0.2,
                       .delay = 0.2};
  auto run = [&](std::vector<bool>& delivered) {
    FaultPlan plan(99);
    plan.set_default_spec(spec);
    plan.set_corruptor([](sim::Message&, Rng&) { return true; });
    plan.set_log_events(true);
    std::vector<net::FaultEvent> events;
    net::FaultCounters counters;
    for (int i = 0; i < 200; ++i) {
      sim::Message msg(i % 4, 17, 128, i);
      const auto decision =
          plan.apply(i % 4, (i + 1) % 4, i * kMicrosecond, msg);
      delivered.push_back(decision.deliver);
    }
    events = plan.events();
    counters = plan.counters();
    return std::make_pair(events, counters);
  };
  std::vector<bool> delivered_a, delivered_b;
  const auto [events_a, counters_a] = run(delivered_a);
  const auto [events_b, counters_b] = run(delivered_b);
  EXPECT_EQ(delivered_a, delivered_b);
  EXPECT_EQ(events_a, events_b);
  EXPECT_EQ(counters_a, counters_b);
  EXPECT_GT(counters_a.total(), 0u);
  EXPECT_GT(counters_a.dropped, 0u);
}

TEST(FaultPlan, OutageWindowIsDeterministicAndConsumesNoRandomness) {
  // Plan A: probabilistic drops only. Plan B: same seed, plus an outage
  // window that swallows some messages first. Messages outside the window
  // must get the SAME verdicts in both plans — the outage may not shift
  // the RNG stream.
  const FaultSpec spec{.drop = 0.5};
  FaultPlan plan_a(7), plan_b(7);
  plan_a.set_default_spec(spec);
  plan_b.set_default_spec(spec);
  plan_b.add_outage(/*node=*/2, /*from=*/0, /*until=*/10 * kMicrosecond);

  for (int i = 0; i < 5; ++i) {  // inside the window, node 2 involved
    sim::Message msg(2, 1, 64, i);
    EXPECT_FALSE(plan_b.apply(2, 3, i * kMicrosecond, msg).deliver);
  }
  EXPECT_EQ(plan_b.counters().outage_dropped, 5u);

  for (int i = 0; i < 100; ++i) {  // after the window
    const SimTime now = 20 * kMicrosecond + i;
    sim::Message msg_a(1, 1, 64, i);
    sim::Message msg_b(1, 1, 64, i);
    EXPECT_EQ(plan_a.apply(1, 2, now, msg_a).deliver,
              plan_b.apply(1, 2, now, msg_b).deliver)
        << "message " << i;
  }
  EXPECT_EQ(plan_a.counters().dropped, plan_b.counters().dropped);
}

TEST(FaultPlan, ScopeRestrictsInjectionToLowNodes) {
  FaultPlan plan(1);
  plan.set_default_spec(FaultSpec{.drop = 1.0});
  plan.set_scope_max_node(2);  // only links touching nodes 0 or 1
  sim::Message client_pair(5, 1, 64, 0);
  EXPECT_TRUE(plan.apply(5, 6, 0, client_pair).deliver);
  sim::Message to_server(5, 1, 64, 0);
  EXPECT_FALSE(plan.apply(5, 1, 0, to_server).deliver);
  sim::Message from_server(0, 1, 64, 0);
  EXPECT_FALSE(plan.apply(0, 5, 0, from_server).deliver);
  EXPECT_EQ(plan.counters().dropped, 2u);
}

// ---- Timed receive & WaitGroup --------------------------------------------

TEST(MailboxTimedRecv, ExpiresThenMatchesThenIgnoresStaleTimer) {
  sim::Scheduler sched;
  sim::Mailbox mailbox(sched);
  std::optional<sim::Message> first, second;
  SimTime first_at = -1;
  bool done = false;
  sched.spawn([](sim::Scheduler& s, sim::Mailbox& mb,
                 std::optional<sim::Message>& first, SimTime& first_at,
                 std::optional<sim::Message>& second,
                 bool& done) -> Task<void> {
    first = co_await mb.recv(sim::kAnySource, 7, kMillisecond);
    first_at = s.now();
    // The second wait's timer must be a no-op after the match (expiry is
    // id-keyed, so it cannot hit this or any later waiter).
    second = co_await mb.recv(sim::kAnySource, 7, 10 * kMillisecond);
    done = true;
  }(sched, mailbox, first, first_at, second, done));
  sched.schedule_call(2 * kMillisecond,
                      [&] { mailbox.deliver(sim::Message(3, 7, 64, 123)); });
  sched.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(first.has_value());
  EXPECT_EQ(first_at, kMillisecond);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->src, 3);
  EXPECT_EQ(second->take<int>(), 123);
}

TEST(WaitGroup, JoinsAfterAllDone) {
  sim::Scheduler sched;
  sim::WaitGroup wg(sched);
  int completed = 0;
  SimTime joined_at = -1;
  for (int i = 1; i <= 3; ++i) {
    wg.add(1);
    sched.spawn([](sim::Scheduler& s, sim::WaitGroup& g, int ms,
                   int& completed) -> Task<void> {
      co_await s.delay(ms * kMillisecond);
      ++completed;
      g.done();
    }(sched, wg, i, completed));
  }
  sched.spawn([](sim::Scheduler& s, sim::WaitGroup& g,
                 SimTime& joined_at) -> Task<void> {
    co_await g.wait();
    joined_at = s.now();
  }(sched, wg, joined_at));
  sched.run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(joined_at, 3 * kMillisecond);  // the slowest worker
}

// ---- End-to-end reliability ------------------------------------------------

net::ClusterConfig reliable_config(int servers = 2, int clients = 1) {
  net::ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.num_clients = clients;
  cfg.strip_size = 1024;
  cfg.client.rpc_timeout = 20 * kMillisecond;
  cfg.client.rpc_max_attempts = 5;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  return cfg;
}

TEST(Reliability, RetriesThroughOutageWindow) {
  auto cfg = reliable_config();
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  plan.add_outage(/*node=*/0, /*from=*/0, /*until=*/30 * kMillisecond);
  plan.add_outage(/*node=*/1, /*from=*/0, /*until=*/30 * kMillisecond);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(4000, 11);

  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/outage");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        std::vector<std::uint8_t> back(src.size());
        Status r = co_await c.read_contig(
            f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        EXPECT_EQ(back, src);
        done = true;
      }(*client, data, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_GT(client->rpc_retries(), 0u);
  EXPECT_GT(client->rpc_timeouts(), 0u);
  EXPECT_GT(plan.counters().outage_dropped, 0u);
}

TEST(Reliability, PermanentOutageSurfacesUnavailable) {
  auto cfg = reliable_config();
  cfg.client.rpc_timeout = 5 * kMillisecond;
  cfg.client.rpc_max_attempts = 3;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  plan.add_outage(/*node=*/0, /*from=*/0, /*until=*/kSecond);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);

  Status status;
  cluster.scheduler().spawn([](Client& c, Status& out) -> Task<void> {
    out = (co_await c.create("/never")).status;
  }(*client, status));
  cluster.run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.to_string();
  EXPECT_EQ(client->rpc_timeouts(), 3u);  // every attempt timed out
}

TEST(Reliability, SingleAttemptTimeoutSurfacesTimedOut) {
  auto cfg = reliable_config();
  cfg.client.rpc_timeout = 5 * kMillisecond;
  cfg.client.rpc_max_attempts = 1;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  plan.add_outage(/*node=*/0, /*from=*/0, /*until=*/kSecond);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);

  Status status;
  cluster.scheduler().spawn([](Client& c, Status& out) -> Task<void> {
    out = (co_await c.create("/never")).status;
  }(*client, status));
  cluster.run();
  EXPECT_EQ(status.code(), StatusCode::kTimedOut) << status.to_string();
  EXPECT_EQ(client->rpc_retries(), 0u);
}

TEST(Reliability, CorruptedWriteRejectedThenRetriedClean) {
  auto cfg = reliable_config(/*servers=*/1);
  pfs::Cluster cluster(cfg);
  // Corrupt every message touching server 0 until t=3.5ms: the create
  // (~1ms, meta payload — nothing corruptible) sails through, the first
  // write attempt (~1.1ms) gets its payload bit-flipped in flight, the
  // server rejects it with kDataLoss, and the retry (backoff lands it
  // past the window) carries the clean copy-on-write buffer.
  FaultPlan plan(5);
  plan.add_window(/*node=*/0, /*from=*/0, /*until=*/3500 * kMicrosecond,
                  FaultSpec{.corrupt = 1.0});
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(512, 21);

  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/corrupt");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        std::vector<std::uint8_t> back(src.size());
        Status r = co_await c.read_contig(
            f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        EXPECT_EQ(back, src);  // the corrupted attempt never reached disk
        done = true;
      }(*client, data, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_GE(plan.counters().corrupted, 1u);
  EXPECT_GE(cluster.server(0).stats().crc_rejects, 1u);
  EXPECT_GT(client->rpc_retries(), 0u);
}

TEST(Reliability, LostAckIsReplayedNotReapplied) {
  auto cfg = reliable_config(/*servers=*/1);
  cfg.client.rpc_timeout = 10 * kMillisecond;
  pfs::Cluster cluster(cfg);
  // Drop every message touching server 0 in [T+800us, T+8ms), where T is
  // when the client issues its write: the request (sent ~T+110us) gets
  // through and is APPLIED, but its ack (sent ~T+1.5ms) is lost. The
  // retry at ~T+12ms lands after the window and must hit the replay
  // window — re-acknowledged, not re-executed.
  constexpr SimTime kIssueAt = 5 * kMillisecond;
  FaultPlan plan(5);
  plan.add_window(/*node=*/0, kIssueAt + 800 * kMicrosecond,
                  kIssueAt + 8 * kMillisecond, FaultSpec{.drop = 1.0});
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(512, 31);

  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/replay");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        co_await sched.delay(kIssueAt - sched.now());
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        std::vector<std::uint8_t> back(src.size());
        Status r = co_await c.read_contig(
            f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        EXPECT_EQ(back, src);
        done = true;
      }(cluster.scheduler(), *client, data, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(cluster.server(0).stats().replays_suppressed, 1u);
  // The write executed exactly once: a re-applied retry would double this.
  EXPECT_EQ(cluster.server(0).stats().bytes_written, 512u);
  EXPECT_GE(plan.counters().dropped, 1u);
}

TEST(Reliability, CrashRestartWritesSurvive) {
  auto cfg = reliable_config(/*servers=*/2);
  cfg.client.rpc_timeout = 15 * kMillisecond;
  pfs::Cluster cluster(cfg);
  // No network faults: the crash alone must be survivable. Server 1 dies
  // at 1ms — with the first write likely queued or in flight — and comes
  // back at 21ms with caches cold. Retries carry the ops through.
  cluster.schedule_server_crash(/*index=*/1, /*at=*/kMillisecond,
                                /*restart_delay=*/20 * kMillisecond);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(4000, 41);  // striped across both servers

  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/crash");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        std::vector<std::uint8_t> back(src.size());
        Status r = co_await c.read_contig(
            f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        EXPECT_EQ(back, src);
        done = true;
      }(*client, data, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(cluster.server(1).stats().crashes, 1u);
  EXPECT_FALSE(cluster.server(1).crashed());
}

TEST(Reliability, StaleReplyFromAbandonedAttemptIsIgnored) {
  // Regression for the reply-tag hazard: attempt 1's reply is delayed far
  // past the timeout, attempt 2 completes normally, and the stale reply
  // then arrives addressed to a tag nobody will ever wait on again. It
  // must not satisfy attempt 2, corrupt a later op, or hang the run.
  auto cfg = reliable_config(/*servers=*/1);
  cfg.client.rpc_timeout = 5 * kMillisecond;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  plan.add_window(/*node=*/0, 500 * kMicrosecond, 2 * kMillisecond,
                  FaultSpec{.delay = 1.0, .delay_min = 40 * kMillisecond,
                            .delay_max = 40 * kMillisecond});
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);

  std::uint64_t handle_a = 0, handle_b = 0, reopened = 0;
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, std::uint64_t& ha, std::uint64_t& hb, std::uint64_t& re,
         bool& done) -> Task<void> {
        MetaResult a = co_await c.create("/stale-a");  // reply delayed 40ms
        EXPECT_TRUE(a.status.is_ok()) << a.status.to_string();
        ha = a.handle;
        MetaResult b = co_await c.create("/stale-b");
        EXPECT_TRUE(b.status.is_ok()) << b.status.to_string();
        hb = b.handle;
        MetaResult back = co_await c.open("/stale-a");
        EXPECT_TRUE(back.status.is_ok()) << back.status.to_string();
        re = back.handle;
        done = true;
      }(*client, handle_a, handle_b, reopened, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(client->rpc_timeouts(), 1u);
  EXPECT_EQ(client->rpc_retries(), 1u);
  EXPECT_NE(handle_a, 0u);
  EXPECT_NE(handle_b, handle_a);  // the stale reply did not leak into op B
  EXPECT_EQ(reopened, handle_a);
  EXPECT_EQ(plan.counters().delayed, 1u);
  // The stale reply was dropped at delivery, not parked in the mailbox.
  const sim::Mailbox& mb =
      cluster.network().mailbox(cluster.config().client_node(0));
  EXPECT_EQ(mb.stats().replies_dropped, 1u);
  EXPECT_EQ(mb.queued(), 0u);
  EXPECT_EQ(mb.claims(), 0u);
}

TEST(Reliability, SameSeedSameChaosRun) {
  // Two runs of the same chaos workload from the same seed must produce
  // identical fault event sequences, identical injection counters, and
  // identical client-side retry totals.
  auto run = [](std::vector<net::FaultEvent>& events,
                net::FaultCounters& counters, std::uint64_t& retries,
                SimTime& end_time) {
    auto cfg = reliable_config(/*servers=*/2);
    cfg.seed = 1234;
    pfs::Cluster cluster(cfg);
    FaultPlan plan(mix_seed(cluster.config().seed, /*salt=*/0xFA));
    plan.set_default_spec(
        FaultSpec{.drop = 0.05, .duplicate = 0.02, .corrupt = 0.01});
    plan.set_log_events(true);
    cluster.set_fault_plan(&plan);
    auto client = cluster.make_client(0);
    const auto data = pattern_bytes(8000, 51);

    bool finished = false;
    cluster.scheduler().spawn(
        [](Client& c, const std::vector<std::uint8_t>& src,
           bool& done) -> Task<void> {
          MetaResult f = co_await c.create("/det");
          EXPECT_TRUE(f.status.is_ok());
          for (int round = 0; round < 4; ++round) {
            Status w = co_await c.write_contig(
                f.handle, round * 100, src.data(),
                static_cast<std::int64_t>(src.size()));
            EXPECT_TRUE(w.is_ok()) << w.to_string();
            std::vector<std::uint8_t> back(src.size());
            Status r = co_await c.read_contig(
                f.handle, round * 100, back.data(),
                static_cast<std::int64_t>(back.size()));
            EXPECT_TRUE(r.is_ok()) << r.to_string();
            EXPECT_EQ(back, src);
          }
          done = true;
        }(*client, data, finished));
    cluster.run();
    EXPECT_TRUE(finished);
    events = plan.events();
    counters = plan.counters();
    retries = client->rpc_retries();
    end_time = cluster.scheduler().now();
  };
  std::vector<net::FaultEvent> events_a, events_b;
  net::FaultCounters counters_a, counters_b;
  std::uint64_t retries_a = 0, retries_b = 0;
  SimTime end_a = 0, end_b = 0;
  run(events_a, counters_a, retries_a, end_a);
  run(events_b, counters_b, retries_b, end_b);
  EXPECT_EQ(events_a, events_b);
  EXPECT_EQ(counters_a, counters_b);
  EXPECT_EQ(retries_a, retries_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_GT(counters_a.total(), 0u);
}

// ---- Buffer-cache crash durability ------------------------------------------
//
// Write-back trades durability for speed: staged dirty blocks die with the
// process, while blocks already flushed (here: forced out by eviction
// pressure) survive. Write-through loses nothing. Either way the replay
// and CRC machinery must stay correct with the cache in the path.

net::ClusterConfig cache_crash_config(bool write_through) {
  net::ClusterConfig cfg;
  cfg.num_servers = 1;
  cfg.num_clients = 1;
  cfg.strip_size = 4096;
  cfg.server.cache_block_bytes = 256;
  cfg.server.cache_capacity_bytes = 4 * 256;  // 4 blocks
  cfg.server.cache_write_through = write_through;
  cfg.server.cache_dirty_watermark = 1.0;  // only eviction forces flushes
  return cfg;
}

TEST(CacheDurability, WriteBackCrashLosesOnlyUnflushedBlocks) {
  pfs::Cluster cluster(cache_crash_config(/*write_through=*/false));
  auto client = cluster.make_client(0);
  const auto data_a = pattern_bytes(1024, 61);
  const auto data_b = pattern_bytes(1024, 62);
  // Crash after both writes ack, restart before the reads.
  cluster.schedule_server_crash(/*index=*/0, /*at=*/50 * kMillisecond,
                                /*restart_delay=*/10 * kMillisecond);

  std::vector<std::uint8_t> back_a(1024, 0xFF), back_b(1024, 0xFF);
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& a, const std::vector<std::uint8_t>& b,
         std::vector<std::uint8_t>& back_a, std::vector<std::uint8_t>& back_b,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/wb-crash");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        // A fills the 4-block cache and stays staged...
        Status wa = co_await c.write_contig(f.handle, 0, a.data(), 1024);
        EXPECT_TRUE(wa.is_ok()) << wa.to_string();
        // ...until B's blocks evict A's, flushing A to the bstream. B is
        // the staged-and-never-flushed data the crash will eat.
        Status wb = co_await c.write_contig(f.handle, 1024, b.data(), 1024);
        EXPECT_TRUE(wb.is_ok()) << wb.to_string();
        co_await sched.delay(100 * kMillisecond - sched.now());
        Status ra = co_await c.read_contig(f.handle, 0, back_a.data(), 1024);
        EXPECT_TRUE(ra.is_ok()) << ra.to_string();
        Status rb = co_await c.read_contig(f.handle, 1024, back_b.data(),
                                           1024);
        EXPECT_TRUE(rb.is_ok()) << rb.to_string();
        done = true;
      }(cluster.scheduler(), *client, data_a, data_b, back_a, back_b,
        finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(cluster.server(0).stats().crashes, 1u);
  // A was flushed by eviction pressure and survived; B's staged blocks
  // died with the process and read back as holes.
  EXPECT_EQ(back_a, data_a);
  EXPECT_EQ(back_b, std::vector<std::uint8_t>(1024, 0));
  EXPECT_EQ(cluster.server(0).stats().cache_dirty_lost_bytes, 1024u);
  EXPECT_GE(cluster.server(0).stats().cache_dirty_flushed_bytes, 1024u);
}

TEST(CacheDurability, WriteThroughCrashIsLossless) {
  pfs::Cluster cluster(cache_crash_config(/*write_through=*/true));
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(2048, 63);
  cluster.schedule_server_crash(/*index=*/0, /*at=*/50 * kMillisecond,
                                /*restart_delay=*/10 * kMillisecond);

  std::vector<std::uint8_t> back(2048, 0xFF);
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, std::vector<std::uint8_t>& out,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/wt-crash");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(f.handle, 0, src.data(), 2048);
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        co_await sched.delay(100 * kMillisecond - sched.now());
        Status r = co_await c.read_contig(f.handle, 0, out.data(), 2048);
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        done = true;
      }(cluster.scheduler(), *client, data, back, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(cluster.server(0).stats().crashes, 1u);
  EXPECT_EQ(back, data);  // every acked byte survived the crash
  EXPECT_EQ(cluster.server(0).stats().cache_dirty_lost_bytes, 0u);
}

TEST(CacheDurability, FlushCachesWhileServerCrashedIsSafeNoOp) {
  // Host-side flush_caches() invoked mid-outage, while the server process
  // is down: the crash already destroyed the staged dirty blocks, so the
  // flush must be a no-op — it cannot wedge the run, resurrect lost
  // bytes, or double-flush anything after the restart.
  auto cfg = cache_crash_config(/*write_through=*/false);
  cfg.server.cache_capacity_bytes = 16 * 256;  // no eviction pressure
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(1024, 71);
  cluster.schedule_server_crash(/*index=*/0, /*at=*/50 * kMillisecond,
                                /*restart_delay=*/30 * kMillisecond);
  cluster.scheduler().schedule_call(60 * kMillisecond,
                                    [&cluster] { cluster.flush_caches(); });

  std::vector<std::uint8_t> back(1024, 0xFF);
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, std::vector<std::uint8_t>& out,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/flush-crashed");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(f.handle, 0, src.data(), 1024);
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        co_await sched.delay(100 * kMillisecond - sched.now());
        Status r = co_await c.read_contig(f.handle, 0, out.data(), 1024);
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        done = true;
      }(cluster.scheduler(), *client, data, back, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(cluster.server(0).stats().crashes, 1u);
  // The staged bytes died with the process; the mid-crash flush neither
  // saved them nor flushed anything.
  EXPECT_EQ(back, std::vector<std::uint8_t>(1024, 0));
  EXPECT_EQ(cluster.server(0).stats().cache_dirty_lost_bytes, 1024u);
  EXPECT_EQ(cluster.server(0).stats().cache_dirty_flushed_bytes, 0u);
}

TEST(CacheDurability, FlushCachesInsideOutageWindowStillFlushes) {
  // A FaultPlan outage only severs the network; flush_caches() is a
  // host-side settle and must work normally inside the window. Dirty
  // bytes flushed during the outage then survive a later crash, and the
  // restart does not flush them a second time.
  auto cfg = cache_crash_config(/*write_through=*/false);
  cfg.server.cache_capacity_bytes = 16 * 256;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  plan.add_outage(/*node=*/0, /*from=*/40 * kMillisecond,
                  /*until=*/80 * kMillisecond);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(1024, 72);
  cluster.scheduler().schedule_call(60 * kMillisecond,
                                    [&cluster] { cluster.flush_caches(); });
  cluster.schedule_server_crash(/*index=*/0, /*at=*/90 * kMillisecond,
                                /*restart_delay=*/30 * kMillisecond);

  std::vector<std::uint8_t> back(1024, 0xFF);
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, std::vector<std::uint8_t>& out,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/flush-outage");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(f.handle, 0, src.data(), 1024);
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        co_await sched.delay(150 * kMillisecond - sched.now());
        Status r = co_await c.read_contig(f.handle, 0, out.data(), 1024);
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        done = true;
      }(cluster.scheduler(), *client, data, back, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(cluster.server(0).stats().crashes, 1u);
  // Flushed once, inside the outage; the crash then had nothing to lose
  // and the restart flushed nothing a second time. (Host-side flushes
  // land in the cache's own stats, not the per-request server counters.)
  EXPECT_EQ(back, data);
  ASSERT_NE(cluster.server(0).block_cache(), nullptr);
  EXPECT_EQ(cluster.server(0).block_cache()->stats().dirty_flushed_bytes,
            1024u);
  EXPECT_EQ(cluster.server(0).stats().cache_dirty_lost_bytes, 0u);
}

TEST(CacheDurability, ReplaySuppressionStillHoldsWithCacheOn) {
  // LostAckIsReplayedNotReapplied with the buffer cache in the write path:
  // the replay window must still re-ack instead of re-applying, and the
  // bytes must round-trip through the cache.
  auto cfg = reliable_config(/*servers=*/1);
  cfg.client.rpc_timeout = 10 * kMillisecond;
  cfg.server.cache_block_bytes = 256;
  cfg.server.cache_capacity_bytes = 64 * 256;
  pfs::Cluster cluster(cfg);
  constexpr SimTime kIssueAt = 5 * kMillisecond;
  FaultPlan plan(5);
  plan.add_window(/*node=*/0, kIssueAt + 800 * kMicrosecond,
                  kIssueAt + 8 * kMillisecond, FaultSpec{.drop = 1.0});
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(512, 64);

  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/replay-cache");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        co_await sched.delay(kIssueAt - sched.now());
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        std::vector<std::uint8_t> back(src.size());
        Status r = co_await c.read_contig(
            f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        EXPECT_EQ(back, src);
        done = true;
      }(cluster.scheduler(), *client, data, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(cluster.server(0).stats().replays_suppressed, 1u);
  EXPECT_EQ(cluster.server(0).stats().bytes_written, 512u);
  EXPECT_GT(cluster.server(0).stats().cache_misses, 0u);
}

// ---- Tile-reader acceptance -------------------------------------------------
//
// The paper's display-wall workload under chaos: 16 servers, a 2x2 tile
// grid, 5% drop + 2% duplication + 1% corruption plus one mid-run server
// crash/restart. Every client's tile, read through every applicable I/O
// method, must come back byte-identical to a fault-free run.

struct TileRun {
  /// tiles[method][rank] = the tile bytes that rank read back.
  std::vector<std::vector<std::vector<std::uint8_t>>> tiles;
  bool all_ok = true;
  std::uint64_t corrupted = 0;  ///< messages the fault plan corrupted
  std::uint64_t retries = 0;    ///< RPC retries summed over all clients
};

enum class TileFaults {
  kNone,
  /// Drops, duplicates and corruption plus a server crash, with a 200 ms
  /// per-attempt deadline.
  kChaos,
  /// Corruption only, with no deadline (rpc_timeout == 0): no message is
  /// lost, so every attempt gets a reply and only error replies retry.
  kCorruptOnly,
};

TileRun run_tile_workload(const workloads::TileConfig& tc,
                          const std::vector<std::uint8_t>& frame,
                          TileFaults faults) {
  const bool chaos = faults == TileFaults::kChaos;
  net::ClusterConfig cfg;
  cfg.num_servers = 16;
  cfg.num_clients = tc.num_clients();
  cfg.strip_size = 256;
  cfg.seed = 42;
  if (faults != TileFaults::kCorruptOnly) {
    cfg.client.rpc_timeout = 200 * kMillisecond;
    cfg.client.rpc_max_attempts = 6;
    cfg.client.rpc_backoff_base = 10 * kMillisecond;
  }
  pfs::Cluster cluster(cfg);

  FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0x71E));
  if (faults != TileFaults::kNone) {
    plan.set_default_spec(
        chaos ? FaultSpec{.drop = 0.05, .duplicate = 0.02, .corrupt = 0.01}
              : FaultSpec{.corrupt = 0.05});
    plan.set_scope_max_node(cfg.num_servers);
    cluster.set_fault_plan(&plan);
  }

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::unique_ptr<io::Context>> ctxs;
  std::vector<std::unique_ptr<mpiio::File>> files;
  for (int r = 0; r < tc.num_clients(); ++r) {
    clients.push_back(cluster.make_client(r));
    ctxs.push_back(std::make_unique<io::Context>(
        io::Context{cluster.scheduler(), *clients.back(), cluster.config()}));
    files.push_back(std::make_unique<mpiio::File>(*ctxs.back()));
  }

  TileRun run;
  // Rank 0 stores the frame; everyone opens the file.
  bool wrote = false;
  cluster.scheduler().spawn(
      [](std::vector<std::unique_ptr<mpiio::File>>& files,
         const std::vector<std::uint8_t>& frame, bool& done) -> Task<void> {
        EXPECT_TRUE((co_await files[0]->open("/frame", true)).is_ok());
        for (std::size_t r = 1; r < files.size(); ++r) {
          EXPECT_TRUE((co_await files[r]->open("/frame", true)).is_ok());
        }
        auto whole = types::contiguous(
            static_cast<std::int64_t>(frame.size()), types::byte_t());
        files[0]->set_view(0, types::byte_t(), types::byte_t());
        Status w = co_await files[0]->write_at(0, frame.data(), 1, whole,
                                               mpiio::Method::kPosix);
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        done = w.is_ok();
      }(files, frame, wrote));
  cluster.run();
  EXPECT_TRUE(wrote);
  run.all_ok = wrote;

  if (chaos) {
    // Server 3 dies during the first read round and comes back mid-run.
    cluster.schedule_server_crash(
        /*index=*/3, cluster.scheduler().now() + 2 * kMillisecond,
        /*restart_delay=*/40 * kMillisecond);
  }

  const mpiio::Method methods[] = {
      mpiio::Method::kPosix, mpiio::Method::kDataSieving,
      mpiio::Method::kList, mpiio::Method::kDatatype};
  for (const mpiio::Method method : methods) {
    std::vector<std::vector<std::uint8_t>> round(
        static_cast<std::size_t>(tc.num_clients()));
    for (int r = 0; r < tc.num_clients(); ++r) {
      round[static_cast<std::size_t>(r)].assign(
          static_cast<std::size_t>(tc.tile_bytes()), 0);
      cluster.scheduler().spawn(
          [](mpiio::File& f, const workloads::TileConfig& tc, int rank,
             mpiio::Method m, std::vector<std::uint8_t>& out,
             bool& all_ok) -> Task<void> {
            f.set_view(0, types::byte_t(), tc.tile_filetype(rank));
            Status st = co_await f.read_at(0, out.data(), 1, tc.memtype(), m);
            EXPECT_TRUE(st.is_ok())
                << "rank " << rank << " via " << mpiio::method_name(m) << ": "
                << st.to_string();
            if (!st.is_ok()) all_ok = false;
          }(*files[static_cast<std::size_t>(r)], tc, r, method,
            round[static_cast<std::size_t>(r)], run.all_ok));
    }
    cluster.run();  // all four tiles of this round read concurrently
    run.tiles.push_back(std::move(round));
  }
  if (chaos) {
    EXPECT_EQ(cluster.server(3).stats().crashes, 1u);
    EXPECT_FALSE(cluster.server(3).crashed());
  }
  run.corrupted = plan.counters().corrupted;
  for (const auto& c : clients) run.retries += c->rpc_retries();
  return run;
}

TEST(TileChaos, AllMethodsByteIdenticalToFaultFreeRun) {
  workloads::TileConfig tc;
  tc.tiles_x = 2;
  tc.tiles_y = 2;
  tc.tile_width = 48;
  tc.tile_height = 16;
  tc.overlap_x = 8;
  tc.overlap_y = 4;
  const auto frame = pattern_bytes(
      static_cast<std::size_t>(tc.frame_bytes()), 0xF00D);

  const TileRun clean = run_tile_workload(tc, frame, TileFaults::kNone);
  const TileRun chaos = run_tile_workload(tc, frame, TileFaults::kChaos);
  ASSERT_TRUE(clean.all_ok);
  ASSERT_TRUE(chaos.all_ok);
  ASSERT_EQ(clean.tiles.size(), chaos.tiles.size());
  for (std::size_t m = 0; m < clean.tiles.size(); ++m) {
    for (int r = 0; r < tc.num_clients(); ++r) {
      EXPECT_EQ(clean.tiles[m][static_cast<std::size_t>(r)],
                chaos.tiles[m][static_cast<std::size_t>(r)])
          << "method " << m << " rank " << r;
    }
  }
  // Spot-check against the frame itself: row 0 of rank 0's tile.
  const std::size_t row_bytes =
      static_cast<std::size_t>(tc.tile_width) * tc.bytes_per_pixel;
  EXPECT_EQ(std::memcmp(clean.tiles[0][0].data(), frame.data(), row_bytes), 0);
}

// With no deadline (rpc_timeout == 0) the attempt loop still retries error
// replies: CRC-mismatched read replies and kDataLoss rejections of
// corrupted write payloads are retried up to rpc_max_attempts, so a run
// that corrupts messages but drops none reads back every tile exactly.
TEST(TileChaos, CorruptionWithoutDeadlineRetriesToExactBytes) {
  workloads::TileConfig tc;
  tc.tiles_x = 2;
  tc.tiles_y = 2;
  tc.tile_width = 48;
  tc.tile_height = 16;
  tc.overlap_x = 8;
  tc.overlap_y = 4;
  const auto frame = pattern_bytes(
      static_cast<std::size_t>(tc.frame_bytes()), 0xF00D);

  const TileRun clean = run_tile_workload(tc, frame, TileFaults::kNone);
  const TileRun corrupt =
      run_tile_workload(tc, frame, TileFaults::kCorruptOnly);
  ASSERT_TRUE(clean.all_ok);
  ASSERT_TRUE(corrupt.all_ok);
  EXPECT_GT(corrupt.corrupted, 0u);
  EXPECT_GT(corrupt.retries, 0u);
  ASSERT_EQ(clean.tiles.size(), corrupt.tiles.size());
  for (std::size_t m = 0; m < clean.tiles.size(); ++m) {
    for (int r = 0; r < tc.num_clients(); ++r) {
      EXPECT_EQ(clean.tiles[m][static_cast<std::size_t>(r)],
                corrupt.tiles[m][static_cast<std::size_t>(r)])
          << "method " << m << " rank " << r;
    }
  }
}

// ---- Reply-tag lifetime under chaos -----------------------------------------
//
// Independent datatype tile reads under drops, duplicates, corruption,
// hedging and one server crash: every late retry reply, duplicate and
// hedge loser is dropped at its mailbox, so nothing is left queued and no
// claim outlives its RPC. The fault-free twin times out, hedges and drops
// nothing.

struct ReplyLifetimeRun {
  int failures = 0;
  std::uint64_t replies_dropped = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t hedges_issued = 0;
  std::uint64_t crashes = 0;
  std::uint64_t faults = 0;
  std::uint64_t dropped = 0;   ///< messages the plan dropped
  std::uint64_t residual = 0;  ///< messages queued in any mailbox at the end
  std::uint64_t claims = 0;    ///< reply tags still claimed at the end
  SimTime end = 0;

  bool operator==(const ReplyLifetimeRun&) const = default;
};

ReplyLifetimeRun run_reply_lifetime(bool with_faults, std::uint64_t seed = 7) {
  workloads::TileConfig tc;
  tc.tiles_x = 2;
  tc.tiles_y = 2;
  tc.tile_width = 48;
  tc.tile_height = 16;
  tc.overlap_x = 8;
  tc.overlap_y = 4;
  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = tc.num_clients();
  cfg.strip_size = 256;
  cfg.seed = seed;
  cfg.client.rpc_timeout = 200 * kMillisecond;
  cfg.client.rpc_max_attempts = 12;
  cfg.client.rpc_backoff_base = 10 * kMillisecond;
  cfg.client.hedge_quantile = 95;
  cfg.client.hedge_min_samples = 8;
  cfg.server.max_queue_depth = 8;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xC4A05));
  plan.set_default_spec(
      FaultSpec{.drop = 0.05, .duplicate = 0.02, .corrupt = 0.01});
  plan.set_scope_max_node(cfg.num_servers);

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::unique_ptr<io::Context>> ctxs;
  std::vector<std::unique_ptr<mpiio::File>> files;
  for (int r = 0; r < tc.num_clients(); ++r) {
    clients.push_back(cluster.make_client(r));
    clients.back()->set_transfer_data(false);
    ctxs.push_back(std::make_unique<io::Context>(
        io::Context{cluster.scheduler(), *clients.back(), cluster.config()}));
    files.push_back(std::make_unique<mpiio::File>(*ctxs.back()));
  }
  cluster.scheduler().spawn([](mpiio::File& f) -> Task<void> {
    EXPECT_TRUE((co_await f.open("/frames", true)).is_ok());
  }(*files[0]));
  cluster.run();

  if (with_faults) {
    cluster.set_fault_plan(&plan);
    cluster.schedule_server_crash(
        /*index=*/3, cluster.scheduler().now() + 2 * kMillisecond,
        /*restart_delay=*/40 * kMillisecond);
  }
  ReplyLifetimeRun run;
  constexpr int kFrames = 60;
  for (int r = 0; r < tc.num_clients(); ++r) {
    cluster.scheduler().spawn(
        [](mpiio::File& f, const workloads::TileConfig& tc, int rank,
           int& failures) -> Task<void> {
          if (rank != 0) (void)co_await f.open("/frames", false);
          f.set_view(0, types::byte_t(), tc.tile_filetype(rank));
          for (int frame = 0; frame < kFrames; ++frame) {
            const Status st = co_await f.read_at(
                static_cast<std::int64_t>(frame) * tc.tile_bytes(), nullptr,
                1, tc.memtype(), mpiio::Method::kDatatype);
            if (!st.is_ok()) ++failures;
          }
        }(*files[static_cast<std::size_t>(r)], tc, r, run.failures));
  }
  cluster.run();

  for (const auto& c : clients) {
    run.timeouts += c->rpc_timeouts();
    run.retries += c->rpc_retries();
    run.hedges_issued += c->hedges_issued();
  }
  for (int node = 0; node < cluster.network().num_nodes(); ++node) {
    const sim::Mailbox& mb = cluster.network().mailbox(node);
    run.replies_dropped += mb.stats().replies_dropped;
    run.residual += mb.queued();
    run.claims += mb.claims();
  }
  run.crashes = cluster.server(3).stats().crashes;
  run.faults = plan.counters().total();
  run.dropped = plan.counters().dropped;
  run.end = cluster.scheduler().now();
  return run;
}

TEST(ReplyLifetime, ChaosRunLeavesNoQueuedReplyOrLiveClaim) {
  const ReplyLifetimeRun a = run_reply_lifetime(/*with_faults=*/true);
  EXPECT_EQ(a.failures, 0);
  EXPECT_EQ(a.residual, 0u);
  EXPECT_EQ(a.claims, 0u);
  EXPECT_EQ(a.crashes, 1u);
  // The mechanisms that make stale replies all ran.
  EXPECT_GT(a.faults, 0u);
  EXPECT_GT(a.timeouts, 0u);
  EXPECT_GT(a.hedges_issued, 0u);
  EXPECT_GT(a.replies_dropped, 0u);
  // Same seed, same counters.
  EXPECT_EQ(run_reply_lifetime(/*with_faults=*/true), a);
}

TEST(ReplyLifetime, FaultFreeRunDropsNoReply) {
  const ReplyLifetimeRun clean = run_reply_lifetime(/*with_faults=*/false);
  EXPECT_EQ(clean.failures, 0);
  EXPECT_EQ(clean.timeouts, 0u);
  EXPECT_EQ(clean.hedges_issued, 0u);
  EXPECT_EQ(clean.replies_dropped, 0u);
  EXPECT_EQ(clean.residual, 0u);
  EXPECT_EQ(clean.claims, 0u);
}

// ---- Deadlines that count the reply's wire time ----------------------------
//
// Every reply of one op drains through the client's one link, so an
// attempt's deadline is rpc_timeout plus the wire time of the reply bytes
// the client has in flight. A wide fault-free read whose drain alone
// exceeds rpc_timeout must not time out; a lost reply still must, after
// the allowance; and every exit path hands its bytes back.

constexpr int kWideServers = 8;
constexpr std::int64_t kWideStrip = 64 * 1024;
constexpr int kWideStripsPerServer = 8;
/// Reply wire bytes of one wide-read RPC: the first half of each strip it
/// holds, plus the reply header and per-message framing.
constexpr std::uint64_t kWideReplyBytes =
    kWideStripsPerServer * (kWideStrip / 2) + 64 + 64;

net::ClusterConfig wide_config(SimTime rpc_timeout) {
  net::ClusterConfig cfg;
  cfg.num_servers = kWideServers;
  cfg.num_clients = 1;
  cfg.strip_size = static_cast<std::uint64_t>(kWideStrip);
  cfg.client.rpc_timeout = rpc_timeout;
  cfg.client.rpc_max_attempts = 5;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  return cfg;
}

struct WideRead {
  bool ok = false;
  SimTime start = 0;
  SimTime end = 0;
  std::uint64_t requests = 0;         ///< requests the read sent
  std::uint64_t outstanding_mid = 0;  ///< reply_bytes_outstanding at 20 ms
  std::uint64_t outstanding_end = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
};

/// One timing-only datatype read of the first half of every strip of a
/// 4 MiB file: 2 MiB, 256 KiB from each of 8 servers, about 174 ms of
/// drain at 11.5 MiB/s. `drop_reply_from` >= 0 drops that server's reply:
/// a drop window on its node opens as soon as the server has taken the
/// request, before it replies, and closes 100 ms later, before the retry.
WideRead run_wide_read(SimTime rpc_timeout, int drop_reply_from = -1,
                       FaultPlan* plan = nullptr) {
  pfs::Cluster cluster(wide_config(rpc_timeout));
  if (plan != nullptr) cluster.set_fault_plan(plan);
  auto client = cluster.make_client(0);
  client->set_transfer_data(false);
  WideRead out;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c, WideRead& out) -> Task<void> {
        MetaResult f = co_await c.create("/wide");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        constexpr std::int64_t kStrips = kWideServers * kWideStripsPerServer;
        auto loop = dl::make_vector(kStrips, kWideStrip / 2, kWideStrip,
                                    dl::make_leaf(1));
        out.start = sched.now();
        const std::uint64_t sent = c.stats().requests_sent;
        const Status st = co_await c.read_datatype(
            f.handle, loop, 0, 1, 0, kStrips * kWideStrip / 2, nullptr);
        EXPECT_TRUE(st.is_ok()) << st.to_string();
        out.ok = st.is_ok();
        out.end = sched.now();
        out.requests = c.stats().requests_sent - sent;
      }(cluster.scheduler(), *client, out));
  if (drop_reply_from >= 0) {
    cluster.scheduler().spawn(
        [](sim::Scheduler& sched, const pfs::IOServer& server, int node,
           FaultPlan& plan) -> Task<void> {
          while (server.stats().requests == 0) {
            co_await sched.delay(50 * kMicrosecond);
          }
          plan.add_window(node, sched.now(), sched.now() + 100 * kMillisecond,
                          FaultSpec{.drop = 1.0});
        }(cluster.scheduler(), cluster.server(drop_reply_from),
          drop_reply_from, *plan));
  }
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c, WideRead& out) -> Task<void> {
        // By 20 ms every RPC of the read is in flight (the client's own
        // dataloop processing takes ~5 ms) and no reply has drained yet.
        co_await sched.delay(20 * kMillisecond);
        out.outstanding_mid = c.reply_bytes_outstanding();
      }(cluster.scheduler(), *client, out));
  cluster.run();
  out.outstanding_end = client->reply_bytes_outstanding();
  out.timeouts = client->rpc_timeouts();
  out.retries = client->rpc_retries();
  return out;
}

TEST(ReplyDeadline, WideFaultFreeReadDrainsPastTimeoutWithoutRetry) {
  constexpr SimTime kTimeout = 50 * kMillisecond;
  const WideRead timed = run_wide_read(kTimeout);
  ASSERT_TRUE(timed.ok);
  // The drain alone outlasts rpc_timeout...
  ASSERT_GT(timed.end - timed.start, 3 * kTimeout);
  // ...yet no attempt timed out or retried: one request per server.
  EXPECT_EQ(timed.timeouts, 0u);
  EXPECT_EQ(timed.retries, 0u);
  EXPECT_EQ(timed.requests, static_cast<std::uint64_t>(kWideServers));
  EXPECT_EQ(timed.outstanding_mid, kWideServers * kWideReplyBytes);
  EXPECT_EQ(timed.outstanding_end, 0u);
  // Same events as the run with no deadline at all.
  const WideRead untimed = run_wide_read(/*rpc_timeout=*/0);
  ASSERT_TRUE(untimed.ok);
  EXPECT_EQ(timed.start, untimed.start);
  EXPECT_EQ(timed.end, untimed.end);
}

TEST(ReplyDeadline, DroppedReplyTimesOutOnceAfterTheAllowance) {
  constexpr SimTime kTimeout = 50 * kMillisecond;
  FaultPlan plan(5);
  plan.set_log_events(true);
  const WideRead run = run_wide_read(kTimeout, /*drop_reply_from=*/5, &plan);
  EXPECT_TRUE(run.ok);
  ASSERT_EQ(plan.counters().dropped, 1u);
  ASSERT_EQ(plan.events().size(), 1u);
  EXPECT_EQ(plan.events()[0].src, 5);  // the reply, not the request
  EXPECT_EQ(run.timeouts, 1u);
  EXPECT_EQ(run.retries, 1u);
  EXPECT_EQ(run.requests, static_cast<std::uint64_t>(kWideServers) + 1);
  // The lost attempt's deadline counted all 8 replies' wire time, so the
  // timeout (and the retry that completed the read after it) came no
  // earlier than rpc_timeout plus that allowance.
  const SimTime allowance = transfer_time(
      kWideServers * kWideReplyBytes, net::NetConfig{}.bandwidth_bytes_per_s);
  EXPECT_GE(run.end - run.start, kTimeout + allowance);
  EXPECT_EQ(run.outstanding_end, 0u);
}

TEST(ReplyDeadline, LargeHealthyRepliesIssueNoHedge) {
  // 4 servers, 64 KiB strips, hedging at p95 after 8 samples. Small reads
  // (64 KiB per server) arm every lane; then 1 MiB-per-server reads take
  // ~350 ms to drain, far past the small reads' raw p95 and past
  // rpc_timeout, yet their allowance-normalised latency is the same, so
  // none hedges or times out. A straggler after that still gets hedged:
  // the lanes really were armed.
  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 1;
  cfg.strip_size = 64 * 1024;
  cfg.client.rpc_timeout = 100 * kMillisecond;
  cfg.client.rpc_max_attempts = 5;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  cfg.client.hedge_quantile = 95;
  cfg.client.hedge_min_samples = 8;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  client->set_transfer_data(false);

  std::uint64_t large_hedges = 0;
  SimTime large_latency = 0;
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, FaultPlan& plan, Client& c,
         std::uint64_t& large_hedges, SimTime& large_latency,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/large");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        for (int i = 0; i < 20; ++i) {
          const Status r = co_await c.read_contig(f.handle, 0, nullptr,
                                                  4 * 64 * 1024);
          EXPECT_TRUE(r.is_ok()) << r.to_string();
        }
        for (int i = 0; i < 5; ++i) {
          const SimTime t0 = sched.now();
          const Status r = co_await c.read_contig(f.handle, 0, nullptr,
                                                  4 * 1024 * 1024);
          EXPECT_TRUE(r.is_ok()) << r.to_string();
          large_latency = std::max(large_latency, sched.now() - t0);
        }
        large_hedges = c.hedges_issued();
        // Server 2 turns 20x slower: its small reply now lags the rest.
        plan.add_degraded(/*node=*/2, sched.now(),
                          sched.now() + 200 * kMillisecond, 20.0);
        const Status r =
            co_await c.read_contig(f.handle, 0, nullptr, 4 * 64 * 1024);
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        done = true;
      }(cluster.scheduler(), plan, *client, large_hedges, large_latency,
        finished));
  cluster.run();
  ASSERT_TRUE(finished);
  EXPECT_GT(large_latency, 3 * cfg.client.rpc_timeout);
  EXPECT_EQ(large_hedges, 0u);
  EXPECT_GE(client->hedges_issued(), 1u);
  EXPECT_EQ(client->rpc_timeouts(), 0u);
  EXPECT_EQ(client->reply_bytes_outstanding(), 0u);
}

TEST(ReplyDeadline, OutstandingBytesDrainAfterFailoverAndQuorumWrite) {
  // r = 2 over 3 servers with 1 KiB strips; server 1 is down for 300 ms.
  // A w = 1 write completes on the primary while its mirror to server 1
  // keeps timing out in the background, and reads of server 1's strip
  // fail over to server 2. Every one of those RPCs hands its reply bytes
  // back.
  net::ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.num_clients = 1;
  cfg.strip_size = 1024;
  cfg.replication = 2;
  cfg.client.write_quorum = 1;
  cfg.client.rpc_timeout = 20 * kMillisecond;
  cfg.client.rpc_max_attempts = 5;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(3 * 1024, 85);
  cluster.schedule_server_crash(/*index=*/1, /*at=*/kMillisecond,
                                /*restart_delay=*/300 * kMillisecond);

  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/drain");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        co_await sched.delay(5 * kMillisecond);
        // Strip 0: primary server 0, mirror on the crashed server 1.
        Status w = co_await c.write_contig(f.handle, 0, src.data(), 1024);
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        // Strip 1: primary server 1 (down), replica server 2.
        std::vector<std::uint8_t> back(1024);
        for (int i = 0; i < 3; ++i) {
          Status r = co_await c.read_contig(f.handle, 1024, back.data(), 1024);
          EXPECT_TRUE(r.is_ok()) << r.to_string();
        }
        done = true;
      }(cluster.scheduler(), *client, data, finished));
  cluster.run();
  ASSERT_TRUE(finished);
  EXPECT_GT(client->quorum_writes(), 0u);
  EXPECT_GT(client->read_failovers(), 0u);
  EXPECT_GT(client->rpc_timeouts(), 0u);
  EXPECT_EQ(client->reply_bytes_outstanding(), 0u);
}

TEST(ReplyDeadline, ChaosSeedSweepTimeoutsTrackDrops) {
  // The small chaos cluster of ReplyLifetime (4 servers, 2x2 tiles, 5%
  // drop + 2% dup + 1% corrupt, one crash) at five seeds: no op fails,
  // and timeouts stay within 1.5x of the messages actually dropped.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ReplyLifetimeRun run = run_reply_lifetime(/*with_faults=*/true, seed);
    EXPECT_EQ(run.failures, 0) << "seed " << seed;
    EXPECT_GT(run.dropped, 0u) << "seed " << seed;
    EXPECT_LE(static_cast<double>(run.timeouts),
              1.5 * static_cast<double>(run.dropped))
        << "seed " << seed << ": " << run.timeouts << " timeouts vs "
        << run.dropped << " drops";
    EXPECT_EQ(run.residual, 0u) << "seed " << seed;
    EXPECT_EQ(run.claims, 0u) << "seed " << seed;
  }
}

// ---- Write-behind batch reliability ----------------------------------------
//
// A kBatchWrite envelope is unsequenced; each coalesced sub-op carries its
// own (client, op_seq) replay identity. These tests pin the per-sub-op
// exactly-once contract under duplication and crash, and the AIMD
// regression that one shed/timeout reply halves the window once regardless
// of how many sub-ops the envelope carried.

TEST(WriteBehindFaults, DuplicatedEnvelopeAppliesEachSubOpOnce) {
  net::ClusterConfig cfg;
  cfg.num_servers = 1;
  cfg.num_clients = 1;
  cfg.client.write_behind_bytes = 1024 * 1024;  // nothing auto-flushes
  cfg.client.rpc_timeout = 200 * kMillisecond;
  cfg.client.rpc_max_attempts = 4;
  pfs::Cluster cluster(cfg);

  // Duplicate EVERY client<->server message: the flush envelope arrives
  // twice, so the second copy must re-ack all sub-ops via the replay
  // window without re-applying a byte.
  FaultPlan plan(23);
  plan.set_default_spec(FaultSpec{.duplicate = 1.0});
  plan.set_scope_max_node(cfg.num_servers);
  cluster.set_fault_plan(&plan);

  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(256, 77);
  constexpr int kRuns = 6;

  std::vector<std::uint8_t> back(kRuns * 1024, 0xFF);
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src,
         std::vector<std::uint8_t>& out, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/wb-dup");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        // Disjoint runs with gaps: no coalescing, 6 sub-ops in one batch.
        for (int i = 0; i < kRuns; ++i) {
          Status w = co_await c.write_contig(f.handle, i * 1024, src.data(),
                                             256);
          EXPECT_TRUE(w.is_ok()) << w.to_string();
        }
        Status flushed = co_await c.flush_write_behind();
        EXPECT_TRUE(flushed.is_ok()) << flushed.to_string();
        Status r = co_await c.read_contig(
            f.handle, 0, out.data(), static_cast<std::int64_t>(out.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        done = true;
      }(*client, data, back, finished));
  cluster.run();
  ASSERT_TRUE(finished);

  for (int i = 0; i < kRuns; ++i) {
    EXPECT_EQ(std::memcmp(back.data() + i * 1024, data.data(), 256), 0)
        << "run " << i;
  }
  const pfs::ServerStats& st = cluster.server(0).stats();
  // Envelope handled twice; every sub-op applied exactly once, the
  // duplicate's copies all replay-suppressed.
  EXPECT_EQ(st.batch_requests, 2u);
  EXPECT_EQ(st.batch_sub_ops, 2u * kRuns);
  EXPECT_EQ(st.batch_subs_replayed, static_cast<std::uint64_t>(kRuns));
  EXPECT_EQ(st.bytes_written, static_cast<std::uint64_t>(kRuns) * 256u);
  EXPECT_EQ(client->wb_batches(), 1u);
}

TEST(WriteBehindFaults, BatchFlushSurvivesMidFlushCrash) {
  net::ClusterConfig cfg;
  cfg.num_servers = 1;
  cfg.num_clients = 1;
  cfg.client.write_behind_bytes = 1024 * 1024;
  cfg.client.rpc_timeout = 50 * kMillisecond;
  cfg.client.rpc_max_attempts = 6;
  cfg.client.rpc_backoff_base = 10 * kMillisecond;
  pfs::Cluster cluster(cfg);
  // The server dies just as the flush goes out and loses its replay
  // window; the retried envelope re-applies the same physical bytes, so
  // exactly-once degrades safely to idempotent-replay.
  cluster.schedule_server_crash(/*index=*/0, /*at=*/10 * kMillisecond,
                                /*restart_delay=*/30 * kMillisecond);

  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(2048, 78);

  std::vector<std::uint8_t> back(2048, 0xFF);
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, std::vector<std::uint8_t>& out,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/wb-crash-flush");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        // Flush launched just before the crash fires: the first attempt
        // dies with the server, retries carry it through the restart.
        co_await sched.delay(9 * kMillisecond - sched.now());
        Status flushed = co_await c.flush_write_behind();
        EXPECT_TRUE(flushed.is_ok()) << flushed.to_string();
        Status r = co_await c.read_contig(
            f.handle, 0, out.data(), static_cast<std::int64_t>(out.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        done = true;
      }(cluster.scheduler(), *client, data, back, finished));
  cluster.run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(back, data);
  EXPECT_EQ(cluster.server(0).stats().crashes, 1u);
  EXPECT_GE(client->rpc_retries(), 1u);
}

TEST(WriteBehindFaults, BatchTimeoutHalvesWindowOncePerReplyNotPerSubOp) {
  net::ClusterConfig cfg;
  cfg.num_servers = 1;
  cfg.num_clients = 1;
  cfg.client.write_behind_bytes = 1024 * 1024;
  cfg.client.flow_window = 8;
  cfg.client.rpc_timeout = 20 * kMillisecond;
  cfg.client.rpc_max_attempts = 2;
  cfg.client.rpc_backoff_base = 5 * kMillisecond;
  cfg.client.rpc_backoff_jitter = 0;
  pfs::Cluster cluster(cfg);
  // Down for the whole flush: both attempts time out. With 10 sub-ops in
  // the envelope, a per-sub-op decrease would slam the window to the floor
  // (1); the correct one-decrease-per-reply leaves 8 -> 4 -> 2.
  cluster.schedule_server_crash(/*index=*/0, /*at=*/10 * kMillisecond,
                                /*restart_delay=*/5000 * kMillisecond);

  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(128, 79);

  Status flush_status;
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, Status& flush_out,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/wb-window");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        for (int i = 0; i < 10; ++i) {  // gaps: 10 distinct sub-ops
          Status w = co_await c.write_contig(f.handle, i * 512, src.data(),
                                             128);
          EXPECT_TRUE(w.is_ok()) << w.to_string();
        }
        co_await sched.delay(12 * kMillisecond - sched.now());
        flush_out = co_await c.flush_write_behind();
        done = true;
      }(cluster.scheduler(), *client, data, flush_status, finished));
  cluster.run();
  ASSERT_TRUE(finished);

  // Retries exhausted against a dead server: typed reliability error.
  EXPECT_FALSE(flush_status.is_ok());
  EXPECT_TRUE(flush_status.code() == StatusCode::kUnavailable ||
              flush_status.code() == StatusCode::kTimedOut)
      << flush_status.to_string();
  EXPECT_EQ(client->wb_batches(), 1u);
  // Two timed-out attempts, two halvings — NOT ten.
  EXPECT_EQ(client->lane_health(0).window, 2);
}

}  // namespace
}  // namespace dtio
