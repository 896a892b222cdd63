// Overload protection and tail-latency robustness: server admission
// control (bounded request queues, typed kOverloaded sheds with
// retry_after hints), client AIMD flow control, per-server health
// tracking with a circuit breaker, hedged reads against stragglers, and
// deterministic degraded-node windows. Plus the mailbox primitives the
// layer is built on (timed receives at edge cases, two-tag receives,
// queued-byte accounting) and age-based replay-window expiry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/run_report.h"
#include "pfs/cluster.h"
#include "sim/mailbox.h"
#include "sim/scheduler.h"

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

net::ClusterConfig overload_config(int servers = 1, int clients = 1) {
  net::ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.num_clients = clients;
  cfg.strip_size = 1024;
  cfg.client.rpc_timeout = 20 * kMillisecond;
  cfg.client.rpc_max_attempts = 8;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  return cfg;
}

/// True when the run recorded a zero-length instant span named `name`.
bool instant_recorded(const obs::Observability& obs, std::string_view name) {
  for (const obs::Span& s : obs.spans.spans()) {
    if (s.name == name && s.end == s.start) return true;
  }
  return false;
}

// ---- Mailbox timed-receive edge cases --------------------------------------

TEST(MailboxTimedRecv, ZeroTimeoutTakesQueuedMessage) {
  sim::Scheduler sched;
  sim::Mailbox mailbox(sched);
  std::optional<sim::Message> got;
  sched.schedule_call(500 * kMicrosecond,
                      [&] { mailbox.deliver(sim::Message(2, 7, 64, 41)); });
  sched.spawn([](sim::Scheduler& s, sim::Mailbox& mb,
                 std::optional<sim::Message>& got) -> Task<void> {
    co_await s.delay(kMillisecond);
    // Ready path: the message is already queued, so a zero timeout still
    // returns it without suspending.
    got = co_await mb.recv(sim::kAnySource, 7, 0);
  }(sched, mailbox, got));
  sched.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->take<int>(), 41);
}

TEST(MailboxTimedRecv, ZeroTimeoutExpiresImmediatelyWhenEmpty) {
  sim::Scheduler sched;
  sim::Mailbox mailbox(sched);
  std::optional<sim::Message> got;
  SimTime expired_at = -1;
  sched.spawn([](sim::Scheduler& s, sim::Mailbox& mb,
                 std::optional<sim::Message>& got,
                 SimTime& expired_at) -> Task<void> {
    co_await s.delay(kMillisecond);
    got = co_await mb.recv(sim::kAnySource, 7, 0);
    expired_at = s.now();
  }(sched, mailbox, got, expired_at));
  sched.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(expired_at, kMillisecond);  // no simulated time consumed
}

TEST(MailboxTimedRecv, NoDeadlineSchedulesNoTimer) {
  // kNoDeadline waits forever: nothing is scheduled, so with no sender the
  // run drains at the park time and the receiver stays parked.
  sim::Scheduler sched;
  sim::Mailbox mailbox(sched);
  bool resumed = false;
  sched.spawn([](sim::Scheduler& s, sim::Mailbox& mb,
                 bool& resumed) -> Task<void> {
    co_await s.delay(kMillisecond);
    (void)co_await mb.recv(sim::kAnySource, 7, sim::kNoDeadline);
    resumed = true;
  }(sched, mailbox, resumed));
  sched.run();
  EXPECT_FALSE(resumed);
  EXPECT_EQ(sched.now(), kMillisecond);
  EXPECT_EQ(mailbox.waiting(), 1u);
}

TEST(MailboxTimedRecv, DeadlineExactArrivalLoses) {
  // The expiry callback is scheduled when the waiter parks; a delivery
  // scheduled later for the very same instant runs after it. The receive
  // must report a timeout and the message must stay queued, not vanish.
  sim::Scheduler sched;
  sim::Mailbox mailbox(sched);
  std::optional<sim::Message> got;
  sched.spawn([](sim::Mailbox& mb,
                 std::optional<sim::Message>& got) -> Task<void> {
    got = co_await mb.recv(sim::kAnySource, 7, 5 * kMillisecond);
  }(mailbox, got));
  sched.spawn([](sim::Scheduler& s, sim::Mailbox& mb) -> Task<void> {
    co_await s.delay(5 * kMillisecond);
    mb.deliver(sim::Message(1, 7, 64, 9));
  }(sched, mailbox));
  sched.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(mailbox.queued(), 1u);
}

TEST(MailboxTimedRecv, ClearQueueWhileWaiterParkedExpiresCleanly) {
  // clear_queue (the crash path) discards undelivered messages but leaves
  // parked waiters alone: the timed waiter still expires on schedule and
  // the mailbox keeps working afterwards.
  sim::Scheduler sched;
  sim::Mailbox mailbox(sched);
  std::optional<sim::Message> first, second;
  std::size_t cleared = 0;
  sched.spawn([](sim::Mailbox& mb, std::optional<sim::Message>& first,
                 std::optional<sim::Message>& second) -> Task<void> {
    first = co_await mb.recv(sim::kAnySource, 7, 5 * kMillisecond);
    second = co_await mb.recv(sim::kAnySource, 7, 10 * kMillisecond);
  }(mailbox, first, second));
  sched.schedule_call(kMillisecond,
                      [&] { mailbox.deliver(sim::Message(1, 9, 64, 1)); });
  sched.schedule_call(2 * kMillisecond, [&] { cleared = mailbox.clear_queue(); });
  sched.schedule_call(6 * kMillisecond,
                      [&] { mailbox.deliver(sim::Message(1, 7, 64, 2)); });
  sched.run();
  EXPECT_EQ(cleared, 1u);
  EXPECT_FALSE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->take<int>(), 2);
  EXPECT_EQ(mailbox.queued_bytes(), 0u);
}

TEST(MailboxQueuedBytes, TracksDeliverTakeAndClear) {
  sim::Scheduler sched;
  sim::Mailbox mailbox(sched);
  sched.schedule_call(500 * kMicrosecond, [&] {
    mailbox.deliver(sim::Message(1, 7, 100, 1));
    mailbox.deliver(sim::Message(1, 9, 50, 2));
  });
  bool done = false;
  sched.spawn([](sim::Scheduler& s, sim::Mailbox& mb, bool& done) -> Task<void> {
    co_await s.delay(kMillisecond);
    EXPECT_EQ(mb.queued_bytes(), 150u);
    auto got = co_await mb.recv(sim::kAnySource, 7, 0);
    EXPECT_TRUE(got.has_value());
    EXPECT_EQ(mb.queued_bytes(), 50u);  // the 100-byte message left
    mb.clear_queue();
    EXPECT_EQ(mb.queued_bytes(), 0u);
    done = true;
  }(sched, mailbox, done));
  sched.run();
  EXPECT_TRUE(done);
}

// ---- Two-tag receive (the hedging primitive) -------------------------------

TEST(MailboxRecv2, FirstDeliveryWinsByTag) {
  sim::Scheduler sched;
  sim::Mailbox mailbox(sched);
  std::optional<sim::Message> got;
  sched.spawn([](sim::Mailbox& mb,
                 std::optional<sim::Message>& got) -> Task<void> {
    got = co_await mb.recv(sim::kAnySource, 7, 10 * kMillisecond, 9);
  }(mailbox, got));
  sched.schedule_call(kMillisecond,
                      [&] { mailbox.deliver(sim::Message(1, 9, 64, 90)); });
  sched.schedule_call(2 * kMillisecond,
                      [&] { mailbox.deliver(sim::Message(1, 7, 64, 70)); });
  sched.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 9u);
  EXPECT_EQ(got->take<int>(), 90);
  // The losing message (not a reply, so never claimed) stays queued
  // instead of being mistaken for anything.
  EXPECT_EQ(mailbox.queued(), 1u);
}

TEST(MailboxRecv2, ReadyPathTakesQueuedSecondTag) {
  sim::Scheduler sched;
  sim::Mailbox mailbox(sched);
  std::optional<sim::Message> got;
  SimTime got_at = -1;
  sched.schedule_call(500 * kMicrosecond,
                      [&] { mailbox.deliver(sim::Message(1, 9, 64, 90)); });
  sched.spawn([](sim::Scheduler& s, sim::Mailbox& mb,
                 std::optional<sim::Message>& got,
                 SimTime& got_at) -> Task<void> {
    co_await s.delay(kMillisecond);
    got = co_await mb.recv(sim::kAnySource, 7, kMillisecond, 9);
    got_at = s.now();
  }(sched, mailbox, got, got_at));
  sched.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 9u);
  EXPECT_EQ(got_at, kMillisecond);  // immediate, no suspension
}

TEST(MailboxRecv2, TimesOutWhenNeitherTagArrives) {
  sim::Scheduler sched;
  sim::Mailbox mailbox(sched);
  std::optional<sim::Message> got;
  SimTime expired_at = -1;
  sched.spawn([](sim::Scheduler& s, sim::Mailbox& mb,
                 std::optional<sim::Message>& got,
                 SimTime& expired_at) -> Task<void> {
    got = co_await mb.recv(sim::kAnySource, 7, 3 * kMillisecond, 9);
    expired_at = s.now();
  }(sched, mailbox, got, expired_at));
  sched.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(expired_at, 3 * kMillisecond);
}

// ---- Server admission control ----------------------------------------------

TEST(Admission, UnboundedConfigNeverSheds) {
  auto cfg = overload_config();
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(8 * 1024, 51);

  std::uint64_t handle = 0;
  cluster.scheduler().spawn([](Client& c, std::uint64_t& h) -> Task<void> {
    MetaResult f = co_await c.create("/unbounded");
    EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
    h = f.handle;
  }(*client, handle));
  cluster.run();

  int oks = 0;
  for (int i = 0; i < 8; ++i) {
    cluster.scheduler().spawn(
        [](Client& c, std::uint64_t h, int i,
           const std::vector<std::uint8_t>& src, int& oks) -> Task<void> {
          Status w = co_await c.write_contig(h, i * 1024, src.data() + i * 1024,
                                             1024);
          EXPECT_TRUE(w.is_ok()) << w.to_string();
          if (w.is_ok()) ++oks;
        }(*client, handle, i, data, oks));
  }
  cluster.run();
  EXPECT_EQ(oks, 8);
  EXPECT_EQ(cluster.server(0).stats().sheds_depth, 0u);
  EXPECT_EQ(cluster.server(0).stats().sheds_bytes, 0u);
  EXPECT_EQ(client->overloads_seen(), 0u);
}

TEST(Admission, DepthBoundShedsAndRetriesRecover) {
  auto cfg = overload_config();
  cfg.server.max_queue_depth = 1;
  pfs::Cluster cluster(cfg);
  obs::Observability obs;
  cluster.set_observability(&obs);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(6 * 2048, 52);

  std::uint64_t handle = 0;
  cluster.scheduler().spawn([](Client& c, std::uint64_t& h) -> Task<void> {
    MetaResult f = co_await c.create("/depth");
    EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
    h = f.handle;
  }(*client, handle));
  cluster.run();

  int oks = 0;
  for (int i = 0; i < 6; ++i) {
    cluster.scheduler().spawn(
        [](Client& c, std::uint64_t h, int i,
           const std::vector<std::uint8_t>& src, int& oks) -> Task<void> {
          Status w = co_await c.write_contig(h, i * 2048, src.data() + i * 2048,
                                             2048);
          EXPECT_TRUE(w.is_ok()) << w.to_string();
          if (w.is_ok()) ++oks;
        }(*client, handle, i, data, oks));
  }
  cluster.run();

  bool verified = false;
  cluster.scheduler().spawn(
      [](Client& c, std::uint64_t h, const std::vector<std::uint8_t>& src,
         bool& done) -> Task<void> {
        std::vector<std::uint8_t> back(src.size());
        Status r = co_await c.read_contig(
            h, 0, back.data(), static_cast<std::int64_t>(back.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        EXPECT_EQ(back, src);  // every shed write eventually applied once
        done = true;
      }(*client, handle, data, verified));
  cluster.run();

  EXPECT_EQ(oks, 6);
  EXPECT_TRUE(verified);
  EXPECT_GT(cluster.server(0).stats().sheds_depth, 0u);
  EXPECT_GT(cluster.server(0).stats().max_backlog, 1u);
  EXPECT_GT(client->overloads_seen(), 0u);
  EXPECT_GT(client->rpc_retries(), 0u);
  EXPECT_TRUE(instant_recorded(obs, "shed"));
}

TEST(Admission, ByteBoundShedsAndRetriesRecover) {
  auto cfg = overload_config();
  cfg.server.max_queued_bytes = 4096;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(6 * 8192, 53);

  std::uint64_t handle = 0;
  cluster.scheduler().spawn([](Client& c, std::uint64_t& h) -> Task<void> {
    MetaResult f = co_await c.create("/bytes");
    EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
    h = f.handle;
  }(*client, handle));
  cluster.run();

  int oks = 0;
  for (int i = 0; i < 6; ++i) {
    cluster.scheduler().spawn(
        [](Client& c, std::uint64_t h, int i,
           const std::vector<std::uint8_t>& src, int& oks) -> Task<void> {
          Status w = co_await c.write_contig(h, i * 8192, src.data() + i * 8192,
                                             8192);
          EXPECT_TRUE(w.is_ok()) << w.to_string();
          if (w.is_ok()) ++oks;
        }(*client, handle, i, data, oks));
  }
  cluster.run();
  EXPECT_EQ(oks, 6);
  EXPECT_GT(cluster.server(0).stats().sheds_bytes, 0u);
  EXPECT_GT(client->overloads_seen(), 0u);
}

TEST(Admission, LockTrafficIsNeverShed) {
  // The client lock path has no retry layer (untimed recv); a shed reply
  // would strand it. Flood a depth-1 server and issue lock/unlock through
  // the storm: the data ops shed and retry, the lock ops sail through.
  auto cfg = overload_config();
  cfg.server.max_queue_depth = 1;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(6 * 2048, 54);

  std::uint64_t handle = 0;
  cluster.scheduler().spawn([](Client& c, std::uint64_t& h) -> Task<void> {
    MetaResult f = co_await c.create("/locked");
    EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
    h = f.handle;
  }(*client, handle));
  cluster.run();

  int oks = 0;
  for (int i = 0; i < 6; ++i) {
    cluster.scheduler().spawn(
        [](Client& c, std::uint64_t h, int i,
           const std::vector<std::uint8_t>& src, int& oks) -> Task<void> {
          Status w = co_await c.write_contig(h, i * 2048, src.data() + i * 2048,
                                             2048);
          if (w.is_ok()) ++oks;
        }(*client, handle, i, data, oks));
  }
  bool lock_ok = false;
  cluster.scheduler().spawn(
      [](Client& c, std::uint64_t h, bool& lock_ok) -> Task<void> {
        Status l = co_await c.lock(h);
        EXPECT_TRUE(l.is_ok()) << l.to_string();
        Status u = co_await c.unlock(h);
        EXPECT_TRUE(u.is_ok()) << u.to_string();
        lock_ok = l.is_ok() && u.is_ok();
      }(*client, handle, lock_ok));
  cluster.run();
  EXPECT_EQ(oks, 6);
  EXPECT_TRUE(lock_ok);
  EXPECT_GT(cluster.server(0).stats().sheds_depth, 0u);
}

// ---- Client AIMD flow control ----------------------------------------------

TEST(FlowControl, WindowShrinksUnderTimeoutsThenRecovers) {
  auto cfg = overload_config();
  cfg.client.rpc_timeout = 5 * kMillisecond;
  cfg.client.flow_window = 8;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  plan.add_outage(/*node=*/0, 5 * kMillisecond, 40 * kMillisecond);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(1024, 55);

  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/aimd");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        co_await sched.delay(5 * kMillisecond - sched.now());
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
  EXPECT_GE(client->rpc_timeouts(), 3u);
  const auto health = client->lane_health(0);
  // Each timeout halved the window (8 -> 4 -> 2 -> 1); the successes after
  // the outage climbed it back additively, well short of the cap.
  EXPECT_LT(health.window, 8);
  EXPECT_GE(health.window, 1);
}

std::uint64_t backlog_with_flow_window(int flow_window) {
  auto cfg = overload_config();
  cfg.client.flow_window = flow_window;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(8 * 1024, 56);

  std::uint64_t handle = 0;
  cluster.scheduler().spawn([](Client& c, std::uint64_t& h) -> Task<void> {
    MetaResult f = co_await c.create("/backlog");
    EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
    h = f.handle;
  }(*client, handle));
  cluster.run();

  int oks = 0;
  for (int i = 0; i < 8; ++i) {
    cluster.scheduler().spawn(
        [](Client& c, std::uint64_t h, int i,
           const std::vector<std::uint8_t>& src, int& oks) -> Task<void> {
          Status w = co_await c.write_contig(h, i * 1024, src.data() + i * 1024,
                                             1024);
          EXPECT_TRUE(w.is_ok()) << w.to_string();
          if (w.is_ok()) ++oks;
        }(*client, handle, i, data, oks));
  }
  cluster.run();
  EXPECT_EQ(oks, 8);
  return cluster.server(0).stats().max_backlog;
}

TEST(FlowControl, TinyWindowBoundsServerBacklog) {
  const std::uint64_t unbounded = backlog_with_flow_window(0);
  const std::uint64_t window_one = backlog_with_flow_window(1);
  // Eight concurrent writes: without flow control they pile up at the
  // server; with a window of one the client itself serializes them.
  EXPECT_GE(unbounded, 3u);
  EXPECT_LE(window_one, 1u);
}

TEST(FlowControl, ConcurrentOpsStayCorrectUnderTinyWindow) {
  auto cfg = overload_config();
  cfg.client.flow_window = 2;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(6 * 2048, 57);

  std::uint64_t handle = 0;
  cluster.scheduler().spawn([](Client& c, std::uint64_t& h) -> Task<void> {
    MetaResult f = co_await c.create("/window2");
    EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
    h = f.handle;
  }(*client, handle));
  cluster.run();

  int write_oks = 0;
  for (int i = 0; i < 6; ++i) {
    cluster.scheduler().spawn(
        [](Client& c, std::uint64_t h, int i,
           const std::vector<std::uint8_t>& src, int& oks) -> Task<void> {
          Status w = co_await c.write_contig(h, i * 2048, src.data() + i * 2048,
                                             2048);
          if (w.is_ok()) ++oks;
        }(*client, handle, i, data, write_oks));
  }
  cluster.run();

  int read_oks = 0;
  for (int i = 0; i < 6; ++i) {
    cluster.scheduler().spawn(
        [](Client& c, std::uint64_t h, int i,
           const std::vector<std::uint8_t>& src, int& oks) -> Task<void> {
          std::vector<std::uint8_t> back(2048);
          Status r = co_await c.read_contig(h, i * 2048, back.data(), 2048);
          EXPECT_TRUE(r.is_ok()) << r.to_string();
          const bool match = std::equal(back.begin(), back.end(),
                                        src.begin() + i * 2048);
          EXPECT_TRUE(match) << "slice " << i;
          if (r.is_ok() && match) ++oks;
        }(*client, handle, i, data, read_oks));
  }
  cluster.run();
  EXPECT_EQ(write_oks, 6);
  EXPECT_EQ(read_oks, 6);
}

// ---- Circuit breaker --------------------------------------------------------

TEST(Breaker, DisabledByDefaultNeverFailsFast) {
  auto cfg = overload_config();
  cfg.client.rpc_timeout = 3 * kMillisecond;
  cfg.client.rpc_max_attempts = 3;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  plan.add_outage(/*node=*/0, 0, kSecond);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);

  Status status;
  cluster.scheduler().spawn([](Client& c, Status& out) -> Task<void> {
    out = (co_await c.create("/nobreaker")).status;
  }(*client, status));
  cluster.run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.to_string();
  EXPECT_EQ(client->breaker_fast_fails(), 0u);
  EXPECT_EQ(client->lane_health(0).breaker, 0);
}

TEST(Breaker, OpensAfterConsecutiveTimeoutsAndFailsFast) {
  auto cfg = overload_config();
  cfg.client.rpc_timeout = 3 * kMillisecond;
  cfg.client.rpc_max_attempts = 5;
  cfg.client.rpc_backoff_base = kMillisecond;
  cfg.client.breaker_failures = 3;
  cfg.client.breaker_open_duration = 200 * kMillisecond;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  plan.add_outage(/*node=*/0, 5 * kMillisecond, 10 * kSecond);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(512, 58);

  Status first, second;
  std::uint64_t timeouts_after_first = 0;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, Status& first, Status& second,
         std::uint64_t& timeouts_after_first) -> Task<void> {
        MetaResult f = co_await c.create("/breaker");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        co_await sched.delay(5 * kMillisecond - sched.now());
        first = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        timeouts_after_first = c.rpc_timeouts();
        // The breaker opened mid-op; this op must fail in microseconds
        // without burning a single additional timeout.
        second = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
      }(cluster.scheduler(), *client, data, first, second,
        timeouts_after_first));
  cluster.run();
  EXPECT_EQ(first.code(), StatusCode::kUnavailable) << first.to_string();
  EXPECT_EQ(second.code(), StatusCode::kUnavailable) << second.to_string();
  EXPECT_GE(client->breaker_fast_fails(), 1u);
  EXPECT_EQ(client->rpc_timeouts(), timeouts_after_first);
  EXPECT_EQ(client->lane_health(0).breaker, 1);  // still open
}

TEST(Breaker, HalfOpenProbeRecoversAfterOutageEnds) {
  auto cfg = overload_config();
  cfg.client.rpc_timeout = 3 * kMillisecond;
  cfg.client.rpc_max_attempts = 3;
  cfg.client.rpc_backoff_base = kMillisecond;
  cfg.client.breaker_failures = 2;
  cfg.client.breaker_open_duration = 20 * kMillisecond;
  pfs::Cluster cluster(cfg);
  obs::Observability obs;
  cluster.set_observability(&obs);
  FaultPlan plan(5);
  plan.add_outage(/*node=*/0, 5 * kMillisecond, 60 * kMillisecond);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(512, 59);

  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/halfopen");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        co_await sched.delay(6 * kMillisecond - sched.now());
        Status w;
        for (int tries = 0; tries < 40; ++tries) {
          w = co_await c.write_contig(
              f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
          if (w.is_ok()) break;
          co_await sched.delay(10 * kMillisecond);
        }
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
  EXPECT_GE(client->breaker_fast_fails(), 1u);
  EXPECT_EQ(client->lane_health(0).breaker, 0);  // closed again
  EXPECT_TRUE(instant_recorded(obs, "breaker_open"));
  EXPECT_TRUE(instant_recorded(obs, "breaker_half_open"));
  EXPECT_TRUE(instant_recorded(obs, "breaker_close"));
}

// A half-open probe answered with a definitive application-level error
// (kNotFound here) proves the server alive and must settle the probe: the
// breaker closes and the consecutive-failure count resets. Regression
// test for the probe wedging half-open with probe_in_flight stuck set,
// which made every later RPC to a healthy server fail fast forever.
TEST(Breaker, ErrorReplyProbeSettlesHalfOpenBreaker) {
  auto cfg = overload_config();
  cfg.client.rpc_timeout = 3 * kMillisecond;
  cfg.client.rpc_max_attempts = 2;
  cfg.client.rpc_backoff_base = kMillisecond;
  cfg.client.breaker_failures = 2;
  cfg.client.breaker_open_duration = 20 * kMillisecond;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  plan.add_outage(/*node=*/0, 5 * kMillisecond, 60 * kMillisecond);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(512, 61);

  Status probe, after;
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, Status& probe, Status& after,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/probe");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        co_await sched.delay(6 * kMillisecond - sched.now());
        // Two timed-out attempts during the outage trip the breaker.
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_FALSE(w.is_ok());
        // Past outage end and cool-down, probe the half-open lane with an
        // op whose reply is a definitive error.
        co_await sched.delay(100 * kMillisecond);
        probe = (co_await c.open("/missing")).status;
        after = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        done = true;
      }(cluster.scheduler(), *client, data, probe, after, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(probe.code(), StatusCode::kNotFound) << probe.to_string();
  EXPECT_TRUE(after.is_ok()) << after.to_string();
  EXPECT_EQ(client->lane_health(0).breaker, 0);  // closed by the error reply
  EXPECT_EQ(client->lane_health(0).consecutive_failures, 0);
}

// ---- Hedged reads -----------------------------------------------------------

// Config for straggler scenarios: one strip per server so an 8 KiB read
// maps to one 8 KiB region per touched server. Healthy attempt latency is
// ~2.3 ms; degraded 4x it is ~6.4 ms, so a 5 ms timeout sits between the
// two and the hedge's extended deadline (quantile + fresh timeout) covers
// the slow-but-alive primary.
net::ClusterConfig straggler_config(int servers) {
  net::ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.num_clients = 1;
  cfg.strip_size = 8192;
  cfg.client.rpc_timeout = 5 * kMillisecond;
  cfg.client.rpc_max_attempts = 10;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  return cfg;
}

TEST(Hedging, OffByDefaultIssuesNoHedges) {
  auto cfg = straggler_config(1);
  cfg.client.rpc_timeout = 100 * kMillisecond;  // no timeouts either
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  plan.add_degraded(/*node=*/0, 2 * kMillisecond, 50 * kMillisecond, 4.0);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(8192, 60);

  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/nohedge");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        std::vector<std::uint8_t> back(src.size());
        for (int i = 0; i < 5; ++i) {
          Status r = co_await c.read_contig(
              f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
          EXPECT_TRUE(r.is_ok()) << r.to_string();
          EXPECT_EQ(back, src);
        }
        done = true;
      }(*client, data, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(client->hedges_issued(), 0u);
  EXPECT_GT(cluster.server(0).stats().degraded_requests, 0u);
}

TEST(Hedging, RequiresMinimumSamplesBeforeArming) {
  auto cfg = straggler_config(1);
  cfg.client.rpc_timeout = 100 * kMillisecond;
  cfg.client.hedge_quantile = 95;
  cfg.client.hedge_min_samples = 1000;  // never reached in this run
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(8192, 61);

  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, FaultPlan& plan, Client& c,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/minsamples");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        std::vector<std::uint8_t> back(src.size());
        for (int i = 0; i < 5; ++i) {
          Status r = co_await c.read_contig(
              f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
          EXPECT_TRUE(r.is_ok()) << r.to_string();
        }
        plan.add_degraded(0, sched.now(), sched.now() + 30 * kMillisecond, 4.0);
        Status r = co_await c.read_contig(
            f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        EXPECT_EQ(back, src);
        done = true;
      }(cluster.scheduler(), plan, *client, data, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(client->hedges_issued(), 0u);
}

TEST(Hedging, HedgeWinsWhenPrimaryRequestIsDropped) {
  auto cfg = straggler_config(1);
  cfg.client.rpc_timeout = 20 * kMillisecond;
  cfg.client.hedge_quantile = 95;
  cfg.client.hedge_min_samples = 8;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(8192, 62);

  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, FaultPlan& plan, Client& c,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/hedgewin");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        std::vector<std::uint8_t> back(src.size());
        for (int i = 0; i < 16; ++i) {  // arm the lane's latency quantile
          Status r = co_await c.read_contig(
              f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
          EXPECT_TRUE(r.is_ok()) << r.to_string();
        }
        // Swallow the primary request (in flight ~100-200 us after issue);
        // the hedge fires at the lane's p95 (~2.3 ms), far past the window,
        // and its reply is the one that completes the op — no timeout.
        plan.add_window(/*node=*/0, sched.now() + 20 * kMicrosecond,
                        sched.now() + 400 * kMicrosecond,
                        FaultSpec{.drop = 1.0});
        std::fill(back.begin(), back.end(), 0);
        Status r = co_await c.read_contig(
            f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        EXPECT_EQ(back, src);
        done = true;
      }(cluster.scheduler(), plan, *client, data, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(client->hedges_issued(), 1u);
  EXPECT_EQ(client->hedges_won(), 1u);
  EXPECT_EQ(client->rpc_timeouts(), 0u);
  EXPECT_GE(plan.counters().dropped, 1u);
}

TEST(Hedging, SlowButAlivePrimaryCountsViaExtendedDeadline) {
  // A 4x-degraded server pushes the attempt past rpc_timeout. Without
  // hedging that is a discarded attempt; with it, the hedge extends the
  // wait by a fresh timeout on both tags and the slow primary's reply
  // still completes the op — no timeout, no retry.
  auto cfg = straggler_config(1);
  cfg.client.hedge_quantile = 95;
  cfg.client.hedge_min_samples = 8;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(8192, 63);

  SimTime degraded_read_latency = 0;
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, FaultPlan& plan, Client& c,
         const std::vector<std::uint8_t>& src, SimTime& latency,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/slowprimary");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        std::vector<std::uint8_t> back(src.size());
        for (int i = 0; i < 16; ++i) {
          Status r = co_await c.read_contig(
              f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
          EXPECT_TRUE(r.is_ok()) << r.to_string();
        }
        plan.add_degraded(0, sched.now(), sched.now() + 30 * kMillisecond, 4.0);
        std::fill(back.begin(), back.end(), 0);
        const SimTime t0 = sched.now();
        Status r = co_await c.read_contig(
            f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
        latency = sched.now() - t0;
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        EXPECT_EQ(back, src);
        done = true;
      }(cluster.scheduler(), plan, *client, data, degraded_read_latency,
        finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(client->hedges_issued(), 1u);
  EXPECT_EQ(client->hedges_won(), 0u);  // the primary got there first
  EXPECT_EQ(client->rpc_timeouts(), 0u);
  EXPECT_EQ(client->rpc_retries(), 0u);
  // The op outlived rpc_timeout — only the extended deadline saved it.
  EXPECT_GT(degraded_read_latency, cluster.config().client.rpc_timeout);
}

TEST(Hedging, BreakerOpenDuringHedgeDelaySuppressesHedge) {
  // Fail-fast hedging: a hedge armed while the lane was healthy must NOT
  // be issued if the breaker opens during the hedge delay — aiming a
  // second copy at a server already judged down is the one place extra
  // load cannot help. Timeline (T = outage start, all deterministic with
  // jitter off): a concurrent write times out at T+20ms (failure 1) and
  // again at T+42ms, opening the breaker. The probe read issues at T+41ms
  // — breaker still closed, hedge armed at the lane's p95 (~2.3ms) — and
  // reaches its hedge-issue point at ~T+43.3ms with the breaker now open:
  // the hedge is suppressed and the primary gets the full fresh timeout.
  auto cfg = straggler_config(1);
  cfg.client.rpc_timeout = 20 * kMillisecond;
  cfg.client.rpc_max_attempts = 5;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  cfg.client.rpc_backoff_jitter = 0;  // exact breaker-open timing
  cfg.client.hedge_quantile = 95;
  cfg.client.hedge_min_samples = 8;
  cfg.client.breaker_failures = 2;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(5);
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(8192, 65);

  Status write_status, read_status;
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, FaultPlan& plan, Client& c,
         const std::vector<std::uint8_t>& src, Status& write_status,
         Status& read_status, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/suppress");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        std::vector<std::uint8_t> back(src.size());
        for (int i = 0; i < 16; ++i) {  // arm the lane's latency quantile
          Status r = co_await c.read_contig(
              f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
          EXPECT_TRUE(r.is_ok()) << r.to_string();
        }
        const SimTime t0 = sched.now();
        plan.add_outage(/*node=*/0, t0, t0 + 300 * kMillisecond);
        // Writes never hedge, so this one only feeds the breaker: its two
        // timeouts open it at t0+42ms.
        sched.spawn([](Client& c, std::uint64_t handle,
                       const std::vector<std::uint8_t>& src,
                       Status& out) -> Task<void> {
          out = co_await c.write_contig(
              handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        }(c, f.handle, src, write_status));
        // A fresh op issued while the breaker is open (t0+50ms, inside the
        // 50 ms cool-down that starts at t0+42ms) fails fast: microseconds,
        // not a burned timeout. The breaker check is per RPC, so it must be
        // a new op, not a retry of one already in flight.
        sched.spawn([](sim::Scheduler& sched, Client& c, std::uint64_t handle,
                       SimTime at, std::int64_t n) -> Task<void> {
          co_await sched.delay(at - sched.now());
          std::vector<std::uint8_t> buf(static_cast<std::size_t>(n));
          const SimTime t1 = sched.now();
          Status fast = co_await c.read_contig(handle, 0, buf.data(), n);
          EXPECT_FALSE(fast.is_ok());
          EXPECT_LT(sched.now() - t1, kMillisecond);
        }(sched, c, f.handle, t0 + 50 * kMillisecond,
          static_cast<std::int64_t>(src.size())));
        co_await sched.delay(t0 + 41 * kMillisecond - sched.now());
        read_status = co_await c.read_contig(
            f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
        done = true;
      }(cluster.scheduler(), plan, *client, data, write_status, read_status,
        finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(client->hedges_suppressed(), 1u);
  EXPECT_EQ(client->hedges_issued(), 0u);  // suppressed, not merely lost
  EXPECT_GT(client->breaker_fast_fails(), 0u);
  // The outage outlives both ops' retry budgets; they fail typed.
  EXPECT_FALSE(write_status.is_ok()) << write_status.to_string();
  EXPECT_FALSE(read_status.is_ok()) << read_status.to_string();
  EXPECT_GT(plan.counters().outage_dropped, 0u);
}

// ---- Degraded-node windows --------------------------------------------------

TEST(DegradedWindows, FactorIsMaxOverMatchingWindows) {
  FaultPlan plan(1);
  EXPECT_FALSE(plan.has_degraded_windows());
  plan.add_degraded(/*node=*/2, kMillisecond, 3 * kMillisecond, 2.0);
  plan.add_degraded(/*node=*/2, 2 * kMillisecond, 4 * kMillisecond, 5.0);
  plan.add_degraded(/*node=*/3, 0, 10 * kMillisecond, 8.0);
  EXPECT_TRUE(plan.has_degraded_windows());
  EXPECT_DOUBLE_EQ(plan.degraded_factor(2, 0), 1.0);          // before
  EXPECT_DOUBLE_EQ(plan.degraded_factor(2, kMillisecond), 2.0);
  EXPECT_DOUBLE_EQ(plan.degraded_factor(2, 2500 * kMicrosecond), 5.0);  // max
  EXPECT_DOUBLE_EQ(plan.degraded_factor(2, 3500 * kMicrosecond), 5.0);
  EXPECT_DOUBLE_EQ(plan.degraded_factor(2, 4 * kMillisecond), 1.0);  // end excl
  EXPECT_DOUBLE_EQ(plan.degraded_factor(0, kMillisecond), 1.0);  // other node
  EXPECT_DOUBLE_EQ(plan.degraded_factor(3, kMillisecond), 8.0);
}

TEST(DegradedWindows, ConsumeNoRandomness) {
  // Two plans with the same seed, one with a degraded window added: every
  // probabilistic verdict must be identical — the window may not shift
  // the RNG stream.
  const FaultSpec spec{.drop = 0.5};
  FaultPlan plan_a(7), plan_b(7);
  plan_a.set_default_spec(spec);
  plan_b.set_default_spec(spec);
  plan_b.add_degraded(/*node=*/2, 0, 10 * kMicrosecond, 4.0);
  for (int i = 0; i < 100; ++i) {
    const SimTime now = i * kMicrosecond;
    sim::Message msg_a(1, 1, 64, i);
    sim::Message msg_b(1, 1, 64, i);
    EXPECT_EQ(plan_a.apply(1, 2, now, msg_a).deliver,
              plan_b.apply(1, 2, now, msg_b).deliver)
        << "message " << i;
  }
  EXPECT_EQ(plan_a.counters().dropped, plan_b.counters().dropped);
}

struct StragglerRun {
  SimTime end_time = 0;
  std::uint64_t degraded_requests = 0;
  std::uint64_t retries = 0;
  bool ok = false;
};

StragglerRun run_straggler(bool degraded) {
  auto cfg = overload_config();
  cfg.seed = 4321;
  cfg.client.rpc_timeout = 100 * kMillisecond;  // slow, not broken
  pfs::Cluster cluster(cfg);
  FaultPlan plan(mix_seed(cluster.config().seed, /*salt=*/0xD9));
  if (degraded) {
    plan.add_degraded(/*node=*/0, 5 * kMillisecond, 500 * kMillisecond, 4.0);
  }
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(4096, 64);

  StragglerRun out;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src,
         StragglerRun& out) -> Task<void> {
        MetaResult f = co_await c.create("/straggler");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        std::vector<std::uint8_t> back(src.size());
        bool all = w.is_ok();
        for (int i = 0; i < 10; ++i) {
          Status r = co_await c.read_contig(
              f.handle, 0, back.data(), static_cast<std::int64_t>(back.size()));
          all = all && r.is_ok() && back == src;
        }
        out.ok = all;
      }(*client, data, out));
  cluster.run();
  out.end_time = cluster.scheduler().now();
  out.degraded_requests = cluster.server(0).stats().degraded_requests;
  out.retries = client->rpc_retries();
  return out;
}

TEST(DegradedWindows, StragglerSlowsTheRunButStaysCorrect) {
  const StragglerRun clean = run_straggler(false);
  const StragglerRun slow = run_straggler(true);
  EXPECT_TRUE(clean.ok);
  EXPECT_TRUE(slow.ok);
  EXPECT_EQ(clean.degraded_requests, 0u);
  EXPECT_GT(slow.degraded_requests, 0u);
  EXPECT_GT(slow.end_time, clean.end_time);
}

TEST(DegradedWindows, SameSeedSameRun) {
  const StragglerRun a = run_straggler(true);
  const StragglerRun b = run_straggler(true);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.degraded_requests, b.degraded_requests);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_TRUE(a.ok && b.ok);
}

// ---- Replay-window age expiry -----------------------------------------------

TEST(ReplayWindow, ExpiredAckReexecutesIdempotently) {
  // The LostAck scenario, but with a replay-window age far shorter than
  // the retry interval: by the time the retry lands, the stored ack has
  // been evicted and the write re-executes — which is safe, because the
  // retry carries the same bytes to the same offset.
  auto cfg = overload_config();
  cfg.client.rpc_timeout = 10 * kMillisecond;
  cfg.client.rpc_max_attempts = 5;
  cfg.server.replay_window_max_age = 5 * kMillisecond;
  pfs::Cluster cluster(cfg);
  constexpr SimTime kIssueAt = 5 * kMillisecond;
  FaultPlan plan(5);
  plan.add_window(/*node=*/0, kIssueAt + 800 * kMicrosecond,
                  kIssueAt + 8 * kMillisecond, FaultSpec{.drop = 1.0});
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(512, 65);

  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/expired");
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
  EXPECT_EQ(cluster.server(0).stats().replays_suppressed, 0u);
  EXPECT_GE(cluster.server(0).stats().replays_expired, 1u);
  // Re-executed, not replayed: the write applied twice (idempotently).
  EXPECT_EQ(cluster.server(0).stats().bytes_written, 1024u);
}

/// The LostAck scenario (a write applied, its ack lost, the retry landing
/// after the drop window) with a window of `entries` acks, and with server
/// 0 crashing between the write and its retry when `crash`; returns
/// server 0's stats.
pfs::ServerStats lost_ack_run(std::size_t entries, bool crash) {
  auto cfg = overload_config();
  cfg.client.rpc_timeout = 10 * kMillisecond;
  cfg.client.rpc_max_attempts = 5;
  cfg.server.replay_window_entries = entries;
  pfs::Cluster cluster(cfg);
  constexpr SimTime kIssueAt = 5 * kMillisecond;
  FaultPlan plan(5);
  plan.add_window(/*node=*/0, kIssueAt + 800 * kMicrosecond,
                  kIssueAt + 8 * kMillisecond, FaultSpec{.drop = 1.0});
  cluster.set_fault_plan(&plan);
  if (crash) {
    // Back up before the retry lands.
    cluster.server(0).schedule_crash(kIssueAt + 3 * kMillisecond,
                                     2 * kMillisecond);
  }
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(512, 67);
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/lost-ack");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        co_await sched.delay(kIssueAt - sched.now());
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        done = true;
      }(cluster.scheduler(), *client, data, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  return cluster.server(0).stats();
}

TEST(ReplayWindow, ZeroEntriesStoresNoAck) {
  const pfs::ServerStats st = lost_ack_run(0, false);
  EXPECT_EQ(st.replays_suppressed, 0u);
  EXPECT_EQ(st.bytes_written, 1024u);  // the retry re-applied
}

TEST(ReplayWindow, CrashClearsTheWindow) {
  const pfs::ServerStats st = lost_ack_run(1024, true);
  EXPECT_EQ(st.crashes, 1u);
  EXPECT_EQ(st.replays_suppressed, 0u);
  EXPECT_EQ(st.replays_expired, 0u);
  EXPECT_EQ(st.bytes_written, 1024u);  // the restarted server re-applied
}

TEST(ReplayWindow, OneEntryStillSuppressesTheLatestRetry) {
  const pfs::ServerStats st = lost_ack_run(1, false);
  EXPECT_EQ(st.replays_suppressed, 1u);
  EXPECT_EQ(st.bytes_written, 512u);
}

TEST(ReplayWindow, AgeZeroMeansCountOnlyEviction) {
  // max_age == 0 disables age-based expiry: the stored ack survives to
  // the retry and the write is suppressed exactly as in the base test.
  auto cfg = overload_config();
  cfg.client.rpc_timeout = 10 * kMillisecond;
  cfg.server.replay_window_max_age = 0;
  pfs::Cluster cluster(cfg);
  constexpr SimTime kIssueAt = 5 * kMillisecond;
  FaultPlan plan(5);
  plan.add_window(/*node=*/0, kIssueAt + 800 * kMicrosecond,
                  kIssueAt + 8 * kMillisecond, FaultSpec{.drop = 1.0});
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(512, 66);

  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/countonly");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        co_await sched.delay(kIssueAt - sched.now());
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        done = true;
      }(cluster.scheduler(), *client, data, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(cluster.server(0).stats().replays_suppressed, 1u);
  EXPECT_EQ(cluster.server(0).stats().replays_expired, 0u);
  EXPECT_EQ(cluster.server(0).stats().bytes_written, 512u);
}

// ---- The tail-latency acceptance scenario ----------------------------------

struct ArmResult {
  std::vector<SimTime> latencies;
  bool all_ok = false;
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t timeouts = 0;
};

SimTime percentile_exact(std::vector<SimTime> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max<std::int64_t>(0, static_cast<std::int64_t>(
          p / 100.0 * static_cast<double>(v.size()) + 0.5) - 1));
  return v[std::min(rank, v.size() - 1)];
}

// One ablation arm: two servers, 16 KiB reads striped 8 KiB per server,
// open-loop at a fixed pace. After a healthy warmup, server 1 becomes a
// 4x straggler for 150 ms. With hedging off, every read touching the
// window burns timeout-and-retry cycles until the window passes; with
// hedging (+ breaker) on, the extended hedge deadline rides out the slow
// primary and the op completes at the degraded service time.
ArmResult run_degraded_arm(bool hedging_on) {
  constexpr int kWarmupReads = 20;
  constexpr int kMeasuredReads = 100;
  constexpr SimTime kPace = 25 * kMillisecond;
  constexpr SimTime kWindow = 150 * kMillisecond;

  auto cfg = straggler_config(/*servers=*/2);
  cfg.seed = 20260807;
  if (hedging_on) {
    cfg.client.hedge_quantile = 95;
    cfg.client.hedge_min_samples = 8;
    cfg.client.breaker_failures = 6;
    cfg.client.flow_window = 8;
  }
  pfs::Cluster cluster(cfg);
  FaultPlan plan(mix_seed(cluster.config().seed, /*salt=*/0xAB1E));
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto src = pattern_bytes(16384, 67);

  ArmResult out;
  out.all_ok = true;
  out.latencies.assign(kMeasuredReads, 0);

  // Phase 1: create, write, healthy warmup (arms the hedge quantile).
  std::uint64_t handle = 0;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src, std::uint64_t& h,
         ArmResult& out) -> Task<void> {
        MetaResult f = co_await c.create("/tail");
        if (!f.status.is_ok()) { out.all_ok = false; co_return; }
        h = f.handle;
        Status w = co_await c.write_contig(
            h, 0, src.data(), static_cast<std::int64_t>(src.size()));
        if (!w.is_ok()) out.all_ok = false;
        std::vector<std::uint8_t> back(src.size());
        for (int i = 0; i < kWarmupReads; ++i) {
          Status r = co_await c.read_contig(
              h, 0, back.data(), static_cast<std::int64_t>(back.size()));
          if (!r.is_ok() || back != src) out.all_ok = false;
        }
      }(*client, src, handle, out));
  cluster.run();
  EXPECT_TRUE(out.all_ok) << "warmup failed (hedging_on=" << hedging_on << ")";

  // Phase 2: server 1 degrades 4x for kWindow; open-loop paced reads so
  // a slow op cannot shield the ops behind it from the window.
  const SimTime t0 = cluster.scheduler().now() + 2 * kMillisecond;
  plan.add_degraded(/*node=*/1, t0, t0 + kWindow, 4.0);
  for (int i = 0; i < kMeasuredReads; ++i) {
    cluster.scheduler().spawn(
        [](sim::Scheduler& sched, Client& c, std::uint64_t h,
           const std::vector<std::uint8_t>& src, SimTime due, int slot,
           ArmResult& out) -> Task<void> {
          co_await sched.delay(due - sched.now());
          std::vector<std::uint8_t> back(src.size());
          const SimTime start = sched.now();
          Status r = co_await c.read_contig(
              h, 0, back.data(), static_cast<std::int64_t>(back.size()));
          out.latencies[static_cast<std::size_t>(slot)] = sched.now() - start;
          if (!r.is_ok() || back != src) out.all_ok = false;
        }(cluster.scheduler(), *client, handle, src, t0 + i * kPace, i, out));
  }
  cluster.run();

  out.hedges_issued = client->hedges_issued();
  out.hedges_won = client->hedges_won();
  out.timeouts = client->rpc_timeouts();
  return out;
}

TEST(Overload, HedgingImprovesDegradedTailAtLeast2x) {
  const ArmResult off = run_degraded_arm(false);
  const ArmResult on = run_degraded_arm(true);

  // Equal correctness: every read in both arms returned byte-identical
  // file contents.
  EXPECT_TRUE(off.all_ok);
  EXPECT_TRUE(on.all_ok);

  EXPECT_EQ(off.hedges_issued, 0u);
  EXPECT_GE(on.hedges_issued, 4u);   // every read inside the window hedged
  EXPECT_GT(off.timeouts, 0u);       // the off arm burned timeout cycles

  const SimTime p99_off = percentile_exact(off.latencies, 99);
  const SimTime p99_on = percentile_exact(on.latencies, 99);
  ASSERT_GT(p99_on, 0);
  const double ratio = static_cast<double>(p99_off) /
                       static_cast<double>(p99_on);
  EXPECT_GE(ratio, 2.0) << "read p99 off=" << p99_off / 1000 << "us on="
                        << p99_on / 1000 << "us (ratio " << ratio << ")";
}

TEST(Overload, DegradedArmIsDeterministic) {
  const ArmResult a = run_degraded_arm(true);
  const ArmResult b = run_degraded_arm(true);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.hedges_issued, b.hedges_issued);
  EXPECT_EQ(a.hedges_won, b.hedges_won);
  EXPECT_EQ(a.timeouts, b.timeouts);
}

// ---- Observability: p999 and filtered histogram merges ----------------------

TEST(RunReport, LatencySummaryIncludesP999) {
  obs::Histogram h;
  for (int i = 0; i < 900; ++i) h.record(1000);      // 1 us
  for (int i = 0; i < 90; ++i) h.record(10'000);     // 10 us
  for (int i = 0; i < 10; ++i) h.record(100'000);    // 100 us
  const auto s = obs::LatencySummary::from(h);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_GT(s.p99_us, s.p50_us);
  EXPECT_GT(s.p999_us, s.p99_us);
  EXPECT_LE(s.p999_us, s.max_us);

  obs::RunReport report;
  report.bench = "overload_test";
  obs::MethodReport m;
  m.method = "datatype";
  m.latency = s;
  report.methods.push_back(m);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"p999_us\""), std::string::npos);
}

TEST(Metrics, MergedHistogramFiltersByLabelSubstring) {
  obs::MetricsRegistry reg;
  reg.histogram("lat", obs::label("op", "read", "node", 0)).record(5);
  reg.histogram("lat", obs::label("op", "read", "node", 1)).record(7);
  reg.histogram("lat", obs::label("op", "write", "node", 0)).record(9);
  reg.histogram("other", obs::label("op", "read", "node", 0)).record(11);
  EXPECT_EQ(reg.merged_histogram("lat").count(), 3u);
  EXPECT_EQ(reg.merged_histogram("lat", "op=read").count(), 2u);
  EXPECT_EQ(reg.merged_histogram("lat", "op=write").count(), 1u);
  EXPECT_EQ(reg.merged_histogram("lat", "op=stat").count(), 0u);
}

}  // namespace
}  // namespace dtio
