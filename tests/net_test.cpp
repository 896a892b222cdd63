// Unit tests for the simulated interconnect: transfer timing, packet
// pipelining, link contention, loopback, and byte accounting.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "net/network.h"
#include "sim/scheduler.h"

namespace dtio::net {
namespace {

using sim::kAnySource;
using sim::Message;
using sim::Scheduler;
using sim::Task;

NetConfig simple_config() {
  NetConfig cfg;
  cfg.bandwidth_bytes_per_s = 1e6;  // 1 MB/s: 1 byte == 1 us
  cfg.latency = 100 * kMicrosecond;
  cfg.mtu = 1000;
  cfg.per_message_overhead_bytes = 0;
  cfg.fabric_bandwidth_bytes_per_s = 0;  // per-link timing tests
  return cfg;
}

TEST(Network, SmallMessageTiming) {
  Scheduler sched;
  Network net(sched, 2, simple_config());
  SimTime send_done = -1, recv_done = -1;
  sched.spawn([](Scheduler& s, Network& n, SimTime& out) -> Task<void> {
    co_await n.send(0, 1, Message(kAnySource, 1, 500, 0));
    out = s.now();
  }(sched, net, send_done));
  sched.spawn([](Scheduler& s, Network& n, SimTime& out) -> Task<void> {
    (void)co_await n.mailbox(1).recv();
    out = s.now();
  }(sched, net, recv_done));
  sched.run();
  // tx serialisation: 500 us. Delivery: + latency 100 us + rx 500 us.
  EXPECT_EQ(send_done, 500 * kMicrosecond);
  EXPECT_EQ(recv_done, 1100 * kMicrosecond);
}

TEST(Network, LargeMessagePipelinesAcrossPackets) {
  Scheduler sched;
  Network net(sched, 2, simple_config());
  SimTime recv_done = -1;
  sched.spawn([](Scheduler&, Network& n) -> Task<void> {
    co_await n.send(0, 1, Message(kAnySource, 1, 10'000, 0));
  }(sched, net));
  sched.spawn([](Scheduler& s, Network& n, SimTime& out) -> Task<void> {
    (void)co_await n.mailbox(1).recv();
    out = s.now();
  }(sched, net, recv_done));
  sched.run();
  // 10 packets of 1000 B pipeline: total ~ 10 ms tx + latency + one packet
  // rx, far below the 20 ms a store-and-forward whole-message model costs.
  EXPECT_EQ(recv_done, (10'000 + 100 + 1000) * kMicrosecond);
}

TEST(Network, SendersShareTxLink) {
  Scheduler sched;
  Network net(sched, 3, simple_config());
  std::vector<SimTime> recv_times(2, -1);
  // Node 0 sends to nodes 1 and 2 concurrently; both transfers serialize
  // on node 0's tx link, so aggregate time doubles.
  for (int dst = 1; dst <= 2; ++dst) {
    sched.spawn([](Scheduler&, Network& n, int d) -> Task<void> {
      co_await n.send(0, d, Message(kAnySource, 9, 5000, 0));
    }(sched, net, dst));
    sched.spawn([](Scheduler& s, Network& n, int d,
                   std::vector<SimTime>& out) -> Task<void> {
      (void)co_await n.mailbox(d).recv();
      out[static_cast<std::size_t>(d - 1)] = s.now();
    }(sched, net, dst, recv_times));
  }
  sched.run();
  const SimTime slower = std::max(recv_times[0], recv_times[1]);
  EXPECT_GE(slower, 10'000 * kMicrosecond);
}

TEST(Network, IncastSharesRxLink) {
  Scheduler sched;
  Network net(sched, 3, simple_config());
  std::vector<SimTime> done;
  for (int src = 0; src <= 1; ++src) {
    sched.spawn([](Scheduler&, Network& n, int s_) -> Task<void> {
      co_await n.send(s_, 2, Message(kAnySource, 5, 5000, 0));
    }(sched, net, src));
  }
  sched.spawn([](Scheduler& s, Network& n, std::vector<SimTime>& out)
                  -> Task<void> {
    (void)co_await n.mailbox(2).recv();
    out.push_back(s.now());
    (void)co_await n.mailbox(2).recv();
    out.push_back(s.now());
  }(sched, net, done));
  sched.run();
  ASSERT_EQ(done.size(), 2u);
  // Receiver's rx link carries 10000 bytes total: second message cannot
  // complete before 10 ms of rx serialization.
  EXPECT_GE(done[1], 10'000 * kMicrosecond);
}

TEST(Network, LoopbackBypassesLinks) {
  Scheduler sched;
  auto cfg = simple_config();
  Network net(sched, 2, cfg);
  SimTime recv_done = -1;
  sched.spawn([](Scheduler&, Network& n) -> Task<void> {
    co_await n.send(1, 1, Message(kAnySource, 2, 1'000'000, 0));
  }(sched, net));
  sched.spawn([](Scheduler& s, Network& n, SimTime& out) -> Task<void> {
    (void)co_await n.mailbox(1).recv();
    out = s.now();
  }(sched, net, recv_done));
  sched.run();
  EXPECT_EQ(recv_done, simple_config().loopback_latency);
  EXPECT_EQ(net.node_tx_bytes(1), 0u);
}

TEST(Network, MessageBodySurvivesTransfer) {
  Scheduler sched;
  Network net(sched, 2, simple_config());
  std::string got;
  sched.spawn([](Scheduler&, Network& n) -> Task<void> {
    co_await n.send(0, 1, Message(kAnySource, 3, 10,
                                  std::string("payload-intact")));
  }(sched, net));
  sched.spawn([](Scheduler&, Network& n, std::string& out) -> Task<void> {
    Message m = *co_await n.mailbox(1).recv(0, 3);
    out = m.as<std::string>();
  }(sched, net, got));
  sched.run();
  EXPECT_EQ(got, "payload-intact");
}

TEST(Network, AccountsBytesAndMessages) {
  Scheduler sched;
  NetConfig cfg = simple_config();
  cfg.per_message_overhead_bytes = 64;
  Network net(sched, 2, cfg);
  sched.spawn([](Scheduler&, Network& n) -> Task<void> {
    co_await n.send(0, 1, Message(kAnySource, 1, 1000, 0));
    co_await n.send(0, 1, Message(kAnySource, 2, 0, 0));
  }(sched, net));
  sched.spawn([](Scheduler&, Network& n) -> Task<void> {
    (void)co_await n.mailbox(1).recv(0, 1);
    (void)co_await n.mailbox(1).recv(0, 2);
  }(sched, net));
  sched.run();
  EXPECT_EQ(net.total_messages(), 2u);
  EXPECT_EQ(net.total_wire_bytes(), 1000u + 64 + 64);
  EXPECT_EQ(net.node_tx_bytes(0), 1128u);
  EXPECT_EQ(net.node_rx_bytes(1), 1128u);
}

TEST(Network, OrderingPreservedPerSenderPair) {
  Scheduler sched;
  Network net(sched, 2, simple_config());
  std::vector<std::uint64_t> tags;
  sched.spawn([](Scheduler&, Network& n) -> Task<void> {
    for (std::uint64_t t = 0; t < 10; ++t) {
      co_await n.send(0, 1, Message(kAnySource, t, 100, 0));
    }
  }(sched, net));
  sched.spawn([](Scheduler&, Network& n,
                 std::vector<std::uint64_t>& out) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      Message m = *co_await n.mailbox(1).recv();
      out.push_back(m.tag);
    }
  }(sched, net, tags));
  sched.run();
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(tags[i], i);
}

TEST(Network, FabricCapsAggregateThroughput) {
  // 4 senders, 4 receivers, per-link 1 MB/s, fabric 2 MB/s: aggregate is
  // fabric-bound at ~2 MB/s instead of 4.
  Scheduler sched;
  NetConfig cfg = simple_config();
  cfg.fabric_bandwidth_bytes_per_s = 2e6;
  Network net(sched, 8, cfg);
  int remaining = 4;
  SimTime all_done = -1;
  for (int i = 0; i < 4; ++i) {
    sched.spawn([](Scheduler&, Network& n, int src) -> Task<void> {
      co_await n.send(src, src + 4,
                      Message(kAnySource, 1, 1'000'000, 0));
    }(sched, net, i));
    sched.spawn([](Scheduler& s, Network& n, int dst, int& left,
                   SimTime& done) -> Task<void> {
      (void)co_await n.mailbox(dst).recv();
      if (--left == 0) done = s.now();
    }(sched, net, i + 4, remaining, all_done));
  }
  sched.run();
  // 4 MB through a 2 MB/s fabric: at least 2 s (plus pipeline tails).
  EXPECT_GE(all_done, 2 * kSecond);
  EXPECT_LT(all_done, 3 * kSecond);
}

TEST(Network, FabricIdleForLoopback) {
  Scheduler sched;
  NetConfig cfg = simple_config();
  cfg.fabric_bandwidth_bytes_per_s = 1e6;
  Network net(sched, 2, cfg);
  sched.spawn([](Scheduler&, Network& n) -> Task<void> {
    co_await n.send(1, 1, Message(kAnySource, 9, 500'000, 0));
  }(sched, net));
  sched.spawn([](Scheduler&, Network& n) -> Task<void> {
    (void)co_await n.mailbox(1).recv();
  }(sched, net));
  sched.run();
  ASSERT_NE(net.fabric(), nullptr);
  EXPECT_DOUBLE_EQ(net.fabric()->busy_integral(), 0.0);
}

}  // namespace
}  // namespace dtio::net
