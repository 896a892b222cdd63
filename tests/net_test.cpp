// Unit tests for the simulated interconnect: transfer timing, packet
// pipelining, link contention, loopback, byte accounting, and the
// closed-form fabric and rx stages against a per-packet event pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/box.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/fault.h"
#include "net/network.h"
#include "sim/resource.h"
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

TEST(Network, UncontendedMessageCostsOneEventPerPacketPlusDelivery) {
  // 3 packets through tx, fabric and rx: the sender process's start, one
  // event per tx hold and one delivery. The fabric and rx stages are
  // booked in closed form and add none.
  Scheduler sched;
  NetConfig cfg = simple_config();
  cfg.fabric_bandwidth_bytes_per_s = 2e6;
  Network net(sched, 2, cfg);
  sched.spawn([](Scheduler&, Network& n) -> Task<void> {
    co_await n.send(0, 1, Message(kAnySource, 1, 3000, 0));
  }(sched, net));
  sched.run();
  EXPECT_EQ(sched.events_processed(), 1u + 3u + 1u);
  EXPECT_EQ(net.mailbox(1).queued(), 1u);
  // tx ends at 3000 us; the last packet's fabric hold (500 us) and
  // latency take it to rx at 3600 us, where it holds 1000 us.
  EXPECT_EQ(sched.now(), 4600 * kMicrosecond);
}

TEST(Network, BusyIntegralCountsOnlyElapsedBookedTime) {
  // 3 x 1000 B at 1 byte/us on every link and the fabric: tx holds
  // [0,1), [1,2), [2,3) ms; the fabric is booked [1,2), [2,3), [3,4) ms as
  // each packet leaves and rx [2.1,3.1), [3.1,4.1), [4.1,5.1) ms, well
  // before those times come. Reads in between count elapsed busy time only.
  Scheduler sched;
  NetConfig cfg = simple_config();
  cfg.fabric_bandwidth_bytes_per_s = 1e6;
  Network net(sched, 2, cfg);
  std::vector<std::pair<double, double>> reads;  // (fabric, rx) per probe
  sched.spawn([](Scheduler&, Network& n) -> Task<void> {
    co_await n.send(0, 1, Message(kAnySource, 1, 3000, 0));
  }(sched, net));
  for (SimTime t : {1500, 2600, 4600, 5000}) {
    sched.schedule_telemetry(t * kMicrosecond, [&net, &reads] {
      reads.emplace_back(net.fabric()->busy_integral(),
                         net.rx_link(1).busy_integral());
    });
  }
  sched.run();
  const double us = static_cast<double>(kMicrosecond);
  ASSERT_EQ(reads.size(), 4u);
  EXPECT_EQ(reads[0], std::make_pair(500 * us, 0.0));
  EXPECT_EQ(reads[1], std::make_pair(1600 * us, 500 * us));
  EXPECT_EQ(reads[2], std::make_pair(3000 * us, 2500 * us));
  EXPECT_EQ(reads[3], std::make_pair(3000 * us, 2900 * us));
  EXPECT_EQ(sched.now(), 5100 * kMicrosecond);
  EXPECT_EQ(net.rx_link(1).busy_integral(), 3000 * us);
  EXPECT_EQ(net.rx_link(0).busy_integral(), 0.0);
}

TEST(Network, StageBooksGapsInTheFuture) {
  // Arrivals booked ahead of the clock, with an idle gap between them,
  // count only once the clock passes them.
  Scheduler sched;
  sim::Stage stage(sched);
  EXPECT_EQ(stage.reserve(100, 50), 150);
  EXPECT_EQ(stage.reserve(120, 50), 200);  // queues behind the first
  EXPECT_EQ(stage.reserve(300, 10), 310);  // after an idle gap
  std::vector<double> reads;
  for (SimTime t : {50, 175, 250, 305, 400}) {
    sched.schedule_telemetry(
        t, [&stage, &reads] { reads.push_back(stage.busy_integral()); });
  }
  sched.schedule_call(400, [] {});
  sched.run();
  EXPECT_EQ(reads, (std::vector<double>{0, 75, 100, 105, 110}));
}

// ---------------------------------------------------------------------------
// The closed-form stages against the per-packet pipeline they replace.

// Reference model: every packet is a Fire that holds the shared fabric,
// waits out the wire latency and then holds the receiver's rx link, each
// as sim::Resource events; the last packet then delivers the message.
// Sends, faults, loopback and tx are as in Network.
class PacketPipeline {
 public:
  PacketPipeline(Scheduler& sched, int num_nodes, NetConfig config)
      : sched_(&sched), config_(config) {
    for (int i = 0; i < num_nodes; ++i) {
      tx_.push_back(std::make_unique<sim::Resource>(sched, 1));
      rx_.push_back(std::make_unique<sim::Resource>(sched, 1));
      mailboxes_.push_back(std::make_unique<sim::Mailbox>(sched));
    }
    if (config_.fabric_bandwidth_bytes_per_s > 0) {
      fabric_ = std::make_unique<sim::Resource>(sched, 1);
    }
  }

  void set_fault_plan(FaultPlan* plan) noexcept { fault_ = plan; }
  sim::Mailbox& mailbox(int node) { return *mailboxes_[idx(node)]; }
  sim::Resource& rx_link(int node) { return *rx_[idx(node)]; }
  sim::Resource* fabric() { return fabric_.get(); }

  Task<void> send(int src, int dst, Message msg) {
    msg.src = src;
    SimTime extra_delay = 0;
    bool deliver = true;
    if (fault_ != nullptr && src != dst) {
      FaultPlan::Decision d = fault_->apply(src, dst, sched_->now(), msg);
      extra_delay = d.extra_delay;
      deliver = d.deliver;
      if (d.duplicate_copy.has_value()) {
        sched_->start(duplicate_send(
            src, dst, Box<Message>(std::move(*d.duplicate_copy))));
      }
    }
    return send_impl(src, dst, Box<Message>(std::move(msg)), extra_delay,
                     deliver);
  }

 private:
  static std::size_t idx(int node) { return static_cast<std::size_t>(node); }

  sim::Fire duplicate_send(int src, int dst, Box<Message> boxed) {
    co_await send_impl(src, dst, boxed, 0, true);
  }

  Task<void> send_impl(int src, int dst, Box<Message> boxed,
                       SimTime extra_delay, bool deliver) {
    Message msg = boxed.take();
    if (src == dst) {
      sim::Mailbox* box = &mailbox(dst);
      sched_->schedule_call(sched_->now() + config_.loopback_latency,
                            [box, m = std::move(msg)]() mutable {
                              box->deliver(std::move(m));
                            });
      co_return;
    }
    std::uint64_t remaining =
        msg.wire_bytes + config_.per_message_overhead_bytes;
    while (true) {
      const std::uint64_t pkt =
          std::min<std::uint64_t>(remaining, config_.mtu);
      remaining -= pkt;
      const bool last = remaining == 0;
      const SimTime wire_time =
          transfer_time(pkt, config_.bandwidth_bytes_per_s);
      co_await tx_[idx(src)]->use(wire_time);
      sched_->start(receive_packet(
          dst, wire_time, last ? Box<Message>(std::move(msg)) : Box<Message>{},
          last ? extra_delay : 0, deliver));
      if (last) break;
    }
  }

  sim::Fire receive_packet(int dst, SimTime rx_hold, Box<Message> boxed,
                           SimTime extra_delay, bool deliver) {
    if (fabric_) {
      const std::uint64_t pkt_bytes = static_cast<std::uint64_t>(
          static_cast<double>(rx_hold) / kSecond *
          config_.bandwidth_bytes_per_s);
      co_await fabric_->use(
          transfer_time(pkt_bytes, config_.fabric_bandwidth_bytes_per_s));
    }
    co_await sched_->delay(config_.latency);
    co_await rx_link(dst).use(rx_hold);
    if (!boxed.has_value()) co_return;
    Message msg = boxed.take();
    if (!deliver) co_return;
    if (extra_delay > 0) co_await sched_->delay(extra_delay);
    mailbox(dst).deliver(std::move(msg));
  }

  Scheduler* sched_;
  NetConfig config_;
  std::vector<std::unique_ptr<sim::Resource>> tx_;
  std::vector<std::unique_ptr<sim::Resource>> rx_;
  std::vector<std::unique_ptr<sim::Mailbox>> mailboxes_;
  std::unique_ptr<sim::Resource> fabric_;
  FaultPlan* fault_ = nullptr;
};

struct Arrival {
  int src;
  std::uint64_t tag;
  SimTime at;
  friend bool operator==(const Arrival&, const Arrival&) = default;
};

struct PipelineOutcome {
  std::vector<std::vector<Arrival>> mailboxes;  ///< per node, queue order
  std::vector<std::vector<double>> probes;  ///< rx busy per node, then fabric
  std::vector<FaultEvent> faults;
  SimTime end = 0;
};

constexpr int kPipelineNodes = 8;
constexpr int kSendersPerNode = 2;
constexpr int kMessagesPerSender = 40;

// Every node runs two sender processes. Each sends 40 messages after
// random gaps (a fifth of them zero): a third to node 0 (incast), one in
// ten to itself (loopback), the rest anywhere; sizes are empty, below, at
// and above the MTU. Probes read every rx link and the fabric mid-run.
template <typename Net>
PipelineOutcome run_pipeline(std::uint64_t seed, const NetConfig& cfg,
                             bool faulty) {
  Scheduler sched;
  FaultPlan plan(seed);
  plan.set_log_events(true);
  FaultSpec spec;
  spec.drop = 0.1;
  spec.duplicate = 0.1;
  spec.delay = 0.2;
  spec.delay_min = 0;
  spec.delay_max = 2 * kMillisecond;
  plan.set_default_spec(spec);
  Net net(sched, kPipelineNodes, cfg);
  if (faulty) net.set_fault_plan(&plan);

  for (int node = 0; node < kPipelineNodes; ++node) {
    for (int proc = 0; proc < kSendersPerNode; ++proc) {
      const std::uint64_t stream =
          seed * 1000 + static_cast<std::uint64_t>(node * 10 + proc);
      sched.spawn([](Scheduler& s, Net& n, const NetConfig& c, int src,
                     int proc_, std::uint64_t stream_) -> Task<void> {
        Rng rng(stream_);
        for (int i = 0; i < kMessagesPerSender; ++i) {
          if (rng.next_below(5) != 0) {
            co_await s.delay(static_cast<SimTime>(1 + rng.next_below(400)) *
                             kMicrosecond);
          }
          const std::uint64_t pick = rng.next_below(10);
          int dst = static_cast<int>(rng.next_below(kPipelineNodes));
          if (pick < 3) dst = 0;
          if (pick == 3) dst = src;
          std::uint64_t bytes = 0;
          switch (rng.next_below(4)) {
            case 0:
              bytes = rng.next_below(c.mtu);
              break;
            case 1:
              bytes = c.mtu - c.per_message_overhead_bytes;
              break;
            default:
              bytes = c.mtu + rng.next_below(3 * c.mtu);
              break;
          }
          const std::uint64_t tag =
              static_cast<std::uint64_t>((src * 10 + proc_) * 1000 + i);
          co_await n.send(src, dst, Message(kAnySource, tag, bytes, 0));
        }
      }(sched, net, cfg, node, proc, stream));
    }
  }

  PipelineOutcome out;
  for (int k = 1; k <= 400; ++k) {
    sched.schedule_telemetry(k * 97 * kMicrosecond, [&net, &out] {
      std::vector<double> row;
      for (int node = 0; node < kPipelineNodes; ++node) {
        row.push_back(net.rx_link(node).busy_integral());
      }
      if (net.fabric() != nullptr) row.push_back(net.fabric()->busy_integral());
      out.probes.push_back(std::move(row));
    });
  }
  sched.run();
  out.end = sched.now();
  out.faults = plan.events();

  // Drain each mailbox in queue order (a wildcard recv takes the earliest).
  out.mailboxes.resize(kPipelineNodes);
  for (int node = 0; node < kPipelineNodes; ++node) {
    sched.spawn([](Net& n, int node_,
                   std::vector<Arrival>& got) -> Task<void> {
      const std::size_t queued = n.mailbox(node_).queued();
      for (std::size_t i = 0; i < queued; ++i) {
        Message m = *co_await n.mailbox(node_).recv();
        got.push_back(Arrival{m.src, m.tag, m.delivered_at});
      }
    }(net, node, out.mailboxes[static_cast<std::size_t>(node)]));
  }
  sched.run();
  std::vector<double> final_row;
  for (int node = 0; node < kPipelineNodes; ++node) {
    final_row.push_back(net.rx_link(node).busy_integral());
  }
  if (net.fabric() != nullptr) final_row.push_back(net.fabric()->busy_integral());
  out.probes.push_back(std::move(final_row));
  return out;
}

TEST(Network, ClosedFormStagesMatchThePerPacketPipeline) {
  NetConfig cfg;
  cfg.bandwidth_bytes_per_s = 12.5e6;  // wire times round up to the ns
  cfg.latency = 30 * kMicrosecond;
  cfg.mtu = 1500;
  cfg.per_message_overhead_bytes = 64;
  for (const double fabric : {0.0, 30e6}) {
    cfg.fabric_bandwidth_bytes_per_s = fabric;
    for (const bool faulty : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(testing::Message() << "fabric " << fabric << " faults "
                                        << faulty << " seed " << seed);
        const PipelineOutcome want =
            run_pipeline<PacketPipeline>(seed, cfg, faulty);
        const PipelineOutcome got = run_pipeline<Network>(seed, cfg, faulty);
        std::size_t delivered = 0;
        for (const auto& box : want.mailboxes) delivered += box.size();
        ASSERT_GT(delivered, 0u);
        EXPECT_EQ(want.faults.empty(), !faulty);
        EXPECT_EQ(got.faults, want.faults);
        EXPECT_EQ(got.end, want.end);
        for (std::size_t node = 0; node < want.mailboxes.size(); ++node) {
          EXPECT_EQ(got.mailboxes[node], want.mailboxes[node])
              << "mailbox " << node;
        }
        EXPECT_EQ(got.probes, want.probes);
      }
    }
  }
}

}  // namespace
}  // namespace dtio::net
