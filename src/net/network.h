// Simulated cluster interconnect: per-node full-duplex links with
// latency + bandwidth and MTU packetisation, feeding per-node mailboxes.
//
// Contention is physical: a node's outbound packets serialize on its tx
// link, inbound packets on its rx link, so N clients writing to one server
// exhibit incast at the server's rx resource exactly as N TCP flows share
// a fast-ethernet port. Each packet holds its tx link as an event; when it
// leaves, it books the shared fabric and then the receiver's rx link in
// closed form (sim::Stage), so a message's only other event is its
// delivery at the last packet's rx end.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/box.h"
#include "net/cost_model.h"
#include "obs/metrics.h"
#include "sim/mailbox.h"
#include "sim/resource.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace dtio::obs {
struct Observability;
}  // namespace dtio::obs

namespace dtio::net {

class FaultPlan;

class Network {
 public:
  Network(sim::Scheduler& sched, int num_nodes, NetConfig config);

  /// Transmit `msg` from `src` to `dst`. Resumes the caller once the last
  /// byte has left src's NIC (kernel-buffered semantics); delivery to dst's
  /// mailbox happens later, after latency and rx-link serialisation.
  sim::Task<void> send(int src, int dst, sim::Message msg);

  [[nodiscard]] sim::Mailbox& mailbox(int node) { return endpoint(node).mailbox; }
  /// Shared fabric stage, or nullptr when disabled (diagnostics).
  [[nodiscard]] sim::Stage* fabric() noexcept { return fabric_.get(); }

  /// Attach a fault-injection plan (nullptr detaches). Not owned. When
  /// detached — the default — the send path pays exactly one pointer test.
  void set_fault_plan(FaultPlan* plan) noexcept { fault_ = plan; }
  [[nodiscard]] FaultPlan* fault_plan() const noexcept { return fault_; }

  /// Attach the observability context (nullptr detaches). Not owned.
  /// Records one net_send span per message; when detached the cost is one
  /// pointer test.
  void set_observability(obs::Observability* obs) noexcept { obs_ = obs; }
  /// The counters this network publishes (net_messages_total, ...), each
  /// read from one of its totals below.
  static std::span<const obs::CounterRow<Network>> counter_table();
  /// The counters each node's mailbox publishes under a `node=<id>` label
  /// (net_replies_dropped_total), read from its sim::MailboxStats.
  static std::span<const obs::CounterRow<sim::MailboxStats>>
  mailbox_counter_table();
  /// Sets every counter_table() row, and every mailbox_counter_table() row
  /// once per node, in `registry`.
  void publish_metrics(obs::MetricsRegistry& registry) const;
  [[nodiscard]] sim::Resource& tx_link(int node) { return endpoint(node).tx; }
  [[nodiscard]] sim::Stage& rx_link(int node) { return endpoint(node).rx; }

  [[nodiscard]] int num_nodes() const noexcept {
    return static_cast<int>(endpoints_.size());
  }
  [[nodiscard]] const NetConfig& config() const noexcept { return config_; }

  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return total_messages_;
  }
  [[nodiscard]] std::uint64_t total_wire_bytes() const noexcept {
    return total_wire_bytes_;
  }
  /// Wire bytes accepted for transmission but not yet delivered (or
  /// dropped) — an instantaneous network-occupancy gauge for the timeline
  /// sampler. Includes per-message overhead bytes.
  [[nodiscard]] std::uint64_t inflight_wire_bytes() const noexcept {
    return inflight_wire_bytes_;
  }
  [[nodiscard]] std::uint64_t node_tx_bytes(int node) const {
    return endpoints_.at(static_cast<std::size_t>(node))->tx_bytes;
  }
  [[nodiscard]] std::uint64_t node_rx_bytes(int node) const {
    return endpoints_.at(static_cast<std::size_t>(node))->rx_bytes;
  }

 private:
  struct Endpoint {
    explicit Endpoint(sim::Scheduler& sched)
        : tx(sched, 1), rx(sched), mailbox(sched) {}
    sim::Resource tx;
    sim::Stage rx;
    sim::Mailbox mailbox;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_bytes = 0;
  };

  Endpoint& endpoint(int node) {
    return *endpoints_.at(static_cast<std::size_t>(node));
  }

  /// `extra_delay` postpones delivery of the final packet (fault
  /// injection: delay/reorder); `deliver == false` transmits the message
  /// normally but discards it at the receiver (drop/outage — the sender
  /// still pays for the bytes, as with a real lost datagram).
  sim::Task<void> send_impl(int src, int dst, Box<sim::Message> boxed,
                            SimTime extra_delay, bool deliver);

  /// Detached transmission of a fault-injected duplicate copy.
  sim::Fire duplicate_send(int src, int dst, Box<sim::Message> boxed);

  /// Hand a message that has arrived at `dst` (started at its last
  /// packet's rx end, or after the loopback latency) to dst's mailbox,
  /// `extra_delay` later, or drop it when `deliver` is false. `net_span`
  /// is the in-flight transmission span, closed here.
  sim::Fire delivery(int dst, Box<sim::Message> boxed, std::uint64_t net_span,
                     SimTime extra_delay, bool deliver);

  sim::Scheduler* sched_;
  NetConfig config_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::unique_ptr<sim::Stage> fabric_;  ///< shared bisection stage (optional)
  FaultPlan* fault_ = nullptr;
  obs::Observability* obs_ = nullptr;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_wire_bytes_ = 0;
  std::uint64_t inflight_wire_bytes_ = 0;
};

}  // namespace dtio::net
