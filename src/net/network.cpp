#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/box.h"
#include "net/fault.h"
#include "obs/observability.h"

namespace dtio::net {

Network::Network(sim::Scheduler& sched, int num_nodes, NetConfig config)
    : sched_(&sched), config_(config) {
  assert(num_nodes >= 1);
  endpoints_.reserve(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    endpoints_.push_back(std::make_unique<Endpoint>(sched));
  }
  if (config_.fabric_bandwidth_bytes_per_s > 0) {
    fabric_ = std::make_unique<sim::Stage>(sched);
  }
}

std::span<const obs::CounterRow<Network>> Network::counter_table() {
  static constexpr obs::CounterRow<Network> kRows[] = {
      {"net_messages_total", "", &Network::total_messages_},
      {"net_wire_bytes_total", "", &Network::total_wire_bytes_},
  };
  return kRows;
}

std::span<const obs::CounterRow<sim::MailboxStats>>
Network::mailbox_counter_table() {
  static constexpr obs::CounterRow<sim::MailboxStats> kRows[] = {
      {"net_replies_dropped_total", "node",
       &sim::MailboxStats::replies_dropped},
  };
  return kRows;
}

void Network::publish_metrics(obs::MetricsRegistry& registry) const {
  obs::publish_counters(registry, counter_table(), *this);
  for (std::size_t node = 0; node < endpoints_.size(); ++node) {
    obs::publish_counters(registry, mailbox_counter_table(),
                          endpoints_[node]->mailbox.stats(),
                          static_cast<int>(node));
  }
}

// Non-coroutine entry point: boxes the message before the coroutine frame
// is created (by-value coroutine params must be trivially destructible on
// this compiler — see common/box.h).
sim::Task<void> Network::send(int src, int dst, sim::Message msg) {
  msg.src = src;
  SimTime extra_delay = 0;
  bool deliver = true;
  if (fault_ != nullptr && src != dst) {
    FaultPlan::Decision d = fault_->apply(src, dst, sched_->now(), msg);
    extra_delay = d.extra_delay;
    deliver = d.deliver;
    if (d.duplicate_copy.has_value()) {
      sched_->start(duplicate_send(
          src, dst, Box<sim::Message>(std::move(*d.duplicate_copy))));
    }
  }
  return send_impl(src, dst, Box<sim::Message>(std::move(msg)), extra_delay,
                   deliver);
}

sim::Fire Network::duplicate_send(int src, int dst, Box<sim::Message> boxed) {
  co_await send_impl(src, dst, std::move(boxed), 0, true);
}

sim::Task<void> Network::send_impl(int src, int dst, Box<sim::Message> boxed,
                                   SimTime extra_delay, bool deliver) {
  const sim::Message& msg = boxed.peek();
  const std::uint64_t bytes =
      msg.wire_bytes + config_.per_message_overhead_bytes;
  ++total_messages_;
  total_wire_bytes_ += bytes;
  inflight_wire_bytes_ += bytes;
  std::uint64_t net_span = 0;
  if (obs_ != nullptr) {
    // One span per message, covering first-byte-out to delivery; parented
    // under whatever span the sender stamped on the message and typed with
    // whatever phase the sender stamped (request vs reply direction).
    net_span = obs_->spans.begin("net_send", src, sched_->now(), msg.span,
                                 msg.trace, static_cast<obs::Phase>(msg.phase));
    obs_->spans.set_value(net_span, static_cast<std::int64_t>(bytes));
  }

  if (src == dst) {
    // Loopback: no link occupancy, only a small local latency. Fault
    // injection never targets loopback, so extra_delay/deliver are moot.
    sched_->start_at(sched_->now() + config_.loopback_latency,
                     delivery(dst, boxed, net_span, 0, true));
    co_return;
  }

  Endpoint& sender = endpoint(src);
  Endpoint& receiver = endpoint(dst);
  sender.tx_bytes += bytes;
  receiver.rx_bytes += bytes;

  // Packets hold the tx link one by one, interleaving with the sender's
  // other messages. As each leaves, it books the fabric and then, after
  // the wire latency, dst's rx link. Tx completions pop in (time, seq)
  // order, which is the order packets reach the fabric; fabric ends
  // increase, so every rx link is booked in its arrival order too.
  std::uint64_t remaining = bytes;
  SimTime rx_end = 0;
  do {
    const std::uint64_t pkt = std::min<std::uint64_t>(remaining, config_.mtu);
    remaining -= pkt;
    const SimTime wire_time = transfer_time(pkt, config_.bandwidth_bytes_per_s);
    co_await sender.tx.use(wire_time);
    SimTime arrive = sched_->now();
    if (fabric_) {
      // The fabric carries the bytes the wire time holds at link rate.
      const std::uint64_t fabric_bytes = static_cast<std::uint64_t>(
          static_cast<double>(wire_time) / kSecond *
          config_.bandwidth_bytes_per_s);
      arrive = fabric_->reserve(
          arrive,
          transfer_time(fabric_bytes, config_.fabric_bandwidth_bytes_per_s));
    }
    rx_end = receiver.rx.reserve(arrive + config_.latency, wire_time);
  } while (remaining > 0);
  sched_->start_at(rx_end,
                   delivery(dst, boxed, net_span, extra_delay, deliver));
}

sim::Fire Network::delivery(int dst, Box<sim::Message> boxed,
                            std::uint64_t net_span, SimTime extra_delay,
                            bool deliver) {
  sim::Message msg = boxed.take();
  inflight_wire_bytes_ -= msg.wire_bytes + config_.per_message_overhead_bytes;
  if (!deliver) {
    // Fault-injected loss: the bytes crossed the wire but the message
    // never reaches the mailbox. Close the span here and mark the loss
    // with a "lost" instant under it, so traces show where it happened.
    if (obs_ != nullptr) {
      obs_->spans.end(net_span, sched_->now());
      obs_->spans.instant("lost", dst, sched_->now(), net_span, msg.trace,
                          static_cast<std::int64_t>(msg.wire_bytes));
    }
    co_return;
  }
  if (extra_delay > 0) co_await sched_->delay(extra_delay);
  if (obs_ != nullptr) obs_->spans.end(net_span, sched_->now());
  endpoint(dst).mailbox.deliver(std::move(msg));
}

}  // namespace dtio::net
