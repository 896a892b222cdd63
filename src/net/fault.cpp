#include "net/fault.h"

#include <algorithm>

#include "obs/metrics.h"

namespace dtio::net {

std::span<const obs::CounterRow<FaultCounters>> FaultPlan::counter_table() {
  static constexpr obs::CounterRow<FaultCounters> kRows[] = {
      {"faults_injected_total", "kind=drop", &FaultCounters::dropped},
      {"faults_injected_total", "kind=duplicate", &FaultCounters::duplicated},
      {"faults_injected_total", "kind=corrupt", &FaultCounters::corrupted},
      {"faults_injected_total", "kind=delay", &FaultCounters::delayed},
      {"faults_injected_total", "kind=outage", &FaultCounters::outage_dropped},
  };
  return kRows;
}

void FaultPlan::publish_metrics(obs::MetricsRegistry& registry) const {
  obs::publish_counters(registry, counter_table(), counters_);
}

void FaultPlan::record(FaultKind kind, int src, int dst, SimTime now,
                       std::uint64_t tag) {
  switch (kind) {
    case FaultKind::kDrop:
      ++counters_.dropped;
      break;
    case FaultKind::kDuplicate:
      ++counters_.duplicated;
      break;
    case FaultKind::kCorrupt:
      ++counters_.corrupted;
      break;
    case FaultKind::kDelay:
      ++counters_.delayed;
      break;
    case FaultKind::kOutage:
      ++counters_.outage_dropped;
      break;
  }
  if (log_events_) events_.push_back(FaultEvent{now, kind, src, dst, tag});
}

FaultPlan::Decision FaultPlan::apply(int src, int dst, SimTime now,
                                     sim::Message& msg) {
  Decision decision;
  if (src >= scope_max_node_ && dst >= scope_max_node_) return decision;

  // Effective spec: max-combine the default with every matching window.
  // Outage windows short-circuit without consuming an RNG draw, so a
  // scheduled crash does not perturb the probabilistic fault stream.
  FaultSpec spec = default_;
  for (const Window& w : windows_) {
    if (w.node != src && w.node != dst) continue;
    if (now < w.from || now >= w.until) continue;
    if (w.outage) {
      decision.deliver = false;
      record(FaultKind::kOutage, src, dst, now, msg.tag);
      return decision;
    }
    spec.drop = std::max(spec.drop, w.spec.drop);
    spec.duplicate = std::max(spec.duplicate, w.spec.duplicate);
    spec.corrupt = std::max(spec.corrupt, w.spec.corrupt);
    if (w.spec.delay > spec.delay) {
      spec.delay = w.spec.delay;
      spec.delay_min = w.spec.delay_min;
      spec.delay_max = w.spec.delay_max;
    }
  }
  if (!spec.active()) return decision;

  if (spec.drop > 0 && rng_.next_double() < spec.drop) {
    decision.deliver = false;
    record(FaultKind::kDrop, src, dst, now, msg.tag);
    return decision;
  }
  if (spec.duplicate > 0 && rng_.next_double() < spec.duplicate) {
    decision.duplicate_copy = msg;  // copied before any corruption below
    record(FaultKind::kDuplicate, src, dst, now, msg.tag);
  }
  if (corruptor_ && spec.corrupt > 0 && rng_.next_double() < spec.corrupt &&
      corruptor_(msg, rng_)) {
    record(FaultKind::kCorrupt, src, dst, now, msg.tag);
  }
  if (spec.delay > 0 && rng_.next_double() < spec.delay) {
    const SimTime span = std::max<SimTime>(spec.delay_max - spec.delay_min, 0);
    decision.extra_delay =
        spec.delay_min +
        static_cast<SimTime>(rng_.next_below(
            static_cast<std::uint64_t>(span) + 1));
    record(FaultKind::kDelay, src, dst, now, msg.tag);
  }
  return decision;
}

}  // namespace dtio::net
