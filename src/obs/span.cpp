#include "obs/span.h"

namespace dtio::obs {

const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kNone: return "none";
    case Phase::kClientPrep: return "client_prep";
    case Phase::kClientQueue: return "client_queue";
    case Phase::kClientBackoff: return "client_backoff";
    case Phase::kNetRequest: return "net_request";
    case Phase::kServerQueue: return "server_queue";
    case Phase::kServerDecode: return "server_decode";
    case Phase::kServerExpand: return "server_expand";
    case Phase::kServerCache: return "server_cache";
    case Phase::kServerDisk: return "server_disk";
    case Phase::kNetReply: return "net_reply";
    case Phase::kClientFlush: return "client_flush";
    case Phase::kServerResync: return "server_resync";
    case Phase::kClientLockWait: return "client_lock_wait";
  }
  return "none";
}

Phase phase_from_name(std::string_view name) noexcept {
  for (int i = 1; i < kPhaseCount; ++i) {
    const auto p = static_cast<Phase>(i);
    if (name == phase_name(p)) return p;
  }
  return Phase::kNone;
}

SpanId SpanCollector::begin(std::string_view name, int node, SimTime start,
                            SpanId parent, std::uint64_t trace, Phase phase) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.trace = trace;
  span.name = name;
  span.node = node;
  span.start = start;
  span.phase = phase;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanCollector::end(SpanId id, SimTime end) noexcept {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end = end;
}

SpanId SpanCollector::instant(std::string_view name, int node, SimTime at,
                              SpanId parent, std::uint64_t trace,
                              std::int64_t value) {
  const SpanId id = begin(name, node, at, parent, trace);
  end(id, at);
  set_value(id, value);
  return id;
}

void SpanCollector::set_value(SpanId id, std::int64_t value) noexcept {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].value = value;
}

void SpanCollector::sample(std::string_view name, int node, SimTime time,
                           double value) {
  if (samples_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  samples_.push_back(CounterSample{std::string(name), node, time, value});
}

}  // namespace dtio::obs
