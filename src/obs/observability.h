// The observability context: one object bundling the metrics registry and
// the span/counter collector. Instrumented layers (client, server,
// network, access methods, two-phase) hold a nullable pointer to one of
// these; when it is null — the default — every instrumented site costs a
// single pointer test.
//
// Lifecycle: a bench or test constructs an Observability, attaches it via
// Cluster::set_observability() BEFORE creating clients, runs, calls
// Cluster::publish_metrics(), then exports (chrome_trace.h for Perfetto,
// run_report.h for machine-readable bench output, MetricsRegistry::to_json
// for raw metrics).
#pragma once

#include <cstddef>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeline.h"

namespace dtio::obs {

struct Observability {
  Observability() = default;
  explicit Observability(std::size_t span_capacity) : spans(span_capacity) {}
  explicit Observability(const ObsConfig& cfg) : config(cfg) {
    timeline.set_capacity(cfg.timeline_capacity);
  }

  ObsConfig config;
  MetricsRegistry metrics;
  SpanCollector spans;
  /// Time-resolved counter series, fed by the cluster sampler when
  /// config.sample_period > 0 (see timeline.h).
  Timeline timeline;
};

}  // namespace dtio::obs
