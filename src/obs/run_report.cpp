#include "obs/run_report.h"

#include <fstream>

#include "obs/json.h"
#include "obs/metrics.h"

namespace dtio::obs {
namespace {

constexpr double kNsPerUs = 1000.0;

void write_io_stats(JsonWriter& w, const IoStats& s) {
  w.begin_object();
  w.kv("desired_bytes", s.desired_bytes);
  w.kv("accessed_bytes", s.accessed_bytes);
  w.kv("io_ops", s.io_ops);
  w.kv("resent_bytes", s.resent_bytes);
  w.kv("request_bytes", s.request_bytes);
  w.kv("regions_client", s.regions_client);
  w.kv("requests_sent", s.requests_sent);
  w.end_object();
}

void write_latency(JsonWriter& w, const LatencySummary& l) {
  w.begin_object();
  w.kv("count", l.count);
  w.kv("mean_us", l.mean_us);
  w.kv("p50_us", l.p50_us);
  w.kv("p90_us", l.p90_us);
  w.kv("p99_us", l.p99_us);
  w.kv("p999_us", l.p999_us);
  w.kv("max_us", l.max_us);
  w.end_object();
}

void write_phase_array(JsonWriter& w,
                       const std::array<double, kPhaseCount>& ns) {
  w.begin_object();
  for (int p = 1; p < kPhaseCount; ++p) {
    const double v = ns[static_cast<std::size_t>(p)];
    if (v > 0) w.kv(phase_name(static_cast<Phase>(p)), v);
  }
  w.end_object();
}

void write_phase_report(JsonWriter& w, const PhaseReport& r) {
  w.begin_object();
  w.kv("ops", r.ops);
  w.kv("mean_ns", r.mean_ns);
  w.kv("mean_attributed_ns", r.mean_attributed_ns);
  w.kv("mean_coverage", r.mean_coverage);
  w.key("mean_phase_ns");
  write_phase_array(w, r.mean_phase_ns);
  w.key("quantiles").begin_array();
  for (const PhaseQuantile& q : r.quantiles) {
    w.begin_object();
    w.kv("quantile", q.quantile);
    w.kv("latency_ns", q.latency_ns);
    w.kv("attributed_ns", q.attributed_ns);
    w.kv("coverage", q.coverage);
    w.kv("dominant", phase_name(q.dominant));
    w.key("phase_ns");
    write_phase_array(w, q.phase_ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

LatencySummary LatencySummary::from(const Histogram& h) {
  LatencySummary s;
  s.count = h.count();
  if (s.count == 0) return s;
  s.mean_us = h.mean() / kNsPerUs;
  s.p50_us = h.percentile(50) / kNsPerUs;
  s.p90_us = h.percentile(90) / kNsPerUs;
  s.p99_us = h.percentile(99) / kNsPerUs;
  s.p999_us = h.percentile(99.9) / kNsPerUs;
  s.max_us = static_cast<double>(h.max()) / kNsPerUs;
  return s;
}

void RunReport::add_timeline(const Timeline& tl) {
  for (const auto& series : tl.all()) {
    TimelineSeriesReport r;
    r.name = series->name();
    r.node = series->node();
    r.total = series->total();
    r.dropped = series->dropped();
    r.min = series->min();
    r.max = series->max();
    r.mean = series->mean();
    r.peak_time = series->peak_time();
    r.points = series->points();
    timeline.push_back(std::move(r));
  }
}

void RunReport::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("schema", "dtio-bench-report-v2");
  w.kv("schema_version", kReportSchemaVersion);
  w.kv("bench", std::string_view(bench));
  w.key("params").begin_object();
  for (const auto& [key, value] : params) w.kv(key, value);
  w.end_object();
  w.key("methods").begin_array();
  for (const MethodReport& m : methods) {
    w.begin_object();
    w.kv("method", std::string_view(m.method));
    w.kv("supported", m.supported);
    w.kv("sim_seconds", m.sim_seconds);
    w.kv("bandwidth_mb_s", m.bandwidth_mb_s);
    w.kv("events", m.events);
    w.key("io_stats");
    write_io_stats(w, m.per_client);
    w.key("latency_us");
    write_latency(w, m.latency);
    w.key("spans").begin_object();
    w.kv("recorded", m.spans_recorded);
    w.kv("dropped", m.spans_dropped);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("scalars").begin_object();
  for (const auto& [key, value] : scalars) w.kv(key, value);
  w.end_object();
  if (!timeline.empty()) {
    w.key("timeline").begin_array();
    for (const TimelineSeriesReport& s : timeline) {
      w.begin_object();
      w.kv("name", std::string_view(s.name));
      w.kv("node", s.node);
      w.kv("total", s.total);
      w.kv("dropped", s.dropped);
      w.kv("min", s.min);
      w.kv("max", s.max);
      w.kv("mean", s.mean);
      w.kv("peak_time_ns", static_cast<std::int64_t>(s.peak_time));
      w.key("points").begin_array();
      for (const TimelinePoint& p : s.points) {
        w.begin_array();
        w.value(static_cast<std::int64_t>(p.time));
        w.value(p.value);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }
  if (!phases.empty()) {
    w.key("phases").begin_object();
    for (const auto& [filter, report] : phases) {
      w.key(filter);
      write_phase_report(w, report);
    }
    w.end_object();
  }
  w.end_object();
}

std::string RunReport::to_json() const {
  std::string out;
  JsonWriter w(out);
  write_json(w);
  return out;
}

bool RunReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json() << '\n';
  return static_cast<bool>(out);
}

}  // namespace dtio::obs
