// Tests for the observability layer: metrics registry semantics, histogram
// percentile accuracy, span collection and cross-layer parenting through a
// live cluster run, and both exporters (Chrome trace JSON, run report).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/phase.h"
#include "obs/run_report.h"
#include "obs/span.h"
#include "net/fault.h"
#include "pfs/cluster.h"

namespace dtio::obs {
namespace {

using sim::Task;

// ---- Metrics registry --------------------------------------------------------

TEST(MetricsRegistry, SameKeyYieldsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("reqs", "node=1");
  Counter& b = reg.counter("reqs", "node=1");
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("reqs", "node=2");
  EXPECT_NE(&a, &c);
  a.add(3);
  c.add(4);
  EXPECT_EQ(reg.counter_total("reqs"), 7u);
  EXPECT_EQ(reg.counter_total("absent"), 0u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, LabelHelpersFormat) {
  EXPECT_EQ(label("op", "read"), "op=read");
  EXPECT_EQ(label("node", std::int64_t{7}), "node=7");
  EXPECT_EQ(label("op", "read", "node", 3), "op=read,node=3");
}

TEST(MetricsRegistry, MergedHistogramSpansLabelSets) {
  MetricsRegistry reg;
  reg.histogram("lat", "node=0").record(100);
  reg.histogram("lat", "node=1").record(300);
  reg.histogram("other", "").record(999);
  const Histogram merged = reg.merged_histogram("lat");
  EXPECT_EQ(merged.count(), 2u);
  EXPECT_EQ(merged.min(), 100);
  EXPECT_EQ(merged.max(), 300);
  EXPECT_DOUBLE_EQ(merged.mean(), 200.0);
}

TEST(MetricsRegistry, ExportIsValidJson) {
  MetricsRegistry reg;
  reg.counter("c", "k=\"quoted\"").add(1);
  reg.gauge("g").set(0.5);
  reg.histogram("h").record(42);
  const std::string doc = reg.to_json();
  EXPECT_TRUE(json_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
}

// ---- Histogram ---------------------------------------------------------------

TEST(Histogram, ExactStatsAndBoundedPercentileError) {
  Histogram h;
  for (std::int64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  // Log-linear buckets with 8 sub-buckets bound relative error at 1/8.
  for (const double p : {50.0, 90.0, 99.0}) {
    const double exact = p * 10.0;  // nearest-rank on 1..1000
    const double got = h.percentile(p);
    EXPECT_NEAR(got, exact, exact / 8.0) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  // p100 lands in the max's bucket; its representative value stays within
  // the 1/8 relative bound and inside the [min, max] envelope.
  EXPECT_NEAR(h.percentile(100), 1000.0, 1000.0 / 8.0);
  EXPECT_LE(h.percentile(100), 1000.0);
}

TEST(Histogram, SingleValueIsEveryPercentile) {
  Histogram h;
  h.record(777);
  for (const double p : {0.0, 50.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 777.0);
  }
}

TEST(Histogram, EmptyAndNegative) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  h.record(-5);  // clamps to zero
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, MergeAddsBucketwise) {
  Histogram a, b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

// ---- Span collector ----------------------------------------------------------

TEST(SpanCollector, ParentingAndLookup) {
  SpanCollector spans;
  const std::uint64_t trace = spans.new_trace();
  const SpanId root = spans.begin("op", 0, 100, 0, trace);
  const SpanId child = spans.begin("rpc", 0, 150, root, trace);
  spans.set_value(child, 4096);
  spans.end(child, 300);
  spans.end(root, 400);

  const Span* r = spans.find(root);
  const Span* c = spans.find(child);
  ASSERT_NE(r, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(r->parent, 0u);
  EXPECT_EQ(c->parent, root);
  EXPECT_EQ(c->trace, trace);
  EXPECT_EQ(c->value, 4096);
  EXPECT_EQ(c->end, 300);
  EXPECT_EQ(r->end, 400);
  EXPECT_EQ(spans.find(0), nullptr);
}

TEST(SpanCollector, KeepFirstCapacity) {
  SpanCollector spans(/*capacity=*/2);
  EXPECT_NE(spans.begin("a", 0, 0), 0u);
  EXPECT_NE(spans.begin("b", 0, 0), 0u);
  EXPECT_EQ(spans.begin("c", 0, 0), 0u);  // dropped
  EXPECT_EQ(spans.dropped(), 1u);
  spans.end(0, 10);           // null id: ignored
  spans.set_value(0, 1);      // null id: ignored
  EXPECT_EQ(spans.spans().size(), 2u);
}

// ---- Cross-layer span propagation through a live cluster ---------------------

const Span* find_span(const Observability& obs, std::string_view name) {
  for (const Span& s : obs.spans.spans()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(Observability, ClusterRunLinksSpansAcrossLayers) {
  net::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 1;
  pfs::Cluster cluster(cfg);
  Observability obs;
  cluster.set_observability(&obs);

  auto client = cluster.make_client(0);
  cluster.scheduler().spawn([](pfs::Client& c) -> Task<void> {
    pfs::MetaResult f = co_await c.create("/obs");
    std::vector<std::uint8_t> data(200'000, 1);
    (void)co_await c.write_contig(f.handle, 0, data.data(),
                                  static_cast<std::int64_t>(data.size()));
  }(*client));
  cluster.run();

  // Client op root span for the write, with its own trace.
  const Span* op = find_span(obs, "contig_write");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->parent, 0u);
  EXPECT_NE(op->trace, 0u);
  EXPECT_GE(op->end, op->start);
  EXPECT_EQ(op->value, 200'000);

  // The exact chain op -> rpc -> rpc_attempt -> server_handle -> disk, all
  // on the op's trace: every RPC goes through the attempt loop, whose span
  // the server parents its handling under.
  const auto parent_of = [&](const Span& s) { return obs.spans.find(s.parent); };
  bool chain = false, disk_under_handle = false, net_on_trace = false;
  for (const Span& s : obs.spans.spans()) {
    if (s.name == "server_handle" && s.trace == op->trace) {
      const Span* attempt = parent_of(s);
      const Span* rpc = attempt != nullptr ? parent_of(*attempt) : nullptr;
      if (attempt != nullptr && attempt->name == "rpc_attempt" &&
          attempt->trace == op->trace && rpc != nullptr &&
          rpc->name == "rpc" && rpc->trace == op->trace &&
          rpc->parent == op->id) {
        chain = true;
      }
      for (const Span& d : obs.spans.spans()) {
        if (d.name == "disk" && d.parent == s.id) disk_under_handle = true;
      }
    }
    if (s.name == "net_send" && s.trace == op->trace) net_on_trace = true;
  }
  EXPECT_TRUE(chain);
  EXPECT_TRUE(disk_under_handle);
  EXPECT_TRUE(net_on_trace);

  // Every span opened by the run was closed, and the client latency
  // histogram saw every op (create + write, plus any meta traffic).
  for (const Span& s : obs.spans.spans()) {
    EXPECT_GE(s.end, s.start) << s.name;
  }
  const Histogram lat = obs.metrics.merged_histogram("client_op_latency_ns");
  EXPECT_GE(lat.count(), 2u);
  cluster.publish_metrics();
  EXPECT_GT(obs.metrics.counter_total("server_requests_total"), 0u);
  EXPECT_EQ(obs.metrics.counter_total("server_requests_total"),
            obs.metrics.counter_total("net_messages_total") / 2);
}

TEST(Observability, DisabledRunMatchesEnabledTiming) {
  const auto run = [](Observability* obs) {
    net::ClusterConfig cfg;
    cfg.num_servers = 2;
    cfg.num_clients = 1;
    pfs::Cluster cluster(cfg);
    if (obs != nullptr) cluster.set_observability(obs);
    auto client = cluster.make_client(0);
    cluster.scheduler().spawn([](pfs::Client& c) -> Task<void> {
      pfs::MetaResult f = co_await c.create("/same");
      (void)co_await c.write_contig(f.handle, 0, nullptr, 1 << 20);
      (void)co_await c.read_contig(f.handle, 4096, nullptr, 1 << 18);
    }(*client));
    cluster.run();
    return cluster.scheduler().now();
  };
  Observability obs;
  // Instrumentation records but never perturbs the simulation.
  EXPECT_EQ(run(nullptr), run(&obs));
  EXPECT_FALSE(obs.spans.spans().empty());
}

// ---- Exporters ---------------------------------------------------------------

TEST(ChromeTrace, ExportsValidLoadableJson) {
  Observability obs;
  const std::uint64_t trace = obs.spans.new_trace();
  const SpanId root = obs.spans.begin("op \"x\"", 1, 1000, 0, trace);
  const SpanId child = obs.spans.begin("disk", 0, 2000, root, trace);
  obs.spans.set_value(child, 4096);
  obs.spans.end(child, 5000);
  obs.spans.end(root, 9000);
  obs.spans.sample("queue_depth", 0, 1500, 3.0);

  ChromeTraceOptions opts;
  opts.node_names = {"srv0", "cli0"};
  std::ostringstream out;
  write_chrome_trace(obs, out, opts);
  const std::string doc = out.str();

  EXPECT_TRUE(json_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"srv0\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);   // spans
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);   // counter track
  EXPECT_NE(doc.find("\"queue_depth\""), std::string::npos);
  // ts/dur are microseconds: the root span is ts=1, dur=8.
  EXPECT_NE(doc.find("\"ts\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":8"), std::string::npos);
}

TEST(ChromeTrace, OpenSpanGetsNonNegativeDuration) {
  Observability obs;
  obs.spans.begin("never_closed", 0, 500);  // end stays -1
  std::ostringstream out;
  write_chrome_trace(obs, out);
  EXPECT_TRUE(json_valid(out.str()));
  EXPECT_EQ(out.str().find("-"), std::string::npos);  // no negative numbers
}

TEST(RunReport, ToJsonMatchesSchema) {
  RunReport report;
  report.bench = "unit";
  report.params["clients"] = 6;
  MethodReport m;
  m.method = "Datatype I/O";
  m.sim_seconds = 1.5;
  m.bandwidth_mb_s = 43.5;
  m.events = 1234;
  m.per_client.desired_bytes = 100;
  Histogram h;
  h.record(2'000'000);  // 2 ms in ns
  m.latency = LatencySummary::from(h);
  report.methods.push_back(m);
  report.scalars["extra"] = 0.25;

  const std::string doc = report.to_json();
  EXPECT_TRUE(json_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"schema\":\"dtio-bench-report-v2\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"spans\""), std::string::npos);
  EXPECT_NE(doc.find("\"bench\":\"unit\""), std::string::npos);
  EXPECT_NE(doc.find("\"Datatype I/O\""), std::string::npos);
  EXPECT_NE(doc.find("\"scalars\""), std::string::npos);
  // Nanoseconds became microseconds in the latency summary.
  EXPECT_DOUBLE_EQ(m.latency.p50_us, 2000.0);
  EXPECT_EQ(m.latency.count, 1u);
}

TEST(JsonValidator, AcceptsAndRejects) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[1,2.5,-3e2,\"s\",true,null]"));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{} trailing"));
  EXPECT_FALSE(json_valid("{\"a\":}"));
  EXPECT_FALSE(json_valid("[1,]"));
}

TEST(JsonParser, ParsesDocumentsAndRejectsMalformed) {
  const auto doc = json_parse(
      "{\"a\":[1,2,{\"b\":\"x\\ny\"}],\"n\":-2.5e3,\"t\":true,\"z\":null}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_DOUBLE_EQ(a->items[1].number, 2.0);
  EXPECT_EQ(a->items[2].str("b"), "x\ny");
  EXPECT_DOUBLE_EQ(doc->num("n"), -2500.0);
  EXPECT_TRUE(doc->find("t")->boolean);
  EXPECT_EQ(doc->find("z")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc->find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(doc->num("missing", 7.0), 7.0);

  EXPECT_FALSE(json_parse("{").has_value());
  EXPECT_FALSE(json_parse("[1,]").has_value());
  EXPECT_FALSE(json_parse("{} trailing").has_value());
  EXPECT_FALSE(json_parse("{\"a\":}").has_value());
}

TEST(JsonParser, RoundTripsWriterOutput) {
  std::string text;
  JsonWriter w(text);
  w.begin_object();
  w.kv("name", "sp\"an\n");
  w.kv("count", std::uint64_t{42});
  w.key("xs").begin_array().value(1.5).value(-3).end_array();
  w.end_object();
  const auto doc = json_parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  EXPECT_EQ(doc->str("name"), "sp\"an\n");
  EXPECT_DOUBLE_EQ(doc->num("count"), 42.0);
  EXPECT_DOUBLE_EQ(doc->find("xs")->items[0].number, 1.5);
}

// ---- Histogram quantile edge cases -------------------------------------------

TEST(Histogram, MergedAcrossManyLabelSetsKeepsQuantiles) {
  MetricsRegistry reg;
  // Three label sets contributing disjoint ranges; the merged histogram
  // must see all of them for its quantiles to make sense.
  for (std::int64_t v = 1; v <= 400; ++v) {
    reg.histogram("lat", "node=0").record(v);
  }
  for (std::int64_t v = 401; v <= 800; ++v) {
    reg.histogram("lat", "op=read").record(v);
  }
  for (std::int64_t v = 801; v <= 1000; ++v) {
    reg.histogram("lat", "").record(v);
  }
  const Histogram merged = reg.merged_histogram("lat");
  EXPECT_EQ(merged.count(), 1000u);
  EXPECT_EQ(merged.min(), 1);
  EXPECT_EQ(merged.max(), 1000);
  for (const double p : {50.0, 99.0}) {
    const double exact = p * 10.0;
    EXPECT_NEAR(merged.percentile(p), exact, exact / 8.0) << "p" << p;
  }
}

TEST(Histogram, P999OnSparseBuckets) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(99.9), 0.0);  // empty
  h.record(5'000'000);
  EXPECT_DOUBLE_EQ(h.percentile(99.9), 5'000'000.0);  // single sample
  // 999 fast ops and one 100x outlier: p99.9 must land in the outlier's
  // bucket even though every intermediate bucket is empty.
  Histogram sparse;
  for (int i = 0; i < 999; ++i) sparse.record(1000);
  sparse.record(100'000);
  EXPECT_NEAR(sparse.percentile(50), 1000.0, 1000.0 / 8.0);
  EXPECT_NEAR(sparse.percentile(99.9), 100'000.0, 100'000.0 / 8.0);
}

// ---- Timeline ring buffer ----------------------------------------------------

TEST(Timeline, RingRetainsNewestAndTracksAllTimeStats) {
  TimelineSeries s("queue_depth", 3, /*capacity=*/4);
  for (int i = 1; i <= 10; ++i) {
    s.push(i * 100, static_cast<double>(i == 7 ? 99 : i));
  }
  EXPECT_EQ(s.total(), 10u);
  EXPECT_EQ(s.dropped(), 6u);
  const std::vector<TimelinePoint> pts = s.points();
  ASSERT_EQ(pts.size(), 4u);  // newest four, in time order
  EXPECT_EQ(pts.front().time, 700);
  EXPECT_EQ(pts.back().time, 1000);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i - 1].time, pts[i].time);
  }
  // Summary stats cover every point ever pushed, not just the ring.
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 99.0);
  EXPECT_EQ(s.peak_time(), 700);
  EXPECT_DOUBLE_EQ(s.mean(), (1 + 2 + 3 + 4 + 5 + 6 + 99 + 8 + 9 + 10) / 10.0);
}

TEST(Timeline, SeriesCreatedOnFirstUseInInsertionOrder) {
  Timeline tl;
  tl.set_capacity(2);
  TimelineSeries& a = tl.series("queue_depth", 0);
  TimelineSeries& b = tl.series("queue_depth", 1);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&tl.series("queue_depth", 0), &a);
  ASSERT_EQ(tl.all().size(), 2u);
  EXPECT_EQ(tl.all()[0]->node(), 0);
  EXPECT_EQ(tl.all()[1]->node(), 1);
}

// ---- Phase attribution -------------------------------------------------------

Span make_span(SpanId id, SpanId parent, std::uint64_t trace,
               const char* name, SimTime start, SimTime end,
               Phase phase = Phase::kNone) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.trace = trace;
  s.name = name;
  s.start = start;
  s.end = end;
  s.phase = phase;
  return s;
}

TEST(PhaseAnalysis, UnionsOverlapsAndClipsToOpWindow) {
  std::vector<Span> spans;
  spans.push_back(make_span(1, 0, 10, "contig_read", 0, 100));
  // Two overlapping disk spans: union is [10, 40) = 30 ns, not 40.
  spans.push_back(make_span(2, 1, 10, "disk", 10, 30, Phase::kServerDisk));
  spans.push_back(make_span(3, 1, 10, "disk", 20, 40, Phase::kServerDisk));
  // Queue wait, partly outside the op window: clipped to [40, 100).
  spans.push_back(
      make_span(4, 1, 10, "server_queue", 40, 120, Phase::kServerQueue));
  // A different trace must not leak in.
  spans.push_back(make_span(5, 0, 11, "contig_read", 0, 50));
  spans.push_back(
      make_span(6, 5, 11, "disk", 0, 50, Phase::kServerDisk));

  std::vector<OpBreakdown> ops = decompose_ops(spans);
  ASSERT_EQ(ops.size(), 2u);
  const OpBreakdown* op = nullptr;
  for (const OpBreakdown& o : ops) {
    if (o.trace == 10) op = &o;
  }
  ASSERT_NE(op, nullptr);
  EXPECT_DOUBLE_EQ(op->phase_ns[static_cast<std::size_t>(Phase::kServerDisk)],
                   30.0);
  EXPECT_DOUBLE_EQ(op->phase_ns[static_cast<std::size_t>(Phase::kServerQueue)],
                   60.0);
  // Disk and queue don't overlap, so attributed is their sum.
  EXPECT_DOUBLE_EQ(op->attributed_ns, 90.0);
  EXPECT_DOUBLE_EQ(op->coverage(), 0.9);
}

TEST(PhaseAnalysis, SkipsOpenRootsAndUntypedTraces) {
  std::vector<Span> spans;
  // Open root (end < start sentinel): not analyzable.
  spans.push_back(make_span(1, 0, 10, "contig_read", 50, -1));
  spans.push_back(make_span(2, 1, 10, "disk", 60, 70, Phase::kServerDisk));
  // Closed root whose trace has only untyped spans: skipped too.
  spans.push_back(make_span(3, 0, 11, "contig_read", 0, 100));
  spans.push_back(make_span(4, 3, 11, "rpc", 10, 90));
  EXPECT_TRUE(decompose_ops(spans).empty());
}

TEST(PhaseAnalysis, SummaryQuantilesAndDominantPhase) {
  // 100 ops of 100 ns each, fully queue-bound, plus one 2'000 ns op that
  // is disk-bound. The p50 tail set (the slowest half) is dominated by
  // queue time (50 x 100 ns vs 1'800 ns of disk); the p99.9 tail set is
  // just the outlier, so disk wins there.
  std::vector<Span> spans;
  SpanId next = 1;
  for (std::uint64_t t = 1; t <= 100; ++t) {
    const SpanId root = next++;
    spans.push_back(make_span(root, 0, t, "contig_read", 0, 100));
    spans.push_back(make_span(next++, root, t, "server_queue", 0, 100,
                              Phase::kServerQueue));
  }
  const SpanId big = next++;
  spans.push_back(make_span(big, 0, 999, "contig_read", 0, 2'000));
  spans.push_back(
      make_span(next++, big, 999, "disk", 0, 1'800, Phase::kServerDisk));

  const PhaseReport report = summarize_phases(decompose_ops(spans));
  EXPECT_EQ(report.ops, 101u);
  ASSERT_EQ(report.quantiles.size(), 3u);
  const PhaseQuantile* p50 = report.quantile(50);
  const PhaseQuantile* p999 = report.quantile(99.9);
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p999, nullptr);
  EXPECT_DOUBLE_EQ(p50->latency_ns, 100.0);
  EXPECT_EQ(p50->dominant, Phase::kServerQueue);
  EXPECT_DOUBLE_EQ(p999->latency_ns, 2'000.0);
  EXPECT_EQ(p999->dominant, Phase::kServerDisk);
  EXPECT_DOUBLE_EQ(p999->coverage, 0.9);
  EXPECT_EQ(summarize_phases({}).ops, 0u);
}

TEST(PhaseAnalysis, PhaseNamesRoundTrip) {
  for (int p = 0; p < kPhaseCount; ++p) {
    const Phase phase = static_cast<Phase>(p);
    EXPECT_EQ(phase_from_name(phase_name(phase)), phase);
  }
  EXPECT_EQ(phase_from_name("no_such_phase"), Phase::kNone);
  EXPECT_EQ(phase_from_name(""), Phase::kNone);
}

// ---- Sampler and typed spans through a live cluster --------------------------

TEST(Observability, SamplerDoesNotPerturbSimulation) {
  const auto run = [](Observability* obs, std::uint64_t* events) {
    net::ClusterConfig cfg;
    cfg.num_servers = 2;
    cfg.num_clients = 1;
    pfs::Cluster cluster(cfg);
    if (obs != nullptr) cluster.set_observability(obs);
    auto client = cluster.make_client(0);
    cluster.scheduler().spawn([](pfs::Client& c) -> Task<void> {
      pfs::MetaResult f = co_await c.create("/sampled");
      (void)co_await c.write_contig(f.handle, 0, nullptr, 1 << 20);
      (void)co_await c.read_contig(f.handle, 4096, nullptr, 1 << 18);
    }(*client));
    cluster.run();
    *events = cluster.scheduler().events_processed();
    return cluster.scheduler().now();
  };
  ObsConfig cfg;
  cfg.sample_period = 10 * kMicrosecond;
  Observability obs(cfg);
  std::uint64_t detached_events = 0, attached_events = 0;
  const SimTime detached = run(nullptr, &detached_events);
  const SimTime attached = run(&obs, &attached_events);
  // The telemetry side-channel must not shift time or consume events.
  EXPECT_EQ(detached, attached);
  EXPECT_EQ(detached_events, attached_events);
  EXPECT_FALSE(obs.timeline.empty());
  // The sampler covered the run: per-server queue depth plus the
  // cluster-wide network series, each with more than one point.
  const TimelineSeries* queue = nullptr;
  const TimelineSeries* net = nullptr;
  for (const auto& s : obs.timeline.all()) {
    if (s->name() == "queue_depth" && s->node() == 0) queue = s.get();
    if (s->name() == "net_inflight_bytes") net = s.get();
  }
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(net, nullptr);
  EXPECT_GT(queue->total(), 1u);
  EXPECT_GT(net->max(), 0.0);
}

TEST(Observability, QueueWaitSpanEmittedUnderBacklog) {
  // Two clients against one slow server: the second request must wait in
  // the mailbox while the first is decoded, producing a retroactive
  // server_queue span on its trace.
  net::ClusterConfig cfg;
  cfg.num_servers = 1;
  cfg.num_clients = 2;
  cfg.server.request_overhead = kMillisecond;
  pfs::Cluster cluster(cfg);
  Observability obs;
  cluster.set_observability(&obs);
  auto c0 = cluster.make_client(0);
  auto c1 = cluster.make_client(1);
  std::uint64_t handle = 0;
  cluster.scheduler().spawn(
      [](pfs::Client& c, std::uint64_t& h) -> Task<void> {
        pfs::MetaResult f = co_await c.create("/wait");
        h = f.handle;
        (void)co_await c.write_contig(f.handle, 0, nullptr, 65536);
      }(*c0, handle));
  cluster.run();
  for (pfs::Client* c : {c0.get(), c1.get()}) {
    cluster.scheduler().spawn(
        [](pfs::Client& cl, std::uint64_t h) -> Task<void> {
          (void)co_await cl.read_contig(h, 0, nullptr, 4096);
        }(*c, handle));
  }
  cluster.run();

  const Span* queue = find_span(obs, "server_queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->phase, Phase::kServerQueue);
  EXPECT_GT(queue->end, queue->start);
  EXPECT_NE(queue->trace, 0u);
  // Parented as a sibling of server_handle under the op's rpc span.
  const Span* parent = obs.spans.find(queue->parent);
  ASSERT_NE(parent, nullptr);
  // Typed phases now cover most of that read; the analyzer sees it.
  std::vector<OpBreakdown> ops = decompose_ops(obs.spans);
  bool queued_read = false;
  for (const OpBreakdown& op : ops) {
    if (op.name == "contig_read" &&
        op.phase_ns[static_cast<std::size_t>(Phase::kServerQueue)] > 0) {
      queued_read = true;
      EXPECT_GT(op.coverage(), 0.5);
    }
  }
  EXPECT_TRUE(queued_read);
}

TEST(RunReport, TimelineAndPhasesSections) {
  RunReport report;
  report.bench = "unit";
  Timeline tl;
  tl.series("queue_depth", 0).push(1000, 3.0);
  tl.series("queue_depth", 0).push(2000, 5.0);
  report.add_timeline(tl);

  std::vector<Span> spans;
  spans.push_back(make_span(1, 0, 10, "contig_read", 0, 100));
  spans.push_back(
      make_span(2, 1, 10, "server_queue", 0, 80, Phase::kServerQueue));
  report.phases.emplace_back("contig_read",
                             summarize_phases(decompose_ops(spans)));

  const std::string doc = report.to_json();
  EXPECT_TRUE(json_valid(doc)) << doc;
  const auto parsed = json_parse(doc);
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* timeline = parsed->find("timeline");
  ASSERT_NE(timeline, nullptr);
  ASSERT_EQ(timeline->items.size(), 1u);
  EXPECT_EQ(timeline->items[0].str("name"), "queue_depth");
  EXPECT_DOUBLE_EQ(timeline->items[0].num("max"), 5.0);
  const JsonValue* phases = parsed->find("phases");
  ASSERT_NE(phases, nullptr);
  const JsonValue* read = phases->find("contig_read");
  ASSERT_NE(read, nullptr);
  EXPECT_DOUBLE_EQ(read->num("ops"), 1.0);
  EXPECT_DOUBLE_EQ(read->num("mean_coverage"), 0.8);
}

TEST(Observability, CapturesClusterProtocolActivity) {
  net::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 1;
  pfs::Cluster cluster(cfg);
  Observability obs;
  cluster.set_observability(&obs);

  auto client = cluster.make_client(0);
  cluster.scheduler().spawn([](pfs::Client& c) -> Task<void> {
    pfs::MetaResult f = co_await c.create("/traced");
    std::vector<std::uint8_t> data(1000, 1);
    (void)co_await c.write_contig(f.handle, 0, data.data(), 1000);
  }(*client));
  cluster.run();

  // A meta and a data request were each handled at a server, on the trace
  // of the client op that sent them.
  std::map<std::uint64_t, std::string> root_of_trace;
  for (const Span& s : obs.spans.spans()) {
    if (s.parent == 0 && s.trace != 0) root_of_trace[s.trace] = s.name;
  }
  bool saw_meta = false, saw_write = false;
  SimTime last = 0;
  std::size_t in_order = 0;
  for (const Span& s : obs.spans.spans()) {
    if (s.name == "server_handle" && s.node < cfg.num_servers) {
      saw_meta |= root_of_trace[s.trace] == "meta_create";
      saw_write |= root_of_trace[s.trace] == "contig_write";
    }
    if (s.start >= last) ++in_order;
    last = s.start;
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_write);
  EXPECT_EQ(in_order, obs.spans.spans().size());  // chronological

  // Detach: no further recording.
  const std::size_t before = obs.spans.spans().size();
  cluster.set_observability(nullptr);
  client->set_observability(nullptr);
  cluster.scheduler().spawn([](pfs::Client& c) -> Task<void> {
    (void)co_await c.stat("/traced");
  }(*client));
  cluster.run();
  EXPECT_EQ(obs.spans.spans().size(), before);
}

TEST(Observability, CrashAndRestartAreInstantsOnTheServerNode) {
  net::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 1;
  pfs::Cluster cluster(cfg);
  Observability obs;
  cluster.set_observability(&obs);
  cluster.schedule_server_crash(1, 5 * kMillisecond, 10 * kMillisecond);
  cluster.run();

  const Span* crash = find_span(obs, "crash");
  const Span* restart = find_span(obs, "restart");
  ASSERT_NE(crash, nullptr);
  ASSERT_NE(restart, nullptr);
  for (const Span* s : {crash, restart}) {
    EXPECT_EQ(s->node, 1);
    EXPECT_EQ(s->end, s->start);  // zero-length
    EXPECT_EQ(s->parent, 0u);     // node-level root...
    EXPECT_EQ(s->trace, 0u);      // ...that the phase analyzer skips
    EXPECT_EQ(s->phase, Phase::kNone);
  }
  EXPECT_EQ(crash->start, 5 * kMillisecond);
  EXPECT_EQ(restart->start, 15 * kMillisecond);
  EXPECT_TRUE(decompose_ops(obs.spans).empty());
}

// ---- Counter tables --------------------------------------------------------

/// Every counter name in the four owners' tables.
std::set<std::string> table_counter_names() {
  std::set<std::string> names;
  for (const auto& row : pfs::IOServer::counter_table()) names.insert(row.name);
  for (const auto& row : pfs::Client::counter_table()) names.insert(row.name);
  for (const auto& row : net::Network::counter_table()) names.insert(row.name);
  for (const auto& row : net::Network::mailbox_counter_table()) {
    names.insert(row.name);
  }
  for (const auto& row : net::FaultPlan::counter_table()) {
    names.insert(row.name);
  }
  return names;
}

TEST(PublishMetrics, EveryRowMatchesItsOwnerWithAllSubsystemsOn) {
  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 2;
  cfg.strip_size = 1024;
  cfg.replication = 2;
  cfg.meta_shards = 2;
  cfg.lock_stripe_bytes = 4 * kKiB;
  cfg.file_locking = true;
  cfg.server.block_checksums = true;
  cfg.server.scrub_interval = 5 * kMillisecond;
  cfg.server.scrub_bytes_per_pass = 64 * kKiB;
  cfg.server.cache_block_bytes = 1024;
  cfg.server.cache_capacity_bytes = 64 * kKiB;
  cfg.server.dataloop_cache = true;
  cfg.client.write_behind_bytes = 8 * kKiB;
  cfg.client.rpc_timeout = 20 * kMillisecond;
  cfg.client.rpc_max_attempts = 8;
  cfg.client.hedge_quantile = 90;
  cfg.client.hedge_min_samples = 4;
  cfg.client.breaker_failures = 3;
  pfs::Cluster cluster(cfg);
  Observability obs;
  cluster.set_observability(&obs);
  std::vector<std::unique_ptr<pfs::Client>> clients;
  for (int r = 0; r < cfg.num_clients; ++r) {
    clients.push_back(cluster.make_client(r));
  }
  constexpr std::int64_t kBytes = 16 * kKiB;

  // Clean phase: the lock path has no retry layer, so locks run before
  // the wire faults are attached.
  std::vector<std::uint64_t> handles(clients.size());
  const std::vector<std::string> paths = {"/combo0", "/combo1"};
  for (std::size_t r = 0; r < clients.size(); ++r) {
    cluster.scheduler().spawn(
        [](pfs::Client& c, const std::string& path, std::uint64_t& h)
            -> Task<void> {
          pfs::MetaResult f = co_await c.create(path);
          EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
          h = f.handle;
          std::vector<std::uint8_t> data(kBytes, 7);
          EXPECT_TRUE((co_await c.lock_range(h, 0, kBytes)).is_ok());
          EXPECT_TRUE((co_await c.write_contig(h, 0, data.data(), kBytes))
                          .is_ok());
          EXPECT_TRUE((co_await c.unlock_range(h, 0, kBytes)).is_ok());
          EXPECT_TRUE((co_await c.stat_handle(h)).status.is_ok());
        }(*clients[r], paths[r], handles[r]));
  }
  cluster.run();

  // Faulty phase: wire drops and duplicates on client-server links plus
  // bit rot on every disk, under reads and staged rewrites.
  net::FaultPlan plan(11);
  net::FaultSpec wire;
  wire.drop = 0.03;
  wire.duplicate = 0.03;
  plan.set_default_spec(wire);
  plan.set_scope_max_node(cfg.num_servers);
  net::DiskFaultSpec rot;
  rot.bit_rot = 0.02;
  for (int s = 0; s < cfg.num_servers; ++s) plan.set_disk_spec(s, rot);
  cluster.set_fault_plan(&plan);
  int finished = 0;
  for (std::size_t r = 0; r < clients.size(); ++r) {
    cluster.scheduler().spawn(
        [](pfs::Client& c, std::uint64_t h, int& done) -> Task<void> {
          std::vector<std::uint8_t> data(kBytes, 9);
          std::vector<std::uint8_t> back(kBytes);
          for (int round = 0; round < 4; ++round) {
            (void)co_await c.write_contig(h, 0, data.data(), kBytes);
            (void)co_await c.flush_write_behind();
            (void)co_await c.read_contig(h, 0, back.data(), kBytes);
          }
          ++done;
        }(*clients[r], handles[r], finished));
  }
  cluster.run();
  EXPECT_EQ(finished, cfg.num_clients);

  cluster.publish_metrics();

  // Expected value of every counter, summed over its label sets, read
  // straight from the owners' stats and accessors.
  std::map<std::string, std::uint64_t> want;
  for (int s = 0; s < cfg.num_servers; ++s) {
    const pfs::ServerStats& st = cluster.server(s).stats();
    want["server_requests_total"] += st.requests;
    want["server_disk_bytes_total"] += st.disk_bytes;
    want["server_subtrees_skipped_total"] += st.subtrees_skipped;
    want["server_pieces_pruned_total"] += st.pieces_pruned;
    want["server_replays_suppressed_total"] += st.replays_suppressed;
    want["server_crashes_total"] += st.crashes;
    want["server_crash_discarded_total"] += st.crash_discarded;
    want["server_crc_rejects_total"] += st.crc_rejects;
    want["server_shed_total"] += st.sheds_depth + st.sheds_bytes;
    want["server_cache_hits_total"] += st.cache_hits;
    want["server_cache_misses_total"] += st.cache_misses;
    want["server_cache_readahead_issued_total"] += st.cache_readahead_issued;
    want["server_cache_evictions_total"] += st.cache_evictions;
    want["server_cache_dirty_flushed_bytes_total"] +=
        st.cache_dirty_flushed_bytes;
    want["server_dataloop_cache_hits_total"] += st.dataloop_cache_hits;
    want["server_dataloop_cache_misses_total"] += st.dataloop_cache_misses;
    want["server_resync_strips_pulled_total"] += st.resync_strips_pulled;
    want["server_resync_bytes_pulled_total"] += st.resync_bytes_pulled;
    want["server_media_errors_total"] += st.media_sector_errors +
                                         st.media_bit_rot_detected +
                                         st.media_torn_detected;
    want["server_checksum_mismatches_total"] += st.checksum_mismatches;
    want["server_scrub_blocks_total"] += st.scrub_blocks;
    want["server_scrub_repairs_total"] += st.scrub_repairs;
    want["server_scrub_errors_total"] += st.scrub_errors;
    want["meta_ops_total"] += st.meta_ops();
    want["meta_lock_waits_total"] += st.lock_waits;
  }
  for (const auto& c : clients) {
    want["client_retries_total"] += c->rpc_retries();
    want["client_rpc_timeouts_total"] += c->rpc_timeouts();
    want["client_hedges_issued_total"] += c->hedges_issued();
    want["client_hedges_won_total"] += c->hedges_won();
    want["client_hedges_suppressed_total"] += c->hedges_suppressed();
    want["client_overloaded_total"] += c->overloads_seen();
    want["client_breaker_fast_fails_total"] += c->breaker_fast_fails();
    want["client_read_failovers_total"] += c->read_failovers();
    want["client_quorum_writes_total"] += c->quorum_writes();
    want["client_data_loss_total"] += c->data_loss_surfaced();
    want["client_bad_replies_total"] += c->bad_replies();
    want["client_wb_staged_bytes_total"] += c->wb_staged_bytes();
    want["client_wb_coalesced_ops_total"] += c->wb_coalesced_ops();
    want["client_wb_flushes_total"] += c->wb_flushes();
  }
  want["net_messages_total"] = cluster.network().total_messages();
  want["net_wire_bytes_total"] = cluster.network().total_wire_bytes();
  for (int node = 0; node < cluster.network().num_nodes(); ++node) {
    want["net_replies_dropped_total"] +=
        cluster.network().mailbox(node).stats().replies_dropped;
  }
  want["faults_injected_total"] = plan.counters().total();

  for (const std::string& name : table_counter_names()) {
    ASSERT_TRUE(want.contains(name)) << name << " has no expectation";
    EXPECT_EQ(obs.metrics.counter_total(name), want[name]) << name;
  }
  EXPECT_EQ(want.size(), table_counter_names().size());

  // Every subsystem actually ran.
  for (const char* name :
       {"server_cache_hits_total", "server_scrub_blocks_total",
        "server_checksum_mismatches_total", "meta_ops_total",
        "client_quorum_writes_total", "client_retries_total",
        "client_wb_staged_bytes_total", "client_wb_flushes_total",
        "net_replies_dropped_total", "faults_injected_total"}) {
    EXPECT_GT(want[name], 0u) << name;
  }

  // Publishing sets rather than adds: a second call changes nothing.
  cluster.publish_metrics();
  for (const std::string& name : table_counter_names()) {
    EXPECT_EQ(obs.metrics.counter_total(name), want[name]) << name;
  }
}

TEST(PublishMetrics, CatalogueListsEveryCounter) {
  // Counters registered directly by the access methods and two-phase
  // collective I/O; every other counter comes from a counter table.
  std::set<std::string> expected = table_counter_names();
  for (const char* name :
       {"io_posix_pieces_total", "io_list_batches_total",
        "io_sieve_windows_total", "io_datatype_ops_total", "tp_rounds_total"}) {
    expected.insert(name);
  }

  // Counter rows of the metric table in docs/observability.md:
  // "| `a` / `b` | counter | labels | meaning |".
  std::ifstream doc(DTIO_OBSERVABILITY_DOC);
  ASSERT_TRUE(doc.is_open()) << DTIO_OBSERVABILITY_DOC;
  std::set<std::string> documented;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::size_t bar = line.find('|', 1);
    if (bar == std::string::npos ||
        line.compare(bar, 12, "| counter | ") != 0) {
      continue;
    }
    const std::string names = line.substr(1, bar - 1);
    for (std::size_t at = names.find('`'); at != std::string::npos;) {
      const std::size_t close = names.find('`', at + 1);
      documented.insert(names.substr(at + 1, close - at - 1));
      at = names.find('`', close + 1);
    }
  }

  for (const std::string& name : expected) {
    EXPECT_TRUE(documented.contains(name)) << name << " is not documented";
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(expected.contains(name)) << name << " is documented but "
                                         << "not published";
  }
}

}  // namespace
}  // namespace dtio::obs
