#include "bench/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "collective/comm.h"
#include "common/rng.h"
#include "io/methods.h"
#include "obs/phase.h"
#include "pfs/cluster.h"

namespace dtio::bench {
namespace {

using sim::Task;

// The checker reads reports of this schema.
static_assert(obs::kReportSchemaVersion == 2);

/// The ServerStats fields and client counters a scenario can report,
/// each a fleet total: summed by Cluster::cache_stats_total(), or over
/// the arm's clients.
#define S(name) {#name, &pfs::ServerStats::name}
constexpr std::pair<const char*, std::uint64_t pfs::ServerStats::*>
    kServerCounters[] = {
        S(regions_walked), S(my_pieces), S(dataloops_decoded),
        S(subtrees_skipped), S(pieces_pruned), S(dataloop_cache_hits),
        S(crashes), S(replays_suppressed), S(crc_rejects), S(sheds_depth),
        S(sheds_bytes), S(disk_accesses), S(cache_hits), S(cache_misses),
        S(cache_readahead_issued), S(cache_evictions),
        S(cache_dirty_flushed_bytes), S(resyncs), S(resync_bytes_pulled),
        S(media_sector_errors), S(media_bit_rot_detected),
        S(media_torn_detected), S(media_repairs), S(media_data_loss),
        S(scrub_passes), S(scrub_blocks), S(scrub_repairs), S(scrub_errors)};
#undef S
#define C(name) {#name, &pfs::Client::name}
constexpr std::pair<const char*, std::uint64_t (pfs::Client::*)()
                                     const noexcept>
    kClientCounters[] = {
        C(rpc_retries), C(rpc_timeouts), C(hedges_issued), C(hedges_won),
        C(breaker_fast_fails), C(read_failovers), C(quorum_writes),
        C(data_loss_surfaced), C(wb_flushes), C(wb_batches),
        C(wb_coalesced_ops), C(wb_staged_ops)};
#undef C

/// A fresh cluster with one client per rank of `cfg.num_clients`, each
/// with its MPI file, and the communicator over them.
/// `obs`, when given, is attached before the clients are made.
struct Rig {
  Rig(const net::ClusterConfig& cfg, obs::Observability* obs,
      bool timing_only)
      : cluster(cfg),
        comm(cluster.scheduler(), cluster.network(), cluster.config(),
             cfg.num_clients) {
    if (obs != nullptr) cluster.set_observability(obs);
    for (int r = 0; r < cfg.num_clients; ++r) {
      clients.push_back(cluster.make_client(r));
      clients.back()->set_transfer_data(!timing_only);
      files.push_back(std::make_unique<mpiio::File>(
          io::Context{cluster.scheduler(), *clients.back(), cluster.config()}));
    }
  }

  pfs::Cluster cluster;
  coll::Communicator comm;
  std::vector<std::unique_ptr<pfs::Client>> clients;
  std::vector<std::unique_ptr<mpiio::File>> files;
};

/// Counts one op's outcome into a step's values: ok, lost (kDataLoss) or
/// failed (any other error).
void count(Values& out, const Status& s) {
  ++out[s.is_ok() ? "ok" : s.code() == StatusCode::kDataLoss ? "lost"
                                                             : "failed"];
}

Task<void> create_task(mpiio::File& f, const std::string& path) {
  (void)co_await f.open(path, true);
}

Task<void> rank_task(mpiio::File& f, coll::Communicator& comm, const Job& job,
                     int rank, int nranks, int& failures, int& unsupported) {
  if (job.open == Job::Open::kAll ||
      (job.open == Job::Open::kOthers && rank != 0)) {
    (void)co_await f.open(job.path, job.open == Job::Open::kAll && rank == 0);
  }
  const RankView v = job.view(rank, nranks);
  f.set_view(v.disp, types::byte_t(), v.filetype);
  for (int frame = 0; frame < job.frames; ++frame) {
    const std::int64_t at = static_cast<std::int64_t>(frame) * job.bytes;
    Status s;
    if (job.collective && job.write) {
      s = co_await f.write_at_all(comm, rank, at, nullptr, 1, v.memtype,
                                  job.method);
    } else if (job.collective) {
      s = co_await f.read_at_all(comm, rank, at, nullptr, 1, v.memtype,
                                 job.method);
    } else if (job.write) {
      s = co_await f.write_at(at, nullptr, 1, v.memtype, job.method);
    } else {
      s = co_await f.read_at(at, nullptr, 1, v.memtype, job.method);
    }
    if (s.code() == StatusCode::kUnsupported) {
      ++unsupported;
      co_return;
    }
    if (!s.is_ok()) {
      ++failures;
      if (job.collective) co_return;
    }
  }
}

/// Runs `job` over every rank of `rig`; returns its desired bytes per
/// simulated second.
double run_job(Rig& rig, const Job& job, int& failures, int& unsupported) {
  const SimTime t0 = rig.cluster.scheduler().now();
  const int nranks = static_cast<int>(rig.files.size());
  for (int r = 0; r < nranks; ++r) {
    rig.cluster.scheduler().spawn(
        rank_task(*rig.files[static_cast<std::size_t>(r)], rig.comm, job, r,
                  nranks, failures, unsupported));
  }
  rig.cluster.run();
  return static_cast<double>(job.bytes) * nranks * job.frames /
         to_seconds(rig.cluster.scheduler().now() - t0);
}

Task<void> write_task(pfs::Client& c, const Step& step,
                      std::vector<std::uint8_t>& chunk, std::uint64_t& handle,
                      Values& out) {
  pfs::MetaResult f = co_await c.create(step.path);
  if (!f.status.is_ok()) {
    ++out["failed"];
    co_return;
  }
  handle = f.handle;
  for (int i = 0; i < step.count; ++i) {
    Status w = co_await c.write_contig(handle, i * step.bytes, chunk.data(),
                                       step.bytes);
    if (!w.is_ok()) ++out["failed"];
  }
}

/// Reads of `step` from `first` on, `step.count` of them or just one when
/// paced; a paced read first waits for its due time.
Task<void> read_task(sim::Scheduler& sched, pfs::Client& c, const Step& step,
                     std::uint64_t handle, int first, SimTime due,
                     SimTime* latency, Values& out) {
  if (latency != nullptr) co_await sched.delay(due - sched.now());
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(step.bytes));
  const int last = latency != nullptr ? first + 1 : step.count;
  for (int i = first; i < last; ++i) {
    const SimTime start = sched.now();
    Status r = co_await c.read_contig(handle, i * step.stride, buf.data(),
                                      step.bytes);
    if (latency != nullptr) *latency = sched.now() - start;
    count(out, r);
  }
}

/// `key`'s value, NaN when there is none.
double value(const Values& values, const std::string& key) {
  const auto it = values.find(key);
  return it == values.end() ? std::nan("") : it->second;
}

/// Nearest-rank percentile over the raw latency samples (exact, not the
/// log-linear histogram estimate).
double percentile_exact(std::vector<SimTime> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::max<std::int64_t>(
      0, static_cast<std::int64_t>(
             p / 100.0 * static_cast<double>(v.size()) + 0.5) -
             1));
  return static_cast<double>(v[std::min(rank, v.size() - 1)]);
}

/// Runs one step of an arm, recording its values in `own`.
void run_step(Rig& rig, net::FaultPlan& plan, const Step& step,
              std::uint64_t& handle, Values& own) {
  pfs::Cluster& cluster = rig.cluster;
  sim::Scheduler& sched = cluster.scheduler();
  const SimTime t0 = sched.now();
  for (const Outage& o : step.outages) {
    for (int s = 0; s < cluster.config().num_servers; ++s) {
      if (o.server >= 0 && o.server != s) continue;
      if (o.slowdown > 0) {
        plan.add_degraded(s, t0 + o.at, t0 + o.at + o.length, o.slowdown);
      } else {
        cluster.schedule_server_crash(s, t0 + o.at, o.length);
      }
    }
  }
  std::vector<std::uint8_t> chunk;
  std::vector<SimTime> latencies(step.pace > 0 ? step.count : 0);
  switch (step.kind) {
    case Step::Kind::kCreate:
      sched.spawn(create_task(*rig.files[0], step.path));
      break;
    case Step::Kind::kJob: {
      int failures = 0;
      int unsupported = 0;
      own["bandwidth"] = run_job(rig, step.job, failures, unsupported);
      own["failed"] = failures;
      break;
    }
    case Step::Kind::kWrite:
      chunk.assign(static_cast<std::size_t>(step.bytes), 0x5A);
      if (step.fill_seed != 0) {
        Rng fill(step.fill_seed);
        for (auto& b : chunk) b = static_cast<std::uint8_t>(fill.next());
      }
      sched.spawn(write_task(*rig.clients[0], step, chunk, handle, own));
      break;
    case Step::Kind::kRead:
      for (std::size_t i = 0; i < latencies.size(); ++i) {
        sched.spawn(read_task(
            sched, *rig.clients[0], step, handle, static_cast<int>(i),
            t0 + step.start + static_cast<SimTime>(i) * step.pace,
            &latencies[i], own));
      }
      if (step.pace > 0) break;
      for (const auto& c : rig.clients) {
        sched.spawn(read_task(sched, *c, step, handle, 0, 0, nullptr, own));
      }
      break;
    case Step::Kind::kFlush:
      cluster.flush_caches();
      break;
    case Step::Kind::kTask:
      for (std::size_t r = 0; r < rig.clients.size(); ++r) {
        sched.spawn(
            step.task(*rig.clients[r], static_cast<int>(r), handle, own));
      }
      break;
  }
  cluster.run();
  own["seconds"] = to_seconds(sched.now() - t0);
  if (latencies.empty()) return;
  own["p50"] = percentile_exact(latencies, 50);
  own["p99"] = percentile_exact(latencies, 99);
  own["p999"] = percentile_exact(latencies, 99.9);
}

/// The arm's observability results: trace, phases of its `phase_op` ops
/// (into `report` too) and timeline.
void observe(const Arm& arm, pfs::Cluster& cluster, obs::Observability& o,
             const std::string& at, Values& values, obs::RunReport& report) {
  if (!arm.trace.empty() && cluster.write_trace(arm.trace)) {
    std::printf("chrome trace (%s arm): %s\n", arm.name.c_str(),
                arm.trace.c_str());
  }
  if (arm.phase_op.empty()) return;
  std::vector<obs::OpBreakdown> ops = obs::decompose_ops(o.spans);
  std::erase_if(ops, [&arm](const obs::OpBreakdown& op) {
    return op.name != arm.phase_op;
  });
  const obs::PhaseReport phases = obs::summarize_phases(std::move(ops));
  values[at + "phase_ops"] = static_cast<double>(phases.ops);
  if (const obs::PhaseQuantile* q = phases.quantile(99)) {
    values[at + "phase_p99_ns"] = q->latency_ns;
    values[at + "phase_p99_coverage"] = q->coverage;
    values[at + "phase_p99_queue_ns"] =
        q->phase_ns[static_cast<std::size_t>(obs::Phase::kServerQueue)];
    values[at + "phase_p99_dominant"] = static_cast<double>(q->dominant);
  }
  double series = 0;
  values[at + "queue_peak"] = 0;
  for (const auto& s : o.timeline.all()) {
    ++series;
    if (s->name() == "queue_depth" && s->node() == 0) {
      values[at + "queue_peak"] = s->peak_value();
    }
  }
  values[at + "timeline_series"] = series;
  report.phases.emplace_back(arm.phase_op, phases);
  report.add_timeline(o.timeline);
}

/// Runs one arm and records its values under "<arm>.".
void run_arm(const Arm& arm, Values& values, obs::RunReport& report) {
  std::optional<obs::Observability> observed;
  if (arm.obs) observed.emplace(*arm.obs);
  Rig rig(arm.config, observed ? &*observed : nullptr, !arm.data);
  pfs::Cluster& cluster = rig.cluster;
  const int nservers = cluster.config().num_servers;
  net::FaultPlan plan(mix_seed(cluster.config().seed, arm.fault_salt));
  if (arm.fault_salt != 0) {
    plan.set_default_spec(arm.wire);
    plan.set_scope_max_node(nservers);
    for (const auto& [server, spec] : arm.disks) {
      plan.set_disk_spec(server, spec);
    }
    cluster.set_fault_plan(&plan);
  }

  const std::string at = arm.name + ".";
  std::uint64_t handle = 0;
  double failed = 0;
  for (const Step& step : arm.steps) {
    const pfs::ServerStats before = cluster.cache_stats_total();
    Values own{{"ok", 0}, {"lost", 0}, {"failed", 0}};
    run_step(rig, plan, step, handle, own);
    failed += own["failed"];
    if (step.name.empty()) continue;
    const pfs::ServerStats after = cluster.cache_stats_total();
    for (const auto& [name, field] : kServerCounters) {
      own[name] = static_cast<double>(after.*field - before.*field);
    }
    for (const auto& [key, value] : own) {
      values[at + step.name + "." + key] = value;
    }
  }

  values[at + "failed"] = failed;
  values[at + "replication"] = cluster.config().replication;
  const pfs::ServerStats totals = cluster.cache_stats_total();
  for (const auto& [name, field] : kServerCounters) {
    values[at + name] = static_cast<double>(totals.*field);
  }
  for (const auto& [name, get] : kClientCounters) {
    std::uint64_t sum = 0;
    for (const auto& client : rig.clients) sum += (*client.*get)();
    values[at + name] = static_cast<double>(sum);
  }
  std::uint64_t requests = 0;
  for (const auto& client : rig.clients) {
    requests += client->stats().requests_sent;
  }
  values[at + "requests_sent"] = static_cast<double>(requests);
  double replies_dropped = 0;
  double residual = 0;
  for (int node = 0; node < cluster.network().num_nodes(); ++node) {
    const sim::Mailbox& mb = cluster.network().mailbox(node);
    replies_dropped += static_cast<double>(mb.stats().replies_dropped);
    residual += static_cast<double>(mb.queued());
  }
  values[at + "replies_dropped"] = replies_dropped;
  values[at + "mailbox_residual"] = residual;
  values[at + "faults_injected"] =
      static_cast<double>(plan.counters().total());
  values[at + "faults_dropped"] = static_cast<double>(plan.counters().dropped);

  double rotted = 0;
  double poisoned = 0;
  double bad_pages = 0;
  for (int s = 0; s < nservers; ++s) {
    pfs::IOServer& server = cluster.server(s);
    rotted += static_cast<double>(server.media().pages_rotted);
    poisoned += static_cast<double>(server.media().pages_poisoned);
    if (handle == 0 || !arm.config.server.block_checksums) continue;
    std::vector<const pfs::Bstream*> stores = {server.find_bstream(handle)};
    for (int p = 0; p < nservers; ++p) {
      stores.push_back(server.find_replica_bstream(handle, p));
    }
    for (const pfs::Bstream* bs : stores) {
      if (bs != nullptr) {
        bad_pages += static_cast<double>(bs->verify_range(0, bs->size()).size());
      }
    }
  }
  values[at + "pages_rotted"] = rotted;
  values[at + "pages_poisoned"] = poisoned;
  values[at + "residual_bad_pages"] = bad_pages;
  if (observed) observe(arm, cluster, *observed, at, values, report);
  if (arm.finish) {
    Values own;
    arm.finish(cluster, own);
    for (const auto& [key, value] : own) values[at + key] = value;
  }
}

}  // namespace

// ---- Jobs --------------------------------------------------------------------

Job tile_job(const workloads::TileConfig& tile, int frames,
             mpiio::Method method) {
  return {.path = "/frames",
          .view = [tile](int rank, int) -> RankView {
            return {0, tile.tile_filetype(rank), tile.memtype()};
          },
          .bytes = tile.tile_bytes(),
          .frames = frames,
          .method = method};
}

Job flash_job(const workloads::FlashConfig& flash, mpiio::Method method) {
  return {.path = "/checkpoint",
          .view = [flash](int rank, int nranks) -> RankView {
            return {flash.displacement(rank), flash.filetype(nranks),
                    flash.memtype()};
          },
          .bytes = flash.bytes_per_proc(),
          .method = method,
          .write = true};
}

Job block3d_job(const workloads::Block3dConfig& block, mpiio::Method method,
                bool write) {
  return {.path = "/block3d",
          .view = [block](int rank, int) -> RankView {
            return {0, block.block_filetype(rank), block.memtype()};
          },
          .bytes = block.block_bytes(),
          .method = method,
          .write = write};
}

obs::MethodReport measure(const net::ClusterConfig& cfg, const Job& job,
                          bool use_obs, std::size_t span_capacity,
                          const std::string& trace_path, bool utilization) {
  obs::Observability obs(span_capacity);
  Rig rig(cfg, use_obs ? &obs : nullptr, true);
  pfs::Cluster& cluster = rig.cluster;
  cluster.scheduler().spawn(create_task(*rig.files[0], job.path));
  cluster.run();
  const SimTime t0 = cluster.scheduler().now();
  int failures = 0;
  int unsupported = 0;
  const double bandwidth = run_job(rig, job, failures, unsupported);
  obs::MethodReport r;
  r.method = std::string(mpiio::method_name(job.method));
  if (unsupported > 0) {
    r.supported = false;
    return r;
  }
  r.sim_seconds = to_seconds(cluster.scheduler().now() - t0);
  r.bandwidth_mb_s = to_mb(bandwidth);
  r.events = cluster.scheduler().events_processed();
  r.per_client = rig.clients[0]->stats();
  IoStats& pc = r.per_client;
  for (std::uint64_t* n : {&pc.desired_bytes, &pc.accessed_bytes, &pc.io_ops,
                           &pc.resent_bytes, &pc.request_bytes}) {
    *n /= static_cast<std::uint64_t>(job.frames);
  }
  if (use_obs) {
    r.latency = obs::LatencySummary::from(
        obs.metrics.merged_histogram("client_op_latency_ns"));
    r.spans_recorded = obs.spans.spans().size();
    r.spans_dropped = obs.spans.dropped();
    // A truncated trace silently skews phase attribution: never let it
    // pass unnoticed in a log.
    if (r.spans_dropped > 0) {
      std::fprintf(stderr,
                   "warning: span collector truncated: %llu spans dropped "
                   "(%llu recorded); raise SpanCollector capacity or expect "
                   "incomplete phase attribution\n",
                   static_cast<unsigned long long>(r.spans_dropped),
                   static_cast<unsigned long long>(r.spans_recorded));
    }
    cluster.publish_metrics();
    if (!trace_path.empty() && cluster.write_trace(trace_path)) {
      std::printf("chrome trace (%s run): %s\n", r.method.c_str(),
                  trace_path.c_str());
    }
  }
  if (utilization) {
    std::printf("%s", cluster.utilization_report(t0).c_str());
  }
  return r;
}

// ---- Scenarios -----------------------------------------------------------------

bool run_scenario(const Scenario& s, obs::RunReport& report) {
  Values values;
  for (const Arm& arm : s.arms) run_arm(arm, values, report);
  std::printf("\nscenario %s: %s\n", s.name.c_str(), s.title.c_str());
  bool ok = true;
  for (const Scalar& sc : s.scalars) {
    double num = 0;
    double den = sc.den.empty() ? 1 : 0;
    for (const std::string& key : sc.num) num += value(values, key);
    for (const std::string& key : sc.den) den += value(values, key);
    if (std::isnan(num) || std::isnan(den)) {
      std::fprintf(stderr, "FAIL: %s reads a value no arm recorded\n",
                   sc.key.c_str());
      ok = false;
      continue;
    }
    den = std::max(den, sc.floor);
    values[sc.key] = den == 0 ? 0.0 : num / den / sc.div;
    if (!sc.hidden) report.scalars[sc.key] = values[sc.key];
    std::printf("  %-36s %.6g\n", sc.key.c_str(), values[sc.key]);
  }
  if (!s.note.empty()) std::printf("  %s\n", s.note.c_str());
  return check(s.checks, values) && ok;
}

bool check(const std::vector<Check>& checks, const Values& values) {
  bool ok = true;
  for (const Check& c : checks) {
    // A missing value is NaN, which fails every comparison.
    const double a = value(values, c.key);
    const double b =
        c.times.empty() ? c.bound : c.bound * value(values, c.times);
    const bool pass = c.op == "==" ? a == b
                      : c.op == "<"  ? a < b
                      : c.op == "<=" ? a <= b
                      : c.op == ">"  ? a > b
                                     : c.op == ">=" && a >= b;
    if (pass) continue;
    ok = false;
    std::fprintf(stderr, "FAIL: %s %s %g%s%s (value %g)\n", c.key.c_str(),
                 c.op.c_str(), c.bound, c.times.empty() ? "" : " * ",
                 c.times.c_str(), a);
  }
  return ok;
}

const Scenario* pick_scenario(int argc, char** argv,
                              const std::vector<Scenario>& all) {
  const std::string name = flag_str(argc, argv, "--scenario", "");
  if (name.empty()) return nullptr;
  for (const Scenario& s : all) {
    if (s.name == name) return &s;
  }
  std::fprintf(stderr, "unknown --scenario=%s; one of:", name.c_str());
  for (const Scenario& s : all) std::fprintf(stderr, " %s", s.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace dtio::bench
