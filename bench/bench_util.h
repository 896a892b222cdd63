// Shared plumbing for the paper-reproduction benches: flag parsing, the
// MPI rig and single-client helpers the runs are built from, aligned
// table printing, and the per-method result record every figure bench
// reports.
//
// These benches measure SIMULATED time (the discrete-event clock), not
// wall time, which is why they use a custom main() rather than
// google-benchmark; the micro-benches (real computation: dataloop
// processing, packing) use google-benchmark.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "collective/comm.h"
#include "common/stats.h"
#include "common/units.h"
#include "io/methods.h"
#include "mpiio/file.h"
#include "obs/observability.h"
#include "obs/run_report.h"
#include "pfs/cluster.h"

namespace dtio::bench {

// ---- Flags -------------------------------------------------------------------

inline std::int64_t flag_int(int argc, char** argv, const char* name,
                             std::int64_t fallback) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return std::atoll(argv[i] + len + 1);
    }
  }
  return fallback;
}

inline std::string flag_str(int argc, char** argv, const char* name,
                            const char* fallback) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return std::string(argv[i] + len + 1);
    }
  }
  return std::string(fallback);
}

inline bool flag_set(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Benches attach observability by default; --no-obs runs bare (useful for
/// checking that instrumentation does not perturb simulated results).
inline bool obs_enabled(int argc, char** argv) {
  return !flag_set(argc, argv, "--no-obs");
}

// ---- Runs --------------------------------------------------------------------

/// An MPI job of `cfg.num_clients` ranks on a fresh cluster: a
/// communicator, and per rank a timing-only client (no payload bytes move
/// at paper scale), its I/O context and an MPI file. `obs`, when given, is
/// attached before the clients are made and must outlive the rig. A fault
/// plan may be attached to `cluster` before create().
struct Rig {
  explicit Rig(const net::ClusterConfig& cfg, obs::Observability* obs = nullptr)
      : cluster(cfg),
        comm(cluster.scheduler(), cluster.network(), cluster.config(),
             cfg.num_clients) {
    if (obs != nullptr) cluster.set_observability(obs);
    for (int r = 0; r < cfg.num_clients; ++r) {
      clients.push_back(cluster.make_client(r));
      clients.back()->set_transfer_data(false);
      contexts.push_back(std::make_unique<io::Context>(
          io::Context{cluster.scheduler(), *clients.back(), cluster.config()}));
      files.push_back(std::make_unique<mpiio::File>(*contexts.back()));
    }
  }

  /// Rank 0 creates `path` and the cluster drains; returns the time the
  /// timed job starts at. The other ranks open `path` in the job itself.
  SimTime create(const char* path) {
    cluster.scheduler().spawn(
        [](mpiio::File& f, const char* p) -> sim::Task<void> {
          (void)co_await f.open(p, true);
        }(*files[0], path));
    cluster.run();
    return cluster.scheduler().now();
  }

  pfs::Cluster cluster;
  coll::Communicator comm;
  std::vector<std::unique_ptr<pfs::Client>> clients;
  std::vector<std::unique_ptr<io::Context>> contexts;
  std::vector<std::unique_ptr<mpiio::File>> files;
};

/// The preamble of the single-client runs: create `path` (its handle goes
/// to `handle`), then write `chunk` `chunks` times back to back from
/// offset 0. A failed create or write counts once in `failures`; after a
/// failed create `handle` stays 0.
inline sim::Task<void> create_and_write(pfs::Client& c, const char* path,
                                        std::span<const std::uint8_t> chunk,
                                        int chunks, std::uint64_t& handle,
                                        int& failures) {
  pfs::MetaResult f = co_await c.create(path);
  if (!f.status.is_ok()) {
    ++failures;
    co_return;
  }
  handle = f.handle;
  const auto len = static_cast<std::int64_t>(chunk.size());
  for (int i = 0; i < chunks; ++i) {
    Status w = co_await c.write_contig(handle, i * len, chunk.data(), len);
    if (!w.is_ok()) ++failures;
  }
}

/// Open-loop paced reads of `bytes` at offset 0: read i starts at
/// t0 + i * pace, so a slow op cannot shield the ones behind it from a
/// fault window. Records read i's latency in latencies[i] and counts it
/// in `ok` or `failed` (either may be null); the cluster then drains.
inline void paced_reads(pfs::Cluster& cluster, pfs::Client& client,
                        std::uint64_t handle, std::size_t bytes, SimTime t0,
                        SimTime pace, std::vector<SimTime>& latencies,
                        int* ok, int* failed) {
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    cluster.scheduler().spawn(
        [](sim::Scheduler& sched, pfs::Client& c, std::uint64_t h,
           std::size_t n, SimTime due, SimTime& slot, int* ok,
           int* failed) -> sim::Task<void> {
          co_await sched.delay(due - sched.now());
          std::vector<std::uint8_t> buf(n);
          const SimTime start = sched.now();
          Status r = co_await c.read_contig(h, 0, buf.data(),
                                            static_cast<std::int64_t>(n));
          slot = sched.now() - start;
          int* count = r.is_ok() ? ok : failed;
          if (count != nullptr) ++*count;
        }(cluster.scheduler(), client, handle, bytes,
          t0 + static_cast<SimTime>(i) * pace, latencies[i], ok, failed));
  }
  cluster.run();
}

// ---- Results -----------------------------------------------------------------

struct MethodResult {
  mpiio::Method method = mpiio::Method::kPosix;
  bool supported = true;
  double seconds = 0;          ///< simulated seconds
  double bandwidth = 0;        ///< aggregate desired bytes / second
  IoStats per_client;          ///< rank 0's counters
  std::uint64_t events = 0;    ///< simulator events (sanity/efficiency)
  obs::LatencySummary latency; ///< client-op latency (zero when obs is off)
  std::uint64_t spans_recorded = 0;  ///< spans kept by the collector
  std::uint64_t spans_dropped = 0;   ///< spans lost to capacity (should be 0)
};

inline double to_mb(double bytes) { return bytes / 1e6; }

/// Pull the merged client-op latency distribution out of a finished run's
/// observability context into the result record, along with the span
/// accounting. Warns on stderr when the collector truncated: a truncated
/// trace silently skews phase attribution, so it should never pass
/// unnoticed in CI logs.
inline void capture_latency(MethodResult& r, const obs::Observability& obs) {
  r.latency = obs::LatencySummary::from(
      obs.metrics.merged_histogram("client_op_latency_ns"));
  r.spans_recorded = obs.spans.spans().size();
  r.spans_dropped = obs.spans.dropped();
  if (r.spans_dropped > 0) {
    std::fprintf(stderr,
                 "warning: span collector truncated: %llu spans dropped "
                 "(%llu recorded); raise SpanCollector capacity or expect "
                 "incomplete phase attribution\n",
                 static_cast<unsigned long long>(r.spans_dropped),
                 static_cast<unsigned long long>(r.spans_recorded));
  }
}

/// MethodResult -> the machine-readable report entry. `tag` prefixes the
/// method name ("read/27/" etc.) when one report covers several sweeps.
inline obs::MethodReport to_report(const MethodResult& r,
                                   const std::string& tag = "") {
  obs::MethodReport m;
  m.method = tag + std::string(mpiio::method_name(r.method));
  m.supported = r.supported;
  m.sim_seconds = r.seconds;
  m.bandwidth_mb_s = to_mb(r.bandwidth);
  m.events = r.events;
  m.per_client = r.per_client;
  m.latency = r.latency;
  m.spans_recorded = r.spans_recorded;
  m.spans_dropped = r.spans_dropped;
  return m;
}

/// Write the report to BENCH_<name>.json (or --json=PATH); prints where it
/// went. Skipped entirely under --no-obs.
inline void write_report(const obs::RunReport& report, int argc, char** argv,
                         const std::string& default_path) {
  if (!obs_enabled(argc, argv)) return;
  const std::string path =
      flag_str(argc, argv, "--json", default_path.c_str());
  if (report.write_file(path)) {
    std::fprintf(stderr, "bench report: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "error: could not write bench report %s\n",
                 path.c_str());
  }
}

/// Echo one ablation section, every scalar of `report` whose key starts
/// with `prefix`, to stdout in key order.
inline void print_scalars(const obs::RunReport& report,
                          const std::string& prefix) {
  for (auto it = report.scalars.lower_bound(prefix);
       it != report.scalars.end() && it->first.starts_with(prefix); ++it) {
    std::printf("  %-36s %.6g\n", it->first.c_str(), it->second);
  }
}

/// "Figure 8"-style row: method, aggregate MB/s, simulated seconds.
inline void print_figure_row(const MethodResult& r) {
  if (!r.supported) {
    std::printf("  %-18s %12s %12s\n",
                std::string(mpiio::method_name(r.method)).c_str(), "n/a",
                "n/a");
    return;
  }
  std::printf("  %-18s %12.2f %12.2f\n",
              std::string(mpiio::method_name(r.method)).c_str(),
              to_mb(r.bandwidth), r.seconds);
}

inline void print_figure_header(const char* title) {
  std::printf("\n== %s ==\n", title);
  std::printf("  %-18s %12s %12s\n", "method", "agg MB/s", "sim sec");
}

/// "Table 1/2/3"-style row: per-client desired/accessed/ops/resent.
inline void print_table_row(const MethodResult& r) {
  if (!r.supported) {
    std::printf("  %-18s %11s %11s %11s %11s\n",
                std::string(mpiio::method_name(r.method)).c_str(), "-", "-",
                "-", "-");
    return;
  }
  char resent[32];
  if (r.per_client.resent_bytes == 0) {
    std::snprintf(resent, sizeof resent, "-");
  } else {
    std::snprintf(resent, sizeof resent, "%.2f MB",
                  to_mb(static_cast<double>(r.per_client.resent_bytes)));
  }
  std::printf("  %-18s %8.2f MB %8.2f MB %11llu %11s\n",
              std::string(mpiio::method_name(r.method)).c_str(),
              to_mb(static_cast<double>(r.per_client.desired_bytes)),
              to_mb(static_cast<double>(r.per_client.accessed_bytes)),
              static_cast<unsigned long long>(r.per_client.io_ops), resent);
}

inline void print_table_header(const char* title) {
  std::printf("\n== %s ==\n", title);
  std::printf("  %-18s %11s %11s %11s %11s\n", "method", "desired/cli",
              "accessed", "io ops/cli", "resent/cli");
}

}  // namespace dtio::bench
