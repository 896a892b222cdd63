// Scale-out metadata bench: the three claims of the sharded metadata
// subsystem, measured on the simulated testbed.
//
//   A. Namespace sharding (ClusterConfig::meta_shards): a 16-client
//      create/stat/open/remove storm saturates one metadata server at
//      ~1/request_overhead ops/sec; hash-partitioning the namespace over
//      4 shards multiplies the service capacity. CI gates 4-shard ops/sec
//      at >= 2x the 1-shard run.
//   B. Striped byte-range locks (lock_stripe_bytes): a contended lock
//      storm reports grant-wait latency (client_lock_wait spans) and the
//      per-shard wait counts.
//   C. Per-file dynamic layouts (per_file_layouts): small files created
//      with a size hint stripe narrowly instead of fanning out to every
//      server; the bench asserts the request-count reduction.
//
// Writes BENCH_meta.json (schema v2). All timings are simulated seconds.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "pfs/cluster.h"
#include "workloads/meta_storm.h"

namespace dtio {
namespace {

using sim::Task;
using workloads::MetaStormConfig;

struct StormRun {
  double seconds = 0;
  std::uint64_t total_meta_ops = 0;
  std::vector<std::uint64_t> per_shard_ops;
  std::uint64_t lock_waits = 0;
  double lock_wait_p50_ns = 0;
  double lock_wait_p99_ns = 0;
};

/// One metadata storm: every rank runs the namespace loop; when
/// `stripe_bytes` > 0 it then runs the contended striped-lock loop (all
/// ranks lock the same rotating ranges of the shared file, so stripe FIFOs
/// actually queue).
StormRun run_storm(int shards, std::int64_t stripe_bytes,
                   const MetaStormConfig& storm) {
  net::ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = storm.num_clients;
  cfg.meta_shards = shards;
  cfg.lock_stripe_bytes = stripe_bytes;
  cfg.file_locking = true;
  pfs::Cluster cluster(cfg);
  obs::Observability obs(1 << 18);
  cluster.set_observability(&obs);

  std::vector<std::unique_ptr<pfs::Client>> clients;
  for (int r = 0; r < storm.num_clients; ++r) {
    clients.push_back(cluster.make_client(r));
    clients.back()->set_transfer_data(false);
  }

  // The shared lock target exists before the storm begins.
  std::uint64_t shared_handle = 0;
  cluster.scheduler().spawn(
      [](pfs::Client& c, std::uint64_t& out) -> Task<void> {
        const pfs::MetaResult r =
            co_await c.create(MetaStormConfig::shared_path());
        out = r.handle;
      }(*clients[0], shared_handle));
  cluster.run();

  const SimTime t0 = cluster.scheduler().now();
  for (int r = 0; r < storm.num_clients; ++r) {
    cluster.scheduler().spawn(
        [](pfs::Client& c, const MetaStormConfig& s, int rank,
           std::uint64_t shared, std::int64_t stripe) -> Task<void> {
          for (int i = 0; i < s.files_per_client; ++i) {
            (void)co_await c.create(s.path(rank, i));
            (void)co_await c.stat(s.path(rank, i));
            (void)co_await c.open(s.path(rank, i));
            (void)co_await c.remove(s.path(rank, i));
          }
          if (stripe <= 0) co_return;
          for (int k = 0; k < s.lock_pairs; ++k) {
            // Rotate over 8 shared ranges: ~2 ranks contend per range at
            // 16 clients, so grants queue without full serialisation.
            const std::int64_t off = (k % 8) * s.lock_range_bytes;
            (void)co_await c.lock_range(shared, off, s.lock_range_bytes);
            (void)co_await c.unlock_range(shared, off, s.lock_range_bytes);
          }
        }(*clients[r], storm, r, shared_handle, stripe_bytes));
  }
  cluster.run();

  StormRun out;
  out.seconds = to_seconds(cluster.scheduler().now() - t0);
  for (int s = 0; s < std::min(shards, cfg.num_servers); ++s) {
    const pfs::ServerStats& st = cluster.server(s).stats();
    out.per_shard_ops.push_back(st.meta_ops());
    out.total_meta_ops += st.meta_ops();
    out.lock_waits += st.lock_waits;
  }
  std::vector<double> waits;
  for (const obs::Span& span : obs.spans.spans()) {
    if (span.name == "lock_wait" && span.end >= span.start) {
      waits.push_back(static_cast<double>(span.end - span.start));
    }
  }
  if (!waits.empty()) {
    std::sort(waits.begin(), waits.end());
    out.lock_wait_p50_ns = waits[waits.size() / 2];
    out.lock_wait_p99_ns = waits[(waits.size() * 99) / 100];
  }
  return out;
}

struct LayoutRun {
  std::uint64_t requests_sent = 0;  ///< all ranks, write + stat phase
  std::uint64_t narrowed_files = 0; ///< creates that got a per-file layout
};

/// Per-file layout ablation: every rank creates small files (with a size
/// hint), writes them end to end, and stats them by handle. With
/// per_file_layouts on, each file lives on one server instead of all 8.
LayoutRun run_layout(bool hints, int files_per_client) {
  net::ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 4;
  cfg.strip_size = 16 * kKiB;  // a 128 KiB file spans all 8 servers
  cfg.per_file_layouts = hints;
  cfg.layout_small_file_bytes = 256 * kKiB;
  cfg.layout_small_servers = 1;
  constexpr std::int64_t kFileBytes = 128 * kKiB;
  pfs::Cluster cluster(cfg);

  std::vector<std::unique_ptr<pfs::Client>> clients;
  for (int r = 0; r < cfg.num_clients; ++r) {
    clients.push_back(cluster.make_client(r));
    clients.back()->set_transfer_data(false);
  }
  std::uint64_t narrowed = 0;
  for (int r = 0; r < cfg.num_clients; ++r) {
    cluster.scheduler().spawn(
        [](pfs::Client& c, const net::ClusterConfig& cc, int rank, int files,
           std::uint64_t& narrow_count) -> Task<void> {
          for (int i = 0; i < files; ++i) {
            char name[48];
            std::snprintf(name, sizeof name, "/small/r%d/f%d", rank, i);
            const pfs::MetaResult f =
                co_await c.create(std::string(name), kFileBytes);
            if (!f.status.is_ok()) co_return;
            if (c.layout_for(f.handle).num_servers() < cc.num_servers) {
              ++narrow_count;
            }
            (void)co_await c.write_contig(f.handle, 0, nullptr, kFileBytes);
            (void)co_await c.stat_handle(f.handle);
          }
        }(*clients[r], cfg, r, files_per_client, narrowed));
  }
  cluster.run();

  LayoutRun out;
  out.narrowed_files = narrowed;
  for (const auto& c : clients) out.requests_sent += c->stats().requests_sent;
  return out;
}

}  // namespace
}  // namespace dtio

int main(int argc, char** argv) {
  using namespace dtio;
  MetaStormConfig storm;
  storm.num_clients =
      static_cast<int>(bench::flag_int(argc, argv, "--clients", 16));
  storm.files_per_client =
      static_cast<int>(bench::flag_int(argc, argv, "--files", 48));
  storm.lock_pairs =
      static_cast<int>(bench::flag_int(argc, argv, "--lock-pairs", 32));
  const auto stripe = static_cast<std::int64_t>(
      bench::flag_int(argc, argv, "--stripe-kib", 64)) * kKiB;
  const int layout_files =
      static_cast<int>(bench::flag_int(argc, argv, "--layout-files", 16));

  obs::RunReport report;
  report.bench = "meta";
  report.params["clients"] = storm.num_clients;
  report.params["files_per_client"] = storm.files_per_client;
  report.params["lock_pairs"] = storm.lock_pairs;
  report.params["servers"] = 8;
  report.params["lock_stripe_bytes"] = static_cast<double>(stripe);

  // ---- A: namespace sharding -----------------------------------------------
  std::printf("== A: metadata storm, %d clients x %d files "
              "(create+stat+open+remove) ==\n",
              storm.num_clients, storm.files_per_client);
  std::printf("  %-8s %12s %12s  per-shard ops\n", "shards", "sim sec",
              "ops/sec");
  double ops_1 = 0;
  for (const int shards : {1, 4}) {
    const StormRun r = run_storm(shards, stripe, storm);
    const double ops_per_sec =
        r.seconds > 0 ? static_cast<double>(r.total_meta_ops) / r.seconds : 0;
    if (shards == 1) ops_1 = ops_per_sec;
    std::printf("  %-8d %12.3f %12.0f  [", shards, r.seconds, ops_per_sec);
    for (std::size_t s = 0; s < r.per_shard_ops.size(); ++s) {
      std::printf("%s%llu", s == 0 ? "" : " ",
                  static_cast<unsigned long long>(r.per_shard_ops[s]));
    }
    std::printf("]\n");
    char key[48];
    std::snprintf(key, sizeof key, "meta_shards_%d_ops_per_sec", shards);
    report.scalars[key] = ops_per_sec;
    std::snprintf(key, sizeof key, "meta_shards_%d_sim_seconds", shards);
    report.scalars[key] = r.seconds;
    for (std::size_t s = 0; s < r.per_shard_ops.size(); ++s) {
      std::snprintf(key, sizeof key, "meta_shards_%d_shard%zu_ops", shards, s);
      report.scalars[key] = static_cast<double>(r.per_shard_ops[s]);
    }
    if (shards == 4) {
      const double speedup = ops_1 > 0 ? ops_per_sec / ops_1 : 0;
      std::printf("  speedup 1 -> 4 shards: %.2fx\n", speedup);
      report.scalars["meta_shards_speedup"] = speedup;
      // ---- B: striped lock storm (reported from the 4-shard run) ----------
      std::printf("\n== B: striped lock storm (stripe %lld KiB) ==\n",
                  static_cast<long long>(stripe / kKiB));
      std::printf("  lock waits: %llu   grant wait p50 %.1f us  p99 %.1f us\n",
                  static_cast<unsigned long long>(r.lock_waits),
                  r.lock_wait_p50_ns / 1e3, r.lock_wait_p99_ns / 1e3);
      report.scalars["meta_lock_waits_total"] =
          static_cast<double>(r.lock_waits);
      report.scalars["meta_lock_wait_p50_ns"] = r.lock_wait_p50_ns;
      report.scalars["meta_lock_wait_p99_ns"] = r.lock_wait_p99_ns;
    }
  }

  // ---- C: per-file layouts --------------------------------------------------
  std::printf("\n== C: per-file layouts, 4 clients x %d small files "
              "(128 KiB over 16 KiB strips) ==\n", layout_files);
  const LayoutRun wide = run_layout(false, layout_files);
  const LayoutRun narrow = run_layout(true, layout_files);
  const double reduction =
      wide.requests_sent > 0
          ? static_cast<double>(wide.requests_sent) /
                static_cast<double>(std::max<std::uint64_t>(
                    1, narrow.requests_sent))
          : 0;
  std::printf("  global layout : %llu requests (every write/stat fans out)\n",
              static_cast<unsigned long long>(wide.requests_sent));
  std::printf("  hinted layout : %llu requests, %llu/%d files narrowed "
              "(%.2fx fewer requests)\n",
              static_cast<unsigned long long>(narrow.requests_sent),
              static_cast<unsigned long long>(narrow.narrowed_files),
              layout_files * 4, reduction);
  report.scalars["meta_layout_requests_global"] =
      static_cast<double>(wide.requests_sent);
  report.scalars["meta_layout_requests_hinted"] =
      static_cast<double>(narrow.requests_sent);
  report.scalars["meta_layout_hint_files"] =
      static_cast<double>(narrow.narrowed_files);
  report.scalars["meta_layout_request_reduction"] = reduction;

  bench::write_report(report, argc, argv, "BENCH_meta.json");

  // The per-file layout claim is load-bearing: small files must stop
  // paying full-stripe fan-out, or the subsystem is mis-wired.
  if (narrow.narrowed_files == 0 ||
      narrow.requests_sent >= wide.requests_sent) {
    std::fprintf(stderr, "FAIL: per-file layouts did not reduce small-file "
                         "fan-out\n");
    return 1;
  }
  return 0;
}
