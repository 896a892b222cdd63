// Scale-out metadata bench: the three claims of the sharded metadata
// subsystem, measured on the simulated testbed.
//
//   A. Namespace sharding (ClusterConfig::meta_shards): a 16-client
//      create/stat/open/remove storm saturates one metadata server at
//      ~1/request_overhead ops/sec; hash-partitioning the namespace over
//      4 shards multiplies the service capacity. The bench asserts 4-shard
//      ops/sec at >= 2x the 1-shard run.
//   B. Striped byte-range locks (lock_stripe_bytes): a contended lock
//      storm reports grant-wait latency (client_lock_wait spans) and the
//      per-shard wait counts.
//   C. Per-file dynamic layouts (per_file_layouts): small files created
//      with a size hint stripe narrowly instead of fanning out to every
//      server; the bench asserts the request-count reduction.
//
// Each is a scenario (bench/scenario.h); a failing assert exits 1. Writes
// BENCH_meta.json (schema v2). All timings are simulated seconds.
#include <algorithm>
#include <string>
#include <vector>

#include "bench/scenario.h"
#include "pfs/cluster.h"
#include "workloads/meta_storm.h"

namespace dtio {
namespace {

using bench::Scenario;
using bench::Step;
using bench::Values;
using sim::Task;
using workloads::MetaStormConfig;

/// A: namespace sharding, at 1 and 4 shards. Every rank runs the
/// namespace loop, then the contended striped-lock loop: all ranks lock
/// the same rotating ranges of the shared file, so stripe FIFOs queue.
/// B: the 4-shard run's lock waits and grant-wait tail (lock_wait spans).
Scenario shards(const MetaStormConfig& storm, std::int64_t stripe) {
  Scenario s{"shards",
             "metadata storm, " + std::to_string(storm.num_clients) +
                 " clients x " + std::to_string(storm.files_per_client) +
                 " files (create+stat+open+remove), then striped locks"};
  for (const int shards : {1, 4}) {
    const std::string name = "meta_shards_" + std::to_string(shards);
    bench::Arm arm{.name = name,
                   .config = {.num_servers = 8,
                              .num_clients = storm.num_clients,
                              .meta_shards = shards,
                              .lock_stripe_bytes = stripe,
                              .file_locking = true},
                   .obs = obs::ObsConfig{}};
    // The shared lock target exists before the storm begins.
    arm.steps = {
        {.kind = Step::Kind::kWrite, .path = MetaStormConfig::shared_path()},
        {.kind = Step::Kind::kTask,
         .name = "storm",
         .task = [storm, stripe](pfs::Client& c, int rank,
                                 std::uint64_t shared, Values&) -> Task<void> {
           for (int i = 0; i < storm.files_per_client; ++i) {
             (void)co_await c.create(storm.path(rank, i));
             (void)co_await c.stat(storm.path(rank, i));
             (void)co_await c.open(storm.path(rank, i));
             (void)co_await c.remove(storm.path(rank, i));
           }
           if (stripe <= 0) co_return;
           for (int k = 0; k < storm.lock_pairs; ++k) {
             // Rotate over 8 shared ranges: ~2 ranks contend per range at
             // 16 clients, so grants queue without full serialisation.
             const std::int64_t off = (k % 8) * storm.lock_range_bytes;
             (void)co_await c.lock_range(shared, off, storm.lock_range_bytes);
             (void)co_await c.unlock_range(shared, off,
                                           storm.lock_range_bytes);
           }
         }},
    };
    arm.finish = [shards](pfs::Cluster& cluster, Values& out) {
      out["ops"] = 0;
      for (int k = 0; k < std::min(shards, cluster.config().num_servers);
           ++k) {
        const pfs::ServerStats& st = cluster.server(k).stats();
        out["shard" + std::to_string(k) + "_ops"] =
            static_cast<double>(st.meta_ops());
        out["ops"] += static_cast<double>(st.meta_ops());
        out["lock_waits"] += static_cast<double>(st.lock_waits);
      }
      std::vector<double> waits;
      for (const obs::Span& span : cluster.observability()->spans.spans()) {
        if (span.name == "lock_wait" && span.end >= span.start) {
          waits.push_back(static_cast<double>(span.end - span.start));
        }
      }
      std::sort(waits.begin(), waits.end());
      out["lock_wait_p50_ns"] = waits.empty() ? 0 : waits[waits.size() / 2];
      out["lock_wait_p99_ns"] =
          waits.empty() ? 0 : waits[(waits.size() * 99) / 100];
    };
    s.arms.push_back(arm);
    s.scalars.push_back(
        {name + "_ops_per_sec", {name + ".ops"}, {name + ".storm.seconds"}});
    s.scalars.push_back({name + "_sim_seconds", {name + ".storm.seconds"}});
    for (int k = 0; k < std::min(shards, arm.config.num_servers); ++k) {
      const std::string shard = "_shard" + std::to_string(k) + "_ops";
      s.scalars.push_back({name + shard, {name + "." + shard.substr(1)}});
    }
  }
  s.scalars.insert(
      s.scalars.end(),
      {{"meta_shards_speedup", {"meta_shards_4_ops_per_sec"},
        {"meta_shards_1_ops_per_sec"}},
       {"meta_lock_waits_total", {"meta_shards_4.lock_waits"}},
       {"meta_lock_wait_p50_ns", {"meta_shards_4.lock_wait_p50_ns"}},
       {"meta_lock_wait_p99_ns", {"meta_shards_4.lock_wait_p99_ns"}}});
  // 4 shards at least double the saturated single-shard service rate
  // (measured ~4x on the storm).
  s.checks = {{"meta_shards_speedup", ">=", 2.0}};
  if (stripe <= 0) return s;
  // The striped lock storm contended and reported a tail.
  s.checks.insert(s.checks.end(), {{"meta_lock_waits_total", ">", 0},
                                   {"meta_lock_wait_p99_ns", ">", 0}});
  return s;
}

/// C: every rank creates small files with a size hint, writes them end to
/// end and stats them by handle. With per-file layouts each 128 KiB file
/// lives on one server instead of fanning out to all 8 (16 KiB strips).
Scenario layouts(int files_per_client) {
  Scenario s{"layouts", "per-file layouts, 4 clients x " +
                            std::to_string(files_per_client) +
                            " small files (128 KiB over 16 KiB strips)"};
  for (const bool hints : {false, true}) {
    bench::Arm arm{.name = hints ? "hinted" : "global",
                   .config = {.num_servers = 8,
                              .num_clients = 4,
                              .strip_size = 16 * kKiB,
                              .per_file_layouts = hints,
                              .layout_small_file_bytes = 256 * kKiB,
                              .layout_small_servers = 1}};
    arm.steps = {{
        .kind = Step::Kind::kTask,
        .name = "files",
        .task = [files_per_client](pfs::Client& c, int rank, std::uint64_t,
                                   Values& out) -> Task<void> {
          constexpr std::int64_t kFileBytes = 128 * kKiB;
          out.try_emplace("narrowed", 0);
          for (int i = 0; i < files_per_client; ++i) {
            const pfs::MetaResult f = co_await c.create(
                "/small/r" + std::to_string(rank) + "/f" + std::to_string(i),
                kFileBytes);
            if (!f.status.is_ok()) co_return;
            if (c.layout_for(f.handle).num_servers() < 8) ++out["narrowed"];
            (void)co_await c.write_contig(f.handle, 0, nullptr, kFileBytes);
            (void)co_await c.stat_handle(f.handle);
          }
        }}};
    s.arms.push_back(arm);
  }
  s.scalars = {
      {"meta_layout_requests_global", {"global.requests_sent"}},
      {"meta_layout_requests_hinted", {"hinted.requests_sent"}},
      {"meta_layout_hint_files", {"hinted.files.narrowed"}},
      {"meta_layout_request_reduction", {"global.requests_sent"},
       {"hinted.requests_sent"}, 1, /*floor=*/1},
  };
  s.checks = {
      // Hinted small files were narrowed and stopped paying full-stripe
      // fan-out, or the subsystem is mis-wired.
      {"meta_layout_hint_files", ">", 0},
      {"meta_layout_requests_hinted", "<", 1, "meta_layout_requests_global"},
  };
  return s;
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
  bool ok = bench::run_scenario(shards(storm, stripe), report);
  ok = bench::run_scenario(layouts(layout_files), report) && ok;
  bench::write_report(report, argc, argv, "BENCH_meta.json");
  return ok ? 0 : 1;
}
