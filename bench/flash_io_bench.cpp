// Reproduces the paper's FLASH I/O checkpoint experiment:
//   Figure 12 — aggregate write bandwidth versus client count (2..128)
//               for POSIX, two-phase, list and datatype I/O;
//   Table 3  — per-client I/O characteristics (983 040 POSIX ops, 15 360
//               list ops, 2 two-phase ops, 1 datatype op; 7.5 MB desired).
//
// Both memory and file are noncontiguous at 8-byte granularity — the
// paper's stress case for client-side processing. Datatype and list I/O
// underperform two-phase at small client counts (clients cannot feed the
// servers); datatype overtakes as clients multiply (paper: ~37% over
// two-phase at 96 procs).
//
// Flags: --max-clients=N   (default 64; 128 matches the paper's sweep)
//        --with-posix      include POSIX beyond 2 clients (very slow:
//                          983 040 requests per client)
//        --utilization     print each run's server utilization table
//        --scenario=write_behind  adds the write-behind ablation
//                          (bench/scenario.h); a failing assert exits 1
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/scenario.h"

namespace dtio {
namespace {

using mpiio::Method;

/// List I/O at 16 clients with the client write-behind layer off vs on.
/// Off ships one list RPC per envelope of pieces; on absorbs every piece
/// into per-server staging buffers and drains each as a single
/// kBatchWrite envelope at the collective's closing flush, paying request
/// overhead once per server instead of once per list RPC.
bench::Scenario write_behind(const workloads::FlashConfig& flash) {
  bench::Scenario s{"write_behind",
                    "list I/O at 16 clients, staging off vs on"};
  for (const bool on : {false, true}) {
    s.arms.push_back(
        {.name = on ? "on" : "off",
         .config = {.num_clients = 16,
                    .client = {.write_behind_bytes = on ? 4 << 20 : 0}},
         .steps = {
             {.kind = bench::Step::Kind::kCreate, .path = "/checkpoint"},
             {.name = "write", .job = bench::flash_job(flash, Method::kList)},
         }});
  }
  s.scalars = {
      {"wb_off_mbps", {"off.write.bandwidth"}, {}, 1e6},
      {"wb_on_mbps", {"on.write.bandwidth"}, {}, 1e6},
      {"wb_ratio", {"on.write.bandwidth"}, {"off.write.bandwidth"}},
      {"wb_off_sim_seconds", {"off.write.seconds"}},
      {"wb_on_sim_seconds", {"on.write.seconds"}},
      {"wb_flushes", {"on.wb_flushes"}},
      {"wb_batches", {"on.wb_batches"}},
      {"wb_coalesced_ops", {"on.wb_coalesced_ops"}},
      {"wb_staged_ops", {"on.wb_staged_ops"}},
  };
  s.checks = {
      {"wb_ratio", ">=", 2},
      {"wb_batches", ">", 0},
      // Batching reduced the RPC count.
      {"wb_batches", "<", 1, "wb_staged_ops"},
      {"wb_coalesced_ops", ">", 0},
  };
  return s;
}

int flash_main(int argc, char** argv) {
  const workloads::FlashConfig flash;
  const int max_clients =
      static_cast<int>(bench::flag_int(argc, argv, "--max-clients", 64));
  const bool with_posix = bench::flag_set(argc, argv, "--with-posix");
  const bool utilization = bench::flag_set(argc, argv, "--utilization");
  const bool use_obs = bench::obs_enabled(argc, argv);
  const bool csv = bench::flag_set(argc, argv, "--csv");
  const std::vector<bench::Scenario> scenarios = {write_behind(flash)};
  const bench::Scenario* extra = bench::pick_scenario(argc, argv, scenarios);
  if (csv) std::printf("csv,clients,method,agg_mbps,sim_sec\n");

  obs::RunReport report;
  report.bench = "flash_io";
  report.params["max_clients"] = max_clients;
  report.params["bytes_per_proc"] =
      static_cast<double>(flash.bytes_per_proc());

  std::printf("FLASH I/O: %d blocks/proc, %d^3 interior cells (+%d guards), "
              "%d vars, %.2f MB/proc, 16 I/O servers\n",
              flash.blocks_per_proc, flash.interior, flash.guard,
              flash.num_vars,
              bench::to_mb(static_cast<double>(flash.bytes_per_proc())));

  std::printf("\n== Figure 12: FLASH checkpoint write bandwidth ==\n");
  std::printf("  %-8s %-18s %12s %12s\n", "clients", "method", "agg MB/s",
              "sim sec");
  std::vector<obs::MethodReport> table_rows;
  for (int n = 2; n <= max_clients; n *= 2) {
    const Method methods[] = {Method::kPosix, Method::kTwoPhase,
                              Method::kList, Method::kDatatype};
    for (const Method m : methods) {
      // POSIX issues 983 040 requests per client; the paper calls the
      // result "nearly unusable" — run it only where tractable.
      if (m == Method::kPosix && n > 2 && !with_posix) continue;
      obs::MethodReport r =
          bench::measure({.num_clients = n}, bench::flash_job(flash, m),
                         use_obs, 1 << 16, "", utilization);
      std::printf("  %-8d %-18s %12.2f %12.2f\n", n, r.method.c_str(),
                  r.bandwidth_mb_s, r.sim_seconds);
      if (csv) {
        std::printf("csv,%d,%s,%.3f,%.3f\n", n, r.method.c_str(),
                    r.bandwidth_mb_s, r.sim_seconds);
      }
      report.methods.push_back(r);
      report.methods.back().method.insert(0, std::to_string(n) + "/");
      if (n == 2) table_rows.push_back(r);
    }
  }

  bench::print_table_header(
      "Table 3: I/O characteristics per client (at 2 clients)");
  for (const auto& r : table_rows) bench::print_table_row(r);
  std::printf("  paper: POSIX 983 040 ops; two-phase 2 ops, resent "
              "7.5*(n-1)/n MB; list 15 360 ops; datatype 1 op\n");
  std::printf("  paper shape: two-phase leads at small n; datatype "
              "overtakes (~37%% faster by 96 procs); list never catches "
              "two-phase\n");

  const bool ok = extra == nullptr || bench::run_scenario(*extra, report);
  bench::write_report(report, argc, argv, "BENCH_flash_io.json");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dtio

int main(int argc, char** argv) { return dtio::flash_main(argc, argv); }
