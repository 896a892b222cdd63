// Reproduces the paper's ROMIO three-dimensional block experiment:
//   Figure 10 — read and write bandwidth of a 600^3-int block-decomposed
//               array at 8, 27 and 64 processes, five access methods;
//   Table 2  — per-client I/O characteristics at each process count.
//
// Memory is contiguous; the file side is each rank's 3-D subarray. Data
// sieving writes are unsupported on PVFS (no locking), as in the paper.
//
// Flags: --dim=N (default 600; the paper's size), --skip-posix
//        (POSIX at 600^3 issues 90 000+ ops per client and dominates the
//        bench's wall time; it is on by default because the paper ran it)
#include <cstdio>
#include <vector>

#include "bench/scenario.h"

namespace dtio {
namespace {

using mpiio::Method;

int block3d_main(int argc, char** argv) {
  const std::int64_t dim = bench::flag_int(argc, argv, "--dim", 600);
  const bool skip_posix = bench::flag_set(argc, argv, "--skip-posix");
  const bool use_obs = bench::obs_enabled(argc, argv);
  const bool csv = bench::flag_set(argc, argv, "--csv");
  if (csv) std::printf("csv,rw,clients,method,agg_mbps,sim_sec\n");

  obs::RunReport report;
  report.bench = "block3d";
  report.params["dim"] = static_cast<double>(dim);

  const Method methods[] = {Method::kPosix, Method::kDataSieving,
                            Method::kTwoPhase, Method::kList,
                            Method::kDatatype};

  for (const bool is_write : {false, true}) {
    std::printf("\n#### 3-D block %s, %lld^3 ints, 16 I/O servers ####\n",
                is_write ? "WRITE" : "READ", static_cast<long long>(dim));
    for (const int m : {2, 3, 4}) {
      workloads::Block3dConfig block{.dim = dim, .blocks_per_edge = m};
      char title[128];
      std::snprintf(title, sizeof title,
                    "Figure 10 (%s, %d clients): bandwidth",
                    is_write ? "write" : "read", block.num_clients());
      bench::print_figure_header(title);
      const std::string tag =
          std::string(is_write ? "write/" : "read/") +
          std::to_string(block.num_clients()) + "/";
      std::vector<obs::MethodReport> results;
      for (const Method method : methods) {
        if (method == Method::kPosix && skip_posix) continue;
        // PVFS has no locks, so sieving writes come back unsupported.
        const obs::MethodReport r = bench::measure(
            {.num_clients = block.num_clients()},
            bench::block3d_job(block, method, is_write), use_obs, 1 << 16);
        results.push_back(r);
        report.methods.push_back(r);
        report.methods.back().method.insert(0, tag);
        bench::print_figure_row(r);
        if (csv && r.supported) {
          std::printf("csv,%s,%d,%s,%.3f,%.3f\n", is_write ? "write" : "read",
                      block.num_clients(), r.method.c_str(), r.bandwidth_mb_s,
                      r.sim_seconds);
        }
      }
      char ttitle[128];
      std::snprintf(ttitle, sizeof ttitle,
                    "Table 2 (%d clients): I/O characteristics per client",
                    block.num_clients());
      bench::print_table_header(ttitle);
      for (const auto& r : results) bench::print_table_row(r);
    }
  }
  std::printf("\npaper shape: datatype I/O peak more than double the next "
              "best; read datatype dips as clients grow (server-side list "
              "processing); sieving reads ~4x the desired data\n");
  bench::write_report(report, argc, argv, "BENCH_block3d.json");
  return 0;
}

}  // namespace
}  // namespace dtio

int main(int argc, char** argv) { return dtio::block3d_main(argc, argv); }
