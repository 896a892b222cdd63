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

#include "bench/bench_util.h"
#include "workloads/block3d.h"

namespace dtio {
namespace {

using bench::MethodResult;
using mpiio::Method;
using sim::Task;

MethodResult run_block3d(Method method, const workloads::Block3dConfig& block,
                         bool is_write, bool use_obs) {
  net::ClusterConfig cfg;
  cfg.num_clients = block.num_clients();
  obs::Observability obs(1 << 16);
  bench::Rig rig(cfg, use_obs ? &obs : nullptr);
  pfs::Cluster& cluster = rig.cluster;
  const SimTime t0 = rig.create("/block3d");
  int unsupported = 0;
  for (int r = 0; r < cfg.num_clients; ++r) {
    cluster.scheduler().spawn(
        [](mpiio::File& f, coll::Communicator& c,
           const workloads::Block3dConfig& b, int rank, Method m, bool write,
           int& unsup) -> Task<void> {
          if (rank != 0) (void)co_await f.open("/block3d", false);
          f.set_view(0, types::byte_t(), b.block_filetype(rank));
          auto memtype = b.memtype();
          Status s;
          if (write) {
            s = co_await f.write_at_all(c, rank, 0, nullptr, 1, memtype, m);
          } else {
            s = co_await f.read_at_all(c, rank, 0, nullptr, 1, memtype, m);
          }
          if (s.code() == StatusCode::kUnsupported) ++unsup;
        }(*rig.files[r], rig.comm, block, r, method, is_write, unsupported));
  }
  cluster.run();

  MethodResult result;
  result.method = method;
  if (unsupported > 0) {
    result.supported = false;
    return result;
  }
  result.seconds = to_seconds(cluster.scheduler().now() - t0);
  result.bandwidth = static_cast<double>(block.block_bytes()) *
                     block.num_clients() / result.seconds;
  result.per_client = rig.clients[0]->stats();
  result.events = cluster.scheduler().events_processed();
  if (use_obs) bench::capture_latency(result, obs);
  return result;
}

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
      char tag[32];
      std::snprintf(tag, sizeof tag, "%s/%d/", is_write ? "write" : "read",
                    block.num_clients());
      std::vector<MethodResult> results;
      for (const Method method : methods) {
        if (method == Method::kPosix && skip_posix) continue;
        if (method == Method::kDataSieving && is_write) {
          MethodResult r;
          r.method = method;
          r.supported = false;  // PVFS: no locks, no sieving writes
          results.push_back(r);
          report.methods.push_back(bench::to_report(r, tag));
          bench::print_figure_row(r);
          continue;
        }
        results.push_back(run_block3d(method, block, is_write, use_obs));
        report.methods.push_back(bench::to_report(results.back(), tag));
        bench::print_figure_row(results.back());
        if (csv) {
          std::printf("csv,%s,%d,%s,%.3f,%.3f\n",
                      is_write ? "write" : "read", block.num_clients(),
                      std::string(mpiio::method_name(method)).c_str(),
                      bench::to_mb(results.back().bandwidth),
                      results.back().seconds);
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
