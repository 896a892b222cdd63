// Ablations over the design choices DESIGN.md calls out:
//
//   A. Region coalescing (paper §3.2): flattening the FLASH file side with
//      and without adjacent-region merging — region counts and processing
//      items differ sharply.
//   B. List-I/O region cap (paper §2.4): sweeping the max regions per
//      request shows the linear ops-vs-regions relationship and why the
//      cap trades request size against request count.
//   C. Server-side region-processing cost (paper §4.3): sweeping the
//      per-region dataloop cost on the 3-D block READ reproduces the
//      paper's dip at high client counts — and shows a "full-featured"
//      implementation (cost -> 0, operating directly on the dataloop)
//      removing it.
//   D. Fabric bisection (paper §4.4 substrate): two-phase's double data
//      movement only costs when aggregate bandwidth is finite.
//   E. Server-side datatype cache (paper §5 future work).
//   F. Prototype vs full-featured (PVFS2) datatype I/O (paper §5).
//   G. Two-phase write-back strategy for holey rounds (paper §2.3/§5).
//
// B to G are scenarios (bench/scenario.h). All timings are simulated
// seconds.
#include <cstdio>
#include <vector>

#include "bench/scenario.h"
#include "common/rng.h"
#include "dataloop/cursor.h"
#include "dataloop/serialize.h"

namespace dtio {
namespace {

using mpiio::Method;
using sim::Task;

// ---- A: coalescing ------------------------------------------------------------

void ablate_coalescing(obs::RunReport& report) {
  std::printf("\n== Ablation A: region coalescing (paper §3.2) ==\n");
  // An AMR-style block list where many neighbouring blocks abut in the
  // file (exactly the pattern FLASH produces after refinement): the
  // emitter merges runs that the type constructor cannot know about.
  Rng rng(7);
  std::vector<std::int64_t> lens, offs;
  std::int64_t at = 0;
  for (int b = 0; b < 50'000; ++b) {
    const std::int64_t blk = rng.next_range(1, 4) * 512;  // bytes
    lens.push_back(blk);
    offs.push_back(at);
    at += blk + (rng.next_below(2) ? 0 : 4096);  // ~50% abut
  }
  auto loop = dl::make_indexed(lens, offs, dl::make_leaf(1));
  for (const bool coalesce : {true, false}) {
    auto regions = dl::flatten(loop, 0, 1, coalesce);
    std::printf("  coalescing %-3s -> %8zu regions (server walks %zu "
                "access-list entries per request)\n",
                coalesce ? "on" : "off", regions.size(), regions.size());
    report.scalars[coalesce ? "coalesce_on_regions"
                            : "coalesce_off_regions"] =
        static_cast<double>(regions.size());
  }
  // The tile filetype shows constructor-level regularity capture instead:
  // 768 rows stay 768 regions either way (rows never abut), but the
  // dataloop DESCRIBES them in O(1) space.
  workloads::TileConfig tile;
  // A copy of the pointer: the filetype is a temporary.
  const dl::DataloopPtr trows = tile.tile_filetype(0).dataloop();
  std::printf("  tile filetype: %lld regions described by %lld dataloop "
              "nodes (%zu wire bytes vs %lld list bytes)\n",
              static_cast<long long>(trows->region_count()),
              static_cast<long long>(trows->node_count()),
              dl::encoded_size(*trows),
              static_cast<long long>(trows->region_count() * 16));
  report.scalars["tile_dataloop_wire_bytes"] =
      static_cast<double>(dl::encoded_size(*trows));
  report.scalars["tile_list_wire_bytes"] =
      static_cast<double>(trows->region_count() * 16);
}

// ---- B to G: scenarios ---------------------------------------------------------

/// An arm that runs `job` over `nranks` ranks of a cluster of `cfg`
/// after rank 0 creates the file.
bench::Arm job_arm(std::string name, net::ClusterConfig cfg, int nranks,
                   const bench::Job& job) {
  cfg.num_clients = nranks;
  return {.name = std::move(name),
          .config = cfg,
          .steps = {{.kind = bench::Step::Kind::kCreate, .path = job.path},
                    {.name = "job", .job = job}}};
}

bench::Job flash(Method method) {
  bench::Job job = bench::flash_job(workloads::FlashConfig{}, method);
  job.path = "/a";
  return job;
}

bench::Job block3d_read(int blocks_per_edge) {
  bench::Job job = bench::block3d_job(
      {.dim = 600, .blocks_per_edge = blocks_per_edge}, Method::kDatatype,
      false);
  job.path = "/b";
  return job;
}

/// Adds `arm` to `s`, reporting its last step's simulated seconds as
/// "<arm>_sec".
void add_seconds(bench::Scenario& s, bench::Arm arm) {
  s.scalars.push_back(
      {arm.name + "_sec", {arm.name + "." + arm.steps.back().name + ".seconds"}});
  s.arms.push_back(std::move(arm));
}

/// B: the list-I/O regions-per-request cap; the requests each client
/// sends are echoed.
bench::Scenario list_cap() {
  bench::Scenario s{"list_cap",
                    "list-I/O regions-per-request cap (FLASH write, 8 "
                    "clients)",
                    "paper §2.4: a bounded cap keeps requests small but "
                    "leaves ops linear in regions; datatype I/O removes the "
                    "list entirely (1 op)"};
  for (const int cap : {16, 64, 256, 1024, 4096}) {
    net::ClusterConfig cfg;
    cfg.list_io_max_regions = static_cast<std::uint64_t>(cap);
    const std::string name = "list_cap_" + std::to_string(cap);
    add_seconds(s, job_arm(name, cfg, 8, flash(Method::kList)));
    s.scalars.push_back({name + "_requests_per_client",
                         {name + ".requests_sent"}, {}, 8, 0, true});
  }
  return s;
}

/// C: the server's per-region cost on datatype reads, at 8, 27 and 64
/// clients.
bench::Scenario region_cost() {
  bench::Scenario s{"region_cost",
                    "server per-region cost on datatype READs (600^3 "
                    "block), aggregate MB/s",
                    "paper §4.3: the prototype builds offset-length lists on "
                    "the server, so reads dip as client count grows; a "
                    "full-featured datatype implementation (0 us) does not"};
  for (const SimTime cost : {0, 2000, 8000, 16000}) {
    net::ClusterConfig cfg;
    cfg.server.per_dataloop_region_cost = cost;
    for (const int m : {2, 3, 4}) {
      const std::string name = "region_cost_" + std::to_string(cost) + "ns_" +
                               std::to_string(m * m * m) + "cli";
      s.arms.push_back(job_arm(name, cfg, m * m * m, block3d_read(m)));
      s.scalars.push_back({name + "_mbps", {name + ".job.bandwidth"}, {}, 1e6});
    }
  }
  return s;
}

/// D: fabric bisection bandwidth, two-phase vs datatype writes.
bench::Scenario fabric() {
  bench::Scenario s{"fabric",
                    "fabric bisection vs two-phase's double movement (FLASH "
                    "write, 32 clients; 0 = unlimited)",
                    "the tighter the shared fabric, the more two-phase pays "
                    "for moving the data twice (paper §4.4)"};
  for (const int mbps : {0, 120, 60, 30}) {
    net::ClusterConfig cfg;
    cfg.net.fabric_bandwidth_bytes_per_s = mbps * 1024.0 * 1024;
    const std::string name = "fabric_" + std::to_string(mbps) + "mbps_";
    add_seconds(s, job_arm(name + "two_phase", cfg, 32,
                           flash(Method::kTwoPhase)));
    add_seconds(s, job_arm(name + "datatype", cfg, 32,
                           flash(Method::kDatatype)));
  }
  return s;
}

/// E: a deep nested type reused across 200 operations
/// (checkpoint-every-iteration pattern); with the server-side datatype
/// cache, servers decode it once.
bench::Scenario dataloop_cache() {
  bench::Scenario s{"dataloop_cache",
                    "server-side datatype cache (paper §5 future work): one "
                    "12-deep nested type written 200 times",
                    "repeated identical types skip the per-request decode "
                    "entirely when cached"};
  for (const bool cache : {false, true}) {
    const std::string name = cache ? "dataloop_cache_on" : "dataloop_cache_off";
    bench::Arm arm{.name = name,
                   .config = {.num_servers = 4,
                              .num_clients = 1,
                              .server = {.dataloop_cache = cache}}};
    arm.steps = {{.kind = bench::Step::Kind::kTask,
                  .name = "ops",
                  .task = [](pfs::Client& c, int, std::uint64_t,
                             bench::Values&) -> Task<void> {
                    dl::DataloopPtr loop = dl::make_leaf(8);
                    for (int d = 0; d < 12; ++d) {
                      loop = dl::make_vector(2, 1, (64 << d), loop);
                    }
                    for (int op = 0; op < 200; ++op) {
                      (void)co_await c.write_datatype(1, loop, 0, 1, 0,
                                                      loop->size, nullptr);
                    }
                  }}};
    add_seconds(s, arm);
    s.scalars.push_back({name + "_decodes", {name + ".dataloops_decoded"}});
    s.scalars.push_back(
        {name + "_hits", {name + ".dataloop_cache_hits"}, {}, 1, 0, true});
  }
  return s;
}

/// F: prototype vs full-featured datatype I/O.
bench::Scenario pvfs2_mode() {
  bench::Scenario s{"pvfs2_mode",
                    "prototype vs full-featured (PVFS2) datatype I/O: FLASH "
                    "write at 32 clients, 3-D block read at 64",
                    "removing job/access-list creation on client and server "
                    "\"further widen[s] the performance gap\" (paper §5)"};
  for (const bool full : {false, true}) {
    net::ClusterConfig cfg;
    if (full) cfg = cfg.pvfs2_mode();
    const std::string mode = full ? "pvfs2" : "prototype";
    add_seconds(s, job_arm(mode + "_flash32", cfg, 32,
                           flash(Method::kDatatype)));
    add_seconds(s, job_arm(mode + "_block64", cfg, 64, block3d_read(4)));
  }
  return s;
}

/// G (paper §2.3): 8 ranks each write every 16th 1 KiB block of a
/// 128 MiB file, so every two-phase round has holes.
bench::Scenario cb_write() {
  bench::Scenario s{"cb_write",
                    "two-phase write-back for holey rounds (sparse 8-rank "
                    "collective, half the bytes untouched)",
                    "noncontiguous write-back skips the hull read entirely — "
                    "\"leveraging datatype I/O underneath two-phase\" "
                    "(paper §5)"};
  bench::Job job{
      .path = "/sparse",
      .view = [](int rank, int) -> bench::RankView {
        auto block = types::contiguous(1024, types::byte_t());
        return {rank * 1024, types::resized(block, 0, 16 * 1024),
                types::contiguous(8192 * 1024, types::byte_t())};
      },
      .method = Method::kTwoPhase,
      .write = true};
  for (const auto& [mode, name] :
       {std::pair{net::CbWriteMode::kRmw, "rmw"},
        std::pair{net::CbWriteMode::kList, "list"},
        std::pair{net::CbWriteMode::kDatatype, "datatype"}}) {
    net::ClusterConfig cfg;
    cfg.cb_write_noncontig = mode;
    add_seconds(s, job_arm(std::string("cb_write_") + name, cfg, 8, job));
  }
  return s;
}

int ablation_main(int argc, char** argv) {
  obs::RunReport report;
  report.bench = "ablation";
  ablate_coalescing(report);
  bool ok = true;
  for (const bench::Scenario& s : {list_cap(), region_cost(), fabric(),
                                    dataloop_cache(), pvfs2_mode(),
                                    cb_write()}) {
    ok = bench::run_scenario(s, report) && ok;
  }
  bench::write_report(report, argc, argv, "BENCH_ablation.json");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dtio

int main(int argc, char** argv) { return dtio::ablation_main(argc, argv); }
