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
//
// All timings are simulated seconds.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "dataloop/cursor.h"
#include "dataloop/serialize.h"
#include "workloads/block3d.h"
#include "workloads/flash.h"
#include "workloads/tile.h"

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
  const auto& trows = tile.tile_filetype(0).dataloop();
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

// ---- B: list-I/O region cap ------------------------------------------------------

double run_flash_once(net::ClusterConfig cfg, Method method, int nclients) {
  workloads::FlashConfig flash;
  cfg.num_clients = nclients;
  bench::Rig rig(cfg);
  pfs::Cluster& cluster = rig.cluster;
  const SimTime t0 = rig.create("/a");
  for (int r = 0; r < nclients; ++r) {
    cluster.scheduler().spawn(
        [](mpiio::File& f, coll::Communicator& c,
           const workloads::FlashConfig& fl, int rank, int n,
           Method m) -> Task<void> {
          if (rank != 0) (void)co_await f.open("/a", false);
          f.set_view(fl.displacement(rank), types::byte_t(), fl.filetype(n));
          auto memtype = fl.memtype();
          (void)co_await f.write_at_all(c, rank, 0, nullptr, 1, memtype, m);
        }(*rig.files[r], rig.comm, flash, r, nclients, method));
  }
  cluster.run();
  return to_seconds(cluster.scheduler().now() - t0);
}

void ablate_list_cap(obs::RunReport& report) {
  std::printf("\n== Ablation B: list-I/O regions-per-request cap "
              "(FLASH write, 8 clients) ==\n");
  std::printf("  %-10s %12s %14s\n", "cap", "sim sec", "requests/cli");
  workloads::FlashConfig flash;
  for (const std::uint64_t cap : {16ULL, 64ULL, 256ULL, 1024ULL, 4096ULL}) {
    net::ClusterConfig cfg;
    cfg.list_io_max_regions = cap;
    const double secs = run_flash_once(cfg, Method::kList, 8);
    char key[48];
    std::snprintf(key, sizeof key, "list_cap_%llu_sec",
                  static_cast<unsigned long long>(cap));
    report.scalars[key] = secs;
    std::printf("  %-10llu %12.2f %14lld\n",
                static_cast<unsigned long long>(cap), secs,
                static_cast<long long>((flash.joint_pieces() +
                                        static_cast<std::int64_t>(cap) - 1) /
                                       static_cast<std::int64_t>(cap)));
  }
  std::printf("  paper §2.4: a bounded cap keeps requests small but leaves "
              "ops linear in regions; datatype I/O removes the list "
              "entirely (1 op)\n");
}

// ---- C: server-side region processing (the §4.3 read dip) -------------------------

double run_block3d_read(net::ClusterConfig cfg, int blocks_per_edge) {
  workloads::Block3dConfig block{.dim = 600,
                                 .blocks_per_edge = blocks_per_edge};
  cfg.num_clients = block.num_clients();
  bench::Rig rig(cfg);
  pfs::Cluster& cluster = rig.cluster;
  const SimTime t0 = rig.create("/b");
  for (int r = 0; r < cfg.num_clients; ++r) {
    cluster.scheduler().spawn(
        [](mpiio::File& f, coll::Communicator& c,
           const workloads::Block3dConfig& b, int rank) -> Task<void> {
          if (rank != 0) (void)co_await f.open("/b", false);
          f.set_view(0, types::byte_t(), b.block_filetype(rank));
          auto memtype = b.memtype();
          (void)co_await f.read_at_all(c, rank, 0, nullptr, 1, memtype,
                                       Method::kDatatype);
        }(*rig.files[r], rig.comm, block, r));
  }
  cluster.run();
  return to_seconds(cluster.scheduler().now() - t0);
}

void ablate_server_region_cost(obs::RunReport& report) {
  std::printf("\n== Ablation C: server per-region cost on datatype READs "
              "(600^3 block) ==\n");
  std::printf("  %-22s %10s %10s %10s   (aggregate MB/s)\n", "cost/region",
              "8 cli", "27 cli", "64 cli");
  const double total = 864e6;
  for (const SimTime cost :
       {SimTime{0}, SimTime{2000}, SimTime{8000}, SimTime{16000}}) {
    net::ClusterConfig cfg;
    cfg.server.per_dataloop_region_cost = cost;
    double mbs[3];
    int i = 0;
    for (const int m : {2, 3, 4}) {
      mbs[i] = total / run_block3d_read(cfg, m) / 1e6;
      char key[64];
      std::snprintf(key, sizeof key, "region_cost_%lldns_%dcli_mbps",
                    static_cast<long long>(cost), m * m * m);
      report.scalars[key] = mbs[i];
      ++i;
    }
    std::printf("  %-20.1f us %10.1f %10.1f %10.1f\n",
                static_cast<double>(cost) / 1000.0, mbs[0], mbs[1], mbs[2]);
  }
  std::printf("  paper §4.3: the prototype builds offset-length lists on "
              "the server, so reads dip as client count grows; a "
              "full-featured datatype implementation (0 us) does not\n");
}

// ---- D: fabric bisection -------------------------------------------------------------

void ablate_fabric(obs::RunReport& report) {
  std::printf("\n== Ablation D: fabric bisection vs two-phase's double "
              "movement (FLASH write, 32 clients) ==\n");
  std::printf("  %-14s %14s %14s\n", "fabric MB/s", "two-phase s",
              "datatype s");
  for (const double fabric : {0.0, 120.0, 60.0, 30.0}) {
    net::ClusterConfig cfg;
    cfg.net.fabric_bandwidth_bytes_per_s = fabric * 1024 * 1024;
    const double tp = run_flash_once(cfg, Method::kTwoPhase, 32);
    const double dt = run_flash_once(cfg, Method::kDatatype, 32);
    char key[64];
    std::snprintf(key, sizeof key, "fabric_%.0fmbps_two_phase_sec", fabric);
    report.scalars[key] = tp;
    std::snprintf(key, sizeof key, "fabric_%.0fmbps_datatype_sec", fabric);
    report.scalars[key] = dt;
    if (fabric == 0.0) {
      std::printf("  %-14s %14.2f %14.2f\n", "unlimited", tp, dt);
    } else {
      std::printf("  %-14.0f %14.2f %14.2f\n", fabric, tp, dt);
    }
  }
  std::printf("  the tighter the shared fabric, the more two-phase pays "
              "for moving the data twice (paper §4.4)\n");
}

// ---- E: server-side datatype cache (paper §5 future work) --------------------------

void ablate_dataloop_cache(obs::RunReport& report) {
  std::printf("\n== Ablation E: server-side datatype cache (paper §5 "
              "future work) ==\n");
  // A deep nested type reused across 200 operations (checkpoint-every-
  // iteration pattern): with the cache, servers decode it once.
  for (const bool cache : {false, true}) {
    net::ClusterConfig cfg;
    cfg.num_servers = 4;
    cfg.num_clients = 1;
    cfg.server.dataloop_cache = cache;
    pfs::Cluster cluster(cfg);
    auto client = cluster.make_client(0);
    client->set_transfer_data(false);
    cluster.scheduler().spawn([](pfs::Client& c) -> Task<void> {
      dl::DataloopPtr loop = dl::make_leaf(8);
      for (int d = 0; d < 12; ++d) {
        loop = dl::make_vector(2, 1, (64 << d), loop);
      }
      for (int op = 0; op < 200; ++op) {
        (void)co_await c.write_datatype(1, loop, 0, 1, 0, loop->size,
                                        nullptr);
      }
    }(*client));
    cluster.run();
    std::uint64_t decoded = 0, hits = 0;
    for (int srv = 0; srv < 4; ++srv) {
      decoded += cluster.server(srv).stats().dataloops_decoded;
      hits += cluster.server(srv).stats().dataloop_cache_hits;
    }
    std::printf("  cache %-4s -> %8.3f sim s  (decodes %llu, hits %llu)\n",
                cache ? "on" : "off",
                to_seconds(cluster.scheduler().now()),
                static_cast<unsigned long long>(decoded),
                static_cast<unsigned long long>(hits));
    report.scalars[cache ? "dataloop_cache_on_sec"
                         : "dataloop_cache_off_sec"] =
        to_seconds(cluster.scheduler().now());
    report.scalars[cache ? "dataloop_cache_on_decodes"
                         : "dataloop_cache_off_decodes"] =
        static_cast<double>(decoded);
  }
  std::printf("  repeated identical types skip the per-request decode "
              "entirely when cached\n");
}

// ---- F: prototype vs "full-featured" datatype I/O (paper §5) ------------------------

void ablate_pvfs2_mode(obs::RunReport& report) {
  std::printf("\n== Ablation F: prototype vs full-featured datatype I/O "
              "(paper §5, the PVFS2 direction) ==\n");
  std::printf("  %-12s %14s %14s\n", "mode", "FLASH 32cli s",
              "3D read 64cli s");
  for (const bool full : {false, true}) {
    net::ClusterConfig cfg;
    if (full) cfg = cfg.pvfs2_mode();
    const double flash = run_flash_once(cfg, Method::kDatatype, 32);
    const double block = run_block3d_read(cfg, 4);
    const char* mode = full ? "pvfs2" : "prototype";
    report.scalars[std::string(mode) + "_flash32_sec"] = flash;
    report.scalars[std::string(mode) + "_block64_sec"] = block;
    std::printf("  %-12s %14.2f %14.2f\n",
                full ? "full (pvfs2)" : "prototype", flash, block);
  }
  std::printf("  removing job/access-list creation on client and server "
              "\"further widen[s] the performance gap\" (paper §5)\n");
}

// ---- G: two-phase write-back strategy for holey rounds (paper §2.3/§5) --------------

double run_sparse_collective_write(net::CbWriteMode mode) {
  // 8 ranks each write every 16th 1 KiB block of a 128 MiB file: every
  // two-phase round has holes, forcing the write-back strategy to matter.
  constexpr int kRanks = 8;
  net::ClusterConfig cfg;
  cfg.cb_write_noncontig = mode;
  cfg.num_clients = kRanks;
  bench::Rig rig(cfg);
  pfs::Cluster& cluster = rig.cluster;
  const SimTime t0 = rig.create("/sparse");
  for (int r = 0; r < kRanks; ++r) {
    cluster.scheduler().spawn(
        [](mpiio::File& f, coll::Communicator& c, int rank) -> Task<void> {
          if (rank != 0) (void)co_await f.open("/sparse", false);
          auto block = types::contiguous(1024, types::byte_t());
          auto strided = types::resized(block, 0, 16 * 1024);
          f.set_view(rank * 1024, types::byte_t(), strided);
          auto memtype = types::contiguous(8192 * 1024, types::byte_t());
          (void)co_await f.write_at_all(c, rank, 0, nullptr, 1, memtype,
                                        Method::kTwoPhase);
        }(*rig.files[r], rig.comm, r));
  }
  cluster.run();
  return to_seconds(cluster.scheduler().now() - t0);
}

void ablate_cb_write_back(obs::RunReport& report) {
  std::printf("\n== Ablation G: two-phase write-back for holey rounds "
              "(sparse 8-rank collective, half the bytes untouched) ==\n");
  std::printf("  %-14s %12s\n", "strategy", "sim sec");
  const double rmw = run_sparse_collective_write(net::CbWriteMode::kRmw);
  const double list = run_sparse_collective_write(net::CbWriteMode::kList);
  const double dtype =
      run_sparse_collective_write(net::CbWriteMode::kDatatype);
  report.scalars["cb_write_rmw_sec"] = rmw;
  report.scalars["cb_write_list_sec"] = list;
  report.scalars["cb_write_datatype_sec"] = dtype;
  std::printf("  %-14s %12.2f\n", "RMW hull", rmw);
  std::printf("  %-14s %12.2f\n", "list I/O", list);
  std::printf("  %-14s %12.2f\n", "datatype I/O", dtype);
  std::printf("  noncontiguous write-back skips the hull read entirely — "
              "\"leveraging datatype I/O underneath two-phase\" (§5)\n");
}

int ablation_main(int argc, char** argv) {
  obs::RunReport report;
  report.bench = "ablation";
  ablate_coalescing(report);
  ablate_list_cap(report);
  ablate_server_region_cost(report);
  ablate_fabric(report);
  ablate_dataloop_cache(report);
  ablate_pvfs2_mode(report);
  ablate_cb_write_back(report);
  bench::write_report(report, argc, argv, "BENCH_ablation.json");
  return 0;
}

}  // namespace
}  // namespace dtio

int main(int argc, char** argv) { return dtio::ablation_main(argc, argv); }
