// Benchmark driver: runs one named workload of the simulated parallel file
// system, one single-threaded process per measured run, and prints one
// JSON line with its metrics (name -> value; units live in BENCHMARK.json),
// the number of application calls attempted and failed, and the outcome of
// every correctness check.
//
//   perfbench_driver --workload tile_read --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer ones (perfbench/README.md lists both). Every layer is measured
// from outside, through the public APIs of pfs::Cluster, mpiio::File,
// pfs::Client / IOServer stats, net::Network, sim::Scheduler, the dataloop
// Cursor and codec, and types. Nothing in the simulator is modified.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "collective/comm.h"
#include "common/rng.h"
#include "dataloop/cursor.h"
#include "dataloop/serialize.h"
#include "io/joint.h"
#include "io/methods.h"
#include "mpiio/file.h"
#include "net/fault.h"
#include "obs/observability.h"
#include "obs/phase.h"
#include "pfs/cluster.h"
#include "pfs/layout.h"
#include "workloads/flash.h"
#include "workloads/tile.h"

namespace dtio::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mpiio::Method;
using sim::Task;

enum class Workload { kTileRead, kFlashWrite, kTileReadFaults };

// Workload sizes. A tile frame is 10.7 MB of which each of the 6 clients
// reads its 2.36 MB tile; a FLASH checkpoint is 7.86 MB per client.
constexpr int kTileFrames = 1000;
constexpr int kFaultFrames = 400;
constexpr int kFlashClients = 16;
// The tile workloads play a clip from a movie of this many frames; the
// seed picks the first frame. Frames are not stripe-aligned, so the clip
// decides how each frame falls on the servers (the alignment repeats
// every 2048 frames).
constexpr std::int64_t kMovieFrames = 2048;
// The FLASH checkpoint starts after a header whose size the seed picks
// (a multiple of 8 bytes below 1 MiB), which shifts every variable
// section against the strips.
constexpr std::int64_t kMaxHeaderWords = 131072;

constexpr int kMinReps = 2;  // same-seed repeats compared exactly
constexpr std::size_t kSpanCapacity = std::size_t{1} << 23;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Makes `v` observable, so the timed work that produced it is not
/// optimized away.
void keep_alive(std::int64_t v) { asm volatile("" : : "r"(v) : "memory"); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<SimTime>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

// ---- Inputs ------------------------------------------------------------------

/// Everything a workload run depends on, derived from the seed alone.
struct Inputs {
  Workload workload = Workload::kTileRead;
  std::uint64_t seed = 0;         ///< benchmark seed (data pattern)
  std::uint64_t run_seed = 0;     ///< cluster seed: RPC jitter, fault draws
  std::int64_t start_frame = 0;   ///< tile workloads: first frame of the clip
  std::int64_t header_bytes = 0;  ///< flash_write: bytes before the data

  [[nodiscard]] bool tile() const noexcept {
    return workload != Workload::kFlashWrite;
  }
  [[nodiscard]] bool faults() const noexcept {
    return workload == Workload::kTileReadFaults;
  }
  [[nodiscard]] int frames() const noexcept {
    return faults() ? kFaultFrames : kTileFrames;
  }
  [[nodiscard]] int num_clients() const noexcept {
    return tile() ? workloads::TileConfig{}.num_clients() : kFlashClients;
  }
  /// Application calls per client in one measured run.
  [[nodiscard]] int calls_per_client() const noexcept {
    return tile() ? frames() : 1;
  }
};

Inputs make_inputs(Workload workload, std::uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  in.run_seed = mix_seed(seed, 0x5EED);
  Rng rng(mix_seed(seed, 0x1A9075));
  in.start_frame = static_cast<std::int64_t>(
      rng.next() % static_cast<std::uint64_t>(kMovieFrames));
  in.header_bytes = 8 * static_cast<std::int64_t>(
                            rng.next() %
                            static_cast<std::uint64_t>(kMaxHeaderWords));
  return in;
}

net::ClusterConfig make_config(const Inputs& in) {
  net::ClusterConfig cfg;  // paper defaults: 16 servers, 64 KiB strips
  cfg.seed = in.run_seed;
  cfg.num_clients = in.num_clients();
  if (in.faults()) {
    // The reliability and overload layers of tile_reader --chaos, with
    // enough attempts that the injected faults cost retries, not calls.
    cfg.client.rpc_timeout = 200 * kMillisecond;
    cfg.client.rpc_max_attempts = 12;
    cfg.client.rpc_backoff_base = 10 * kMillisecond;
    cfg.client.hedge_quantile = 95;
    cfg.client.hedge_min_samples = 16;
    cfg.server.max_queue_depth = 8;
  }
  return cfg;
}

// ---- The rig: one assembled cluster -------------------------------------------

/// A cluster with one client, io::Context and mpiio::File per rank. Member
/// order is destruction order in reverse: files and clients go before the
/// cluster, the fault plan and observability context after it.
struct Rig {
  Rig(const net::ClusterConfig& cfg, bool transfer_data,
      std::unique_ptr<obs::Observability> observability)
      : obs(std::move(observability)),
        cluster(cfg),
        comm(cluster.scheduler(), cluster.network(), cluster.config(),
             cfg.num_clients) {
    if (obs != nullptr) cluster.set_observability(obs.get());
    for (int r = 0; r < cfg.num_clients; ++r) {
      clients.push_back(cluster.make_client(r));
      clients.back()->set_transfer_data(transfer_data);
      contexts.push_back(std::make_unique<io::Context>(io::Context{
          cluster.scheduler(), *clients.back(), cluster.config()}));
      files.push_back(std::make_unique<mpiio::File>(*contexts.back()));
    }
  }

  /// Rank 0 creates `path`, then every other rank opens it.
  void open_all(const char* path, std::vector<std::string>& errors) {
    int failed = 0;
    cluster.scheduler().spawn(
        [](mpiio::File& f, const char* p, int& fail) -> Task<void> {
          if (!(co_await f.open(p, true)).is_ok()) ++fail;
        }(*files[0], path, failed));
    cluster.run();
    for (std::size_t r = 1; r < files.size(); ++r) {
      cluster.scheduler().spawn(
          [](mpiio::File& f, const char* p, int& fail) -> Task<void> {
            if (!(co_await f.open(p, false)).is_ok()) ++fail;
          }(*files[r], path, failed));
    }
    cluster.run();
    if (failed > 0) errors.push_back(std::string("open failed: ") + path);
  }

  /// 5% drop, 2% duplicate and 1% corrupt on every client<->server link,
  /// drawn from the run seed (the plan of tile_reader --chaos).
  void arm_faults() {
    plan = std::make_unique<net::FaultPlan>(
        mix_seed(cluster.config().seed, 0xC4A05));
    net::FaultSpec spec;
    spec.drop = 0.05;
    spec.duplicate = 0.02;
    spec.corrupt = 0.01;
    plan->set_default_spec(spec);
    plan->set_scope_max_node(cluster.config().num_servers);
    cluster.set_fault_plan(plan.get());
  }

  [[nodiscard]] int num_servers() const noexcept {
    return cluster.config().num_servers;
  }

  std::unique_ptr<obs::Observability> obs;
  std::unique_ptr<net::FaultPlan> plan;
  pfs::Cluster cluster;
  coll::Communicator comm;
  std::vector<std::unique_ptr<pfs::Client>> clients;
  std::vector<std::unique_ptr<io::Context>> contexts;
  std::vector<std::unique_ptr<mpiio::File>> files;
  types::Datatype memtype;
};

const char* file_path(const Inputs& in) {
  return in.tile() ? "/frames" : "/checkpoint";
}

/// The timed set-up: build the cluster, build the datatypes and convert
/// them to dataloops, create and open the file, and set every rank's view.
std::unique_ptr<Rig> setup(const Inputs& in,
                           std::unique_ptr<obs::Observability> observability,
                           std::vector<std::string>& errors) {
  auto rig = std::make_unique<Rig>(make_config(in), /*transfer_data=*/false,
                                   std::move(observability));
  if (in.faults()) rig->arm_faults();
  const int n = in.num_clients();
  if (in.tile()) {
    const workloads::TileConfig tile;
    rig->memtype = tile.memtype();
    (void)rig->memtype.dataloop();
    for (int r = 0; r < n; ++r) {
      types::Datatype filetype = tile.tile_filetype(r);
      (void)filetype.dataloop();
      rig->files[static_cast<std::size_t>(r)]->set_view(0, types::byte_t(),
                                                        filetype);
    }
  } else {
    const workloads::FlashConfig flash;
    rig->memtype = flash.memtype();
    (void)rig->memtype.dataloop();
    types::Datatype filetype = flash.filetype(n);
    (void)filetype.dataloop();
    for (int r = 0; r < n; ++r) {
      rig->files[static_cast<std::size_t>(r)]->set_view(
          in.header_bytes + flash.displacement(r), types::byte_t(), filetype);
    }
  }
  rig->open_all(file_path(in), errors);
  return rig;
}

// ---- Application processes ----------------------------------------------------

/// Per-rank record of the application calls it made.
struct Calls {
  std::vector<SimTime> latency;  ///< simulated latency of each call
  std::int64_t failed = 0;       ///< calls that returned non-OK
};

/// The bench's own span around one application call (no-op untraced).
/// Root spans without a trace id are skipped by the phase analyzer, so
/// these never enter the phase table.
obs::SpanId begin_call(obs::Observability* obs, const char* name, int node,
                       SimTime now) {
  return obs == nullptr ? 0 : obs->spans.begin(name, node, now);
}

/// Plays frames [first, first + frames) through the rank's tile view:
/// collective datatype read_at_all, or independent read_at. Frame i lands
/// at buf + i * buf_stride (buf is null in timing-only runs).
Task<void> tile_reader(sim::Scheduler& sched, mpiio::File& f,
                       coll::Communicator& comm, obs::Observability* obs,
                       const types::Datatype& memtype, int rank, int node,
                       std::int64_t first, int frames, bool collective,
                       std::uint8_t* buf, std::size_t buf_stride, Calls& out) {
  const std::int64_t tile_bytes = workloads::TileConfig{}.tile_bytes();
  for (int i = 0; i < frames; ++i) {
    const std::int64_t offset = (first + i) * tile_bytes;
    const SimTime start = sched.now();
    const obs::SpanId span = begin_call(
        obs, collective ? "app_read_at_all" : "app_read_at", node, start);
    std::uint8_t* dst =
        buf == nullptr ? nullptr : buf + static_cast<std::size_t>(i) * buf_stride;
    Status s;
    if (collective) {
      s = co_await f.read_at_all(comm, rank, offset, dst, 1, memtype,
                                 Method::kDatatype);
    } else {
      s = co_await f.read_at(offset, dst, 1, memtype, Method::kDatatype);
    }
    if (obs != nullptr) obs->spans.end(span, sched.now());
    out.latency.push_back(sched.now() - start);
    if (!s.is_ok()) ++out.failed;
  }
}

/// One collective list-I/O checkpoint write of the rank's FLASH blocks.
Task<void> flash_writer(sim::Scheduler& sched, mpiio::File& f,
                        coll::Communicator& comm, obs::Observability* obs,
                        const types::Datatype& memtype, int rank, int node,
                        const std::uint8_t* buf, Calls& out) {
  const SimTime start = sched.now();
  const obs::SpanId span = begin_call(obs, "app_write_at_all", node, start);
  Status s = co_await f.write_at_all(comm, rank, 0, buf, 1, memtype,
                                     Method::kList);
  if (obs != nullptr) obs->spans.end(span, sched.now());
  out.latency.push_back(sched.now() - start);
  if (!s.is_ok()) ++out.failed;
}

/// Spawns every rank's application process for the workload.
void spawn_workload(Rig& rig, const Inputs& in, std::vector<Calls>& calls) {
  const int n = in.num_clients();
  calls.assign(static_cast<std::size_t>(n), Calls{});
  for (int r = 0; r < n; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    const int node = rig.clients[ur]->node_id();
    if (in.tile()) {
      rig.cluster.scheduler().spawn(tile_reader(
          rig.cluster.scheduler(), *rig.files[ur], rig.comm, rig.obs.get(),
          rig.memtype, r, node, in.start_frame, in.frames(),
          /*collective=*/!in.faults(), nullptr, 0, calls[ur]));
    } else {
      rig.cluster.scheduler().spawn(flash_writer(
          rig.cluster.scheduler(), *rig.files[ur], rig.comm, rig.obs.get(),
          rig.memtype, r, node, nullptr, calls[ur]));
    }
  }
}

// ---- Counters -----------------------------------------------------------------

/// Every counter the ledger reads, at one instant. The measured phase is
/// the difference of two snapshots, so set-up traffic (create/open) is
/// excluded.
struct Snapshot {
  SimTime now = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  double fabric_busy = 0;
  std::vector<pfs::ServerStats> servers;
  std::vector<double> server_cpu, server_disk, server_tx;
  std::vector<IoStats> clients;
  std::vector<std::uint64_t> retries, timeouts, hedges, hedges_won;
  std::vector<double> client_rx;
};

Snapshot capture(Rig& rig) {
  Snapshot s;
  pfs::Cluster& c = rig.cluster;
  net::Network& net = c.network();
  s.now = c.scheduler().now();
  s.events = c.scheduler().events_processed();
  s.messages = net.total_messages();
  s.wire_bytes = net.total_wire_bytes();
  if (net.fabric() != nullptr) {
    s.fabric_busy = net.fabric()->busy_integral() /
                    static_cast<double>(net.fabric()->capacity());
  }
  for (int i = 0; i < rig.num_servers(); ++i) {
    pfs::IOServer& srv = c.server(i);
    s.servers.push_back(srv.stats());
    s.server_cpu.push_back(srv.cpu().busy_integral());
    s.server_disk.push_back(srv.disk().busy_integral());
    s.server_tx.push_back(net.tx_link(srv.node_id()).busy_integral());
  }
  for (const auto& cl : rig.clients) {
    s.clients.push_back(cl->stats());
    s.retries.push_back(cl->rpc_retries());
    s.timeouts.push_back(cl->rpc_timeouts());
    s.hedges.push_back(cl->hedges_issued());
    s.hedges_won.push_back(cl->hedges_won());
    s.client_rx.push_back(net.rx_link(cl->node_id()).busy_integral());
  }
  return s;
}

/// Named values in a fixed order. A Ledger of simulated quantities must
/// repeat exactly for a given seed, so two are compared with ==.
using Ledger = std::vector<std::pair<std::string, double>>;

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}
double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Desired bytes of one measured run, from the workload geometry.
double desired_bytes(const Inputs& in) {
  if (in.tile()) {
    return static_cast<double>(workloads::TileConfig{}.tile_bytes()) *
           in.frames() * in.num_clients();
  }
  return static_cast<double>(workloads::FlashConfig{}.bytes_per_proc()) *
         in.num_clients();
}

/// Every simulated quantity of one measured run: the end-to-end sim
/// metrics first, then the per-layer counts.
Ledger sim_ledger(Rig& rig, const Inputs& in, const Snapshot& a,
                  const Snapshot& b, const std::vector<Calls>& calls) {
  Ledger l;
  const double elapsed = static_cast<double>(b.now - a.now);
  std::vector<SimTime> lat;
  std::int64_t failed = 0;
  for (const Calls& c : calls) {
    lat.insert(lat.end(), c.latency.begin(), c.latency.end());
    failed += c.failed;
  }
  std::sort(lat.begin(), lat.end());
  const auto ncalls = static_cast<double>(lat.size());

  l.emplace_back("sim_mb_s", desired_bytes(in) / (elapsed / 1e9) / 1e6);
  l.emplace_back("op_p50_ms", percentile(lat, 50) / 1e6);
  l.emplace_back("op_p99_ms", percentile(lat, 99) / 1e6);
  l.emplace_back("sim_events", static_cast<double>(b.events - a.events));

  // sim
  std::uint64_t residual = 0;
  for (const auto& cl : rig.clients) {
    residual += rig.cluster.network().mailbox(cl->node_id()).queued();
  }
  l.emplace_back("sim.client_mailbox_residual", static_cast<double>(residual));
  std::uint64_t backlog = 0;
  for (const pfs::ServerStats& st : b.servers) {
    backlog = std::max(backlog, st.max_backlog);
  }
  l.emplace_back("sim.server_max_backlog", static_cast<double>(backlog));
  l.emplace_back("sim.sim_seconds", elapsed / 1e9);

  // server
  const std::size_t ns = b.servers.size();
  std::vector<double> cpu(ns), disk(ns), tx(ns);
  std::uint64_t requests = 0, walked = 0, mine = 0, disk_ops = 0,
                decoded = 0, replays = 0, crc = 0, sheds = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    const pfs::ServerStats& x = b.servers[i];
    const pfs::ServerStats& y = a.servers[i];
    requests += x.requests - y.requests;
    walked += x.regions_walked - y.regions_walked;
    mine += x.my_pieces - y.my_pieces;
    disk_ops += x.disk_accesses - y.disk_accesses;
    decoded += x.dataloops_decoded - y.dataloops_decoded;
    replays += x.replays_suppressed - y.replays_suppressed;
    crc += x.crc_rejects - y.crc_rejects;
    sheds += (x.sheds_depth + x.sheds_bytes) - (y.sheds_depth + y.sheds_bytes);
    cpu[i] = (b.server_cpu[i] - a.server_cpu[i]) / elapsed;
    disk[i] = (b.server_disk[i] - a.server_disk[i]) / elapsed;
    tx[i] = (b.server_tx[i] - a.server_tx[i]) / elapsed;
  }

  // client
  const std::size_t nc = b.clients.size();
  std::vector<double> rx(nc);
  std::uint64_t sent = 0, io_ops = 0, regions_client = 0, request_bytes = 0,
                retries = 0, timeouts = 0, hedges = 0, hedges_won = 0;
  for (std::size_t i = 0; i < nc; ++i) {
    sent += b.clients[i].requests_sent - a.clients[i].requests_sent;
    io_ops += b.clients[i].io_ops - a.clients[i].io_ops;
    regions_client +=
        b.clients[i].regions_client - a.clients[i].regions_client;
    request_bytes += b.clients[i].request_bytes - a.clients[i].request_bytes;
    retries += b.retries[i] - a.retries[i];
    timeouts += b.timeouts[i] - a.timeouts[i];
    hedges += b.hedges[i] - a.hedges[i];
    hedges_won += b.hedges_won[i] - a.hedges_won[i];
    rx[i] = (b.client_rx[i] - a.client_rx[i]) / elapsed;
  }

  // net
  l.emplace_back("net.messages", static_cast<double>(b.messages - a.messages));
  l.emplace_back("net.wire_bytes",
                 static_cast<double>(b.wire_bytes - a.wire_bytes));
  l.emplace_back("net.request_bytes_per_op",
                 ncalls > 0 ? static_cast<double>(request_bytes) / ncalls : 0);
  l.emplace_back("net.server_tx_busy_max", max_of(tx));
  l.emplace_back("net.client_rx_busy_max", max_of(rx));
  l.emplace_back("net.fabric_busy", (b.fabric_busy - a.fabric_busy) / elapsed);

  l.emplace_back("server.requests", static_cast<double>(requests));
  l.emplace_back("server.cpu_busy_mean", mean_of(cpu));
  l.emplace_back("server.cpu_busy_max", max_of(cpu));
  l.emplace_back("server.disk_busy_mean", mean_of(disk));
  l.emplace_back("server.disk_busy_max", max_of(disk));
  l.emplace_back("server.disk_accesses", static_cast<double>(disk_ops));
  l.emplace_back("server.regions_walked", static_cast<double>(walked));
  l.emplace_back("server.my_pieces", static_cast<double>(mine));
  l.emplace_back("server.prune_yield",
                 walked > 0 ? static_cast<double>(mine) /
                                  static_cast<double>(walked)
                            : 0);
  l.emplace_back("server.dataloops_decoded", static_cast<double>(decoded));
  l.emplace_back("server.replays_suppressed", static_cast<double>(replays));
  l.emplace_back("server.crc_rejects", static_cast<double>(crc));
  l.emplace_back("server.sheds", static_cast<double>(sheds));

  l.emplace_back("client.calls", ncalls);
  l.emplace_back("client.calls_failed", static_cast<double>(failed));
  l.emplace_back("client.ops_failed_frac",
                 ncalls > 0 ? static_cast<double>(failed) / ncalls : 0);
  l.emplace_back("client.requests_sent", static_cast<double>(sent));
  l.emplace_back("client.io_ops", static_cast<double>(io_ops));
  l.emplace_back("client.regions_client",
                 static_cast<double>(regions_client));
  l.emplace_back("client.rpc_retries", static_cast<double>(retries));
  l.emplace_back("client.rpc_timeouts", static_cast<double>(timeouts));
  l.emplace_back("client.hedges_issued", static_cast<double>(hedges));
  l.emplace_back("client.hedges_won", static_cast<double>(hedges_won));
  return l;
}

double ledger_value(const Ledger& l, const std::string& name) {
  for (const auto& [k, v] : l) {
    if (k == name) return v;
  }
  return 0;
}

/// Structural checks of one measured run against EXPERIMENTS.md Tables 1
/// and 3: per client, one datatype op and 2,359,296 desired bytes per tile
/// frame; 15,360 list ops and 7,864,320 desired bytes per FLASH checkpoint.
void check_structure(const Inputs& in, const Snapshot& a,
                     const Snapshot& b, const std::vector<Calls>& calls,
                     std::vector<std::string>& errors) {
  std::uint64_t want_ops = 0;
  std::uint64_t want_desired = 0;
  if (in.tile()) {
    want_ops = static_cast<std::uint64_t>(in.frames());
    want_desired = static_cast<std::uint64_t>(in.frames()) *
                   static_cast<std::uint64_t>(
                       workloads::TileConfig{}.tile_bytes());
  } else {
    want_ops = 15360;
    want_desired = 7864320;
  }
  for (std::size_t r = 0; r < b.clients.size(); ++r) {
    const std::uint64_t ops = b.clients[r].io_ops - a.clients[r].io_ops;
    const std::uint64_t desired =
        b.clients[r].desired_bytes - a.clients[r].desired_bytes;
    if (ops != want_ops || desired != want_desired) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "client %zu: %" PRIu64 " ops / %" PRIu64
                    " desired bytes, want %" PRIu64 " / %" PRIu64,
                    r, ops, desired, want_ops, want_desired);
      errors.emplace_back(msg);
    }
    if (calls[r].latency.size() !=
        static_cast<std::size_t>(in.calls_per_client())) {
      errors.push_back("client " + std::to_string(r) +
                       " did not finish its calls");
    }
  }
}

// ---- One measured run ---------------------------------------------------------

/// One measured run: host timings, the simulated ledger, and (traced runs
/// only) the phase table.
struct RunResult {
  double setup_s = 0;
  double wall_s = 0;     ///< host seconds of the measured phase
  double rss_mb = 0;     ///< peak RSS of the process that ran it
  Ledger sim;            ///< simulated quantities (deterministic)
  Ledger phases;         ///< traced runs: phase shares and span counts
  std::vector<std::string> errors;
};

/// Mean share of client-op latency per phase over the measured ops, plus
/// the span accounting of the collector.
Ledger phase_ledger(const obs::Observability& o, SimTime t0) {
  std::vector<obs::OpBreakdown> ops = obs::decompose_ops(o.spans);
  std::erase_if(ops, [&](const obs::OpBreakdown& op) {
    return op.start < t0;  // create/open during set-up
  });
  const obs::PhaseReport ph = obs::summarize_phases(std::move(ops));
  static constexpr obs::Phase kPhases[] = {
      obs::Phase::kClientPrep,    obs::Phase::kClientQueue,
      obs::Phase::kClientBackoff, obs::Phase::kNetRequest,
      obs::Phase::kServerQueue,   obs::Phase::kServerDecode,
      obs::Phase::kServerExpand,  obs::Phase::kServerDisk,
      obs::Phase::kNetReply};
  Ledger l;
  for (obs::Phase p : kPhases) {
    l.emplace_back(std::string("phase.") + obs::phase_name(p),
                   ph.mean_ns > 0 ? ph.mean_phase_ns[static_cast<std::size_t>(
                                        p)] / ph.mean_ns
                                  : 0);
  }
  l.emplace_back("phase.coverage", ph.mean_coverage);
  l.emplace_back("phase.ops", static_cast<double>(ph.ops));
  l.emplace_back("obs.spans_recorded",
                 static_cast<double>(o.spans.spans().size()));
  l.emplace_back("obs.spans_dropped", static_cast<double>(o.spans.dropped()));
  return l;
}

RunResult run_once(const Inputs& in, bool traced) {
  RunResult out;
  const Clock::time_point t_setup = Clock::now();
  std::unique_ptr<Rig> rig =
      setup(in,
            traced ? std::make_unique<obs::Observability>(kSpanCapacity)
                   : nullptr,
            out.errors);
  out.setup_s = since(t_setup);

  std::vector<Calls> calls;
  const Snapshot before = capture(*rig);
  const Clock::time_point t_run = Clock::now();
  if (in.faults()) {
    // One crash of server 3 shortly into the run; it restarts 40 ms later
    // with cold caches.
    rig->cluster.schedule_server_crash(3, before.now + 2 * kMillisecond,
                                       40 * kMillisecond);
  }
  spawn_workload(*rig, in, calls);
  rig->cluster.run();
  out.wall_s = since(t_run);
  const Snapshot after = capture(*rig);

  out.sim = sim_ledger(*rig, in, before, after, calls);
  check_structure(in, before, after, calls, out.errors);
  if (traced) out.phases = phase_ledger(*rig->obs, before.now);
  return out;
}

// Each measured run happens in a forked child: every run then starts from
// the same fresh process, and its peak RSS is that process's own. (The
// simulator does not return all memory when a cluster is destroyed, so
// back-to-back runs in one process grow its heap and slow down.) The
// child sends its result back as text lines over a pipe:
//   T setup_s|wall_s <value>, S/P <name> <value>, E <error text>.

std::string serialize(const RunResult& r) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "T setup_s %.17g\nT wall_s %.17g\n",
                r.setup_s, r.wall_s);
  out += line;
  for (const auto& [tag, ledger] :
       {std::pair{'S', &r.sim}, std::pair{'P', &r.phases}}) {
    for (const auto& [name, value] : *ledger) {
      std::snprintf(line, sizeof line, "%c %s %.17g\n", tag, name.c_str(),
                    value);
      out += line;
    }
  }
  for (const std::string& e : r.errors) out += "E " + e + "\n";
  return out;
}

RunResult deserialize(const std::string& text) {
  RunResult r;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() < 3) continue;
    if (line[0] == 'E') {
      r.errors.push_back(line.substr(2));
      continue;
    }
    const std::size_t space = line.find(' ', 2);
    const std::string name = line.substr(2, space - 2);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    if (line[0] == 'T') {
      (name == "setup_s" ? r.setup_s : r.wall_s) = value;
    } else {
      (line[0] == 'S' ? r.sim : r.phases).emplace_back(name, value);
    }
  }
  return r;
}

RunResult run_in_child(const Inputs& in, bool traced) {
  int fds[2];
  if (pipe(fds) != 0) {
    RunResult r;
    r.errors.emplace_back("pipe failed");
    return r;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    std::string text;
    try {
      text = serialize(run_once(in, traced));
    } catch (const std::exception& e) {
      text = std::string("E ") + e.what() + "\n";
    }
    std::size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n = 0;
  while (pid > 0 && (n = read(fds[0], buf, sizeof buf)) > 0) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  RunResult r = deserialize(text);
  int status = 0;
  rusage ru{};
  if (pid < 0 || wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || r.sim.empty()) {
    r.errors.emplace_back("measured run process failed");
  }
  r.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return r;
}

// ---- Data-carrying correctness pass --------------------------------------------

/// The byte stored at file offset `pos` in the tile check.
std::uint8_t pattern(std::uint64_t seed, std::int64_t pos) {
  return static_cast<std::uint8_t>(
      mix_seed(seed, static_cast<std::uint64_t>(pos)) >> 56);
}

/// Writes two real frames of the clip, then every rank reads its tiles
/// back the way the workload does (faults armed for tile_read_faults) and
/// compares each byte with the pattern.
void check_tile_data(const Inputs& in, std::vector<std::string>& errors) {
  constexpr int kFrames = 2;
  const workloads::TileConfig tile;
  Rig rig(make_config(in), /*transfer_data=*/true, nullptr);
  for (int r = 0; r < in.num_clients(); ++r) {
    rig.files[static_cast<std::size_t>(r)]->set_view(0, types::byte_t(),
                                                     tile.tile_filetype(r));
  }
  rig.memtype = tile.memtype();
  rig.open_all(file_path(in), errors);
  const std::int64_t first_byte = in.start_frame * tile.frame_bytes();
  std::vector<std::uint8_t> frames(
      static_cast<std::size_t>(kFrames * tile.frame_bytes()));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i] = pattern(in.seed, first_byte + static_cast<std::int64_t>(i));
  }
  int failed = 0;
  rig.cluster.scheduler().spawn(
      [](pfs::Client& c, std::uint64_t handle, std::int64_t offset,
         const std::vector<std::uint8_t>& data, int& fail) -> Task<void> {
        Status s = co_await c.write_contig(
            handle, offset, data.data(),
            static_cast<std::int64_t>(data.size()));
        if (!s.is_ok()) ++fail;
      }(*rig.clients[0], rig.files[0]->handle(), first_byte, frames, failed));
  rig.cluster.run();
  if (failed > 0) errors.emplace_back("tile data check: populate failed");

  if (in.faults()) {
    rig.arm_faults();
    rig.cluster.schedule_server_crash(
        3, rig.cluster.scheduler().now() + 2 * kMillisecond,
        40 * kMillisecond);
  }
  const auto tile_bytes = static_cast<std::size_t>(tile.tile_bytes());
  std::vector<std::vector<std::uint8_t>> bufs(
      static_cast<std::size_t>(in.num_clients()),
      std::vector<std::uint8_t>(tile_bytes * kFrames));
  std::vector<Calls> calls(bufs.size());
  for (int r = 0; r < in.num_clients(); ++r) {
    const auto ur = static_cast<std::size_t>(r);
    rig.cluster.scheduler().spawn(tile_reader(
        rig.cluster.scheduler(), *rig.files[ur], rig.comm, nullptr,
        rig.memtype, r, -1, in.start_frame, kFrames, !in.faults(),
        bufs[ur].data(), tile_bytes, calls[ur]));
  }
  rig.cluster.run();

  const std::int64_t row_bytes =
      static_cast<std::int64_t>(tile.tile_width) * tile.bytes_per_pixel;
  const std::int64_t frame_row = tile.frame_width() * tile.bytes_per_pixel;
  for (int r = 0; r < in.num_clients(); ++r) {
    const Calls& c = calls[static_cast<std::size_t>(r)];
    if (c.failed > 0 || c.latency.size() != kFrames) {
      errors.push_back("tile data check: rank " + std::to_string(r) +
                       " read failed");
      continue;
    }
    const std::vector<std::uint8_t>& buf = bufs[static_cast<std::size_t>(r)];
    std::int64_t bad = 0;
    for (int f = 0; f < kFrames; ++f) {
      const std::int64_t frame0 = (in.start_frame + f) * tile.frame_bytes();
      for (std::int64_t y = 0; y < tile.tile_height; ++y) {
        const std::int64_t file0 = frame0 + (tile.tile_y0(r) + y) * frame_row +
                                   tile.tile_x0(r) * tile.bytes_per_pixel;
        const std::size_t mem0 = static_cast<std::size_t>(f) * tile_bytes +
                                 static_cast<std::size_t>(y * row_bytes);
        for (std::int64_t x = 0; x < row_bytes; ++x) {
          if (buf[mem0 + static_cast<std::size_t>(x)] !=
              pattern(in.seed, file0 + x)) {
            ++bad;
          }
        }
      }
    }
    if (bad > 0) {
      errors.push_back("tile data check: rank " + std::to_string(r) + " got " +
                       std::to_string(bad) + " wrong bytes");
    }
  }
}

/// A reduced FLASH checkpoint (4 clients, 2 blocks each) written with real
/// data through list I/O, read back contiguously and compared with the
/// layout the checkpoint defines: variable-major sections, each holding
/// every rank's interior cells in block, z, y, x order.
void check_flash_data(const Inputs& in, std::vector<std::string>& errors) {
  workloads::FlashConfig fl;
  fl.blocks_per_proc = 2;
  constexpr int kProcs = 4;
  net::ClusterConfig cfg = make_config(in);
  cfg.num_clients = kProcs + 1;  // the last rank reads the file back
  Rig rig(cfg, /*transfer_data=*/true, nullptr);
  coll::Communicator writers(rig.cluster.scheduler(), rig.cluster.network(),
                             rig.cluster.config(), kProcs);
  rig.open_all(file_path(in), errors);
  rig.memtype = fl.memtype();
  const types::Datatype filetype = fl.filetype(kProcs);
  const auto mem_bytes =
      static_cast<std::size_t>(fl.blocks_per_proc * fl.block_mem_bytes());
  std::vector<std::vector<std::uint8_t>> mem(kProcs,
                                             std::vector<std::uint8_t>(mem_bytes));
  for (int r = 0; r < kProcs; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    for (std::size_t i = 0; i < mem_bytes; ++i) {
      mem[ur][i] = pattern(in.seed + 1 + static_cast<std::uint64_t>(r),
                           static_cast<std::int64_t>(i));
    }
    rig.files[ur]->set_view(in.header_bytes + fl.displacement(r),
                            types::byte_t(), filetype);
  }
  std::vector<Calls> calls(kProcs);
  for (int r = 0; r < kProcs; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    rig.cluster.scheduler().spawn(flash_writer(
        rig.cluster.scheduler(), *rig.files[ur], writers, nullptr, rig.memtype,
        r, -1, mem[ur].data(), calls[ur]));
  }
  rig.cluster.run();
  for (const Calls& c : calls) {
    if (c.failed > 0 || c.latency.size() != 1) {
      errors.emplace_back("flash data check: write_at_all failed");
      return;
    }
  }

  const std::int64_t total = in.header_bytes + fl.file_bytes(kProcs);
  std::vector<std::uint8_t> file(static_cast<std::size_t>(total));
  int failed = 0;
  rig.cluster.scheduler().spawn(
      [](pfs::Client& c, std::uint64_t handle, std::vector<std::uint8_t>& out,
         int& fail) -> Task<void> {
        Status s = co_await c.read_contig(
            handle, 0, out.data(), static_cast<std::int64_t>(out.size()));
        if (!s.is_ok()) ++fail;
      }(*rig.clients[kProcs], rig.files[0]->handle(), file, failed));
  rig.cluster.run();
  if (failed > 0) {
    errors.emplace_back("flash data check: read-back failed");
    return;
  }

  std::int64_t bad = 0;
  for (std::int64_t i = 0; i < in.header_bytes; ++i) {
    if (file[static_cast<std::size_t>(i)] != 0) ++bad;  // never written
  }
  const std::int64_t edge = fl.cells_per_edge();
  const std::int64_t n = fl.interior;
  for (int r = 0; r < kProcs; ++r) {
    const auto& m = mem[static_cast<std::size_t>(r)];
    for (int v = 0; v < fl.num_vars; ++v) {
      const std::int64_t section = in.header_bytes +
                                   v * kProcs * fl.var_chunk_bytes() +
                                   r * fl.var_chunk_bytes();
      std::int64_t cell = 0;
      for (int b = 0; b < fl.blocks_per_proc; ++b) {
        for (std::int64_t z = 0; z < n; ++z) {
          for (std::int64_t y = 0; y < n; ++y) {
            for (std::int64_t x = 0; x < n; ++x, ++cell) {
              const std::int64_t mem_cell =
                  ((z + fl.guard) * edge + (y + fl.guard)) * edge +
                  (x + fl.guard);
              const std::int64_t mem_off = b * fl.block_mem_bytes() +
                                           mem_cell * fl.cell_bytes() +
                                           v * fl.var_bytes;
              const std::int64_t file_off = section + cell * fl.var_bytes;
              if (std::memcmp(&m[static_cast<std::size_t>(mem_off)],
                              &file[static_cast<std::size_t>(file_off)],
                              static_cast<std::size_t>(fl.var_bytes)) != 0) {
                ++bad;
              }
            }
          }
        }
      }
    }
  }
  if (bad > 0) {
    errors.push_back("flash data check: " + std::to_string(bad) +
                     " wrong values in the checkpoint");
  }
}

// ---- Host-side layer timings (traced runs) -----------------------------------

/// Median over five rounds of host nanoseconds per unit of work; each
/// round repeats `work` (which returns the units it did) for >= 20 ms.
template <typename Work>
double ns_per_unit(Work&& work) {
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    std::int64_t units = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0;
    do {
      units += work();
      elapsed = since(t0) * 1e9;
    } while (elapsed < 2e7);
    rounds.push_back(elapsed / static_cast<double>(std::max<std::int64_t>(
                                   units, 1)));
  }
  return median(rounds);
}

struct TypeSet {
  types::Datatype memtype;
  types::Datatype filetype;  ///< rank 0's file type
  std::int64_t file_base = 0;
  std::int64_t instances = 1;  ///< file-type instances one timing walks
};

TypeSet workload_types(const Inputs& in) {
  TypeSet t;
  if (in.tile()) {
    const workloads::TileConfig tile;
    t.memtype = tile.memtype();
    t.filetype = tile.tile_filetype(0);
    t.instances = 64;  // 64 frames
  } else {
    const workloads::FlashConfig flash;
    t.memtype = flash.memtype();
    t.filetype = flash.filetype(kFlashClients);
    t.file_base = in.header_bytes;
    t.instances = 1;
  }
  return t;
}

/// The dataloop and types layers, timed on the workload's own datatypes:
/// full and per-server pruned expansion of the file type, the joint
/// memory/file flatten list I/O performs, the wire codec, and datatype
/// construction plus conversion to a dataloop.
Ledger host_layer_ledger(const Inputs& in) {
  Ledger l;
  const TypeSet t = workload_types(in);
  const dl::DataloopPtr& file_loop = t.filetype.dataloop();
  const dl::DataloopPtr& mem_loop = t.memtype.dataloop();
  const std::int64_t count = t.instances;
  std::int64_t sink = 0;

  l.emplace_back("dataloop.expand_ns_per_region", ns_per_unit([&] {
                   dl::Cursor c(file_loop, t.file_base, count);
                   return c.process(INT64_MAX, INT64_MAX,
                                    [&](std::int64_t off, std::int64_t len) {
                                      sink += off ^ len;
                                    })
                       .regions;
                 }));

  const net::ClusterConfig cfg = make_config(in);
  const pfs::FileLayout layout(cfg.num_servers, cfg.strip_size);
  struct PruneCtx {
    const pfs::FileLayout* layout;
    int server;
  };
  l.emplace_back(
      "dataloop.expand_pruned_ns_per_region", ns_per_unit([&] {
        std::int64_t regions = 0;
        for (int s = 0; s < cfg.num_servers; ++s) {
          dl::Cursor c(file_loop, t.file_base, count);
          const PruneCtx ctx{&layout, s};
          c.set_filter(
              [](const void* p, std::int64_t lo, std::int64_t hi) {
                const auto* x = static_cast<const PruneCtx*>(p);
                return x->layout->intersects_server(Region{lo, hi - lo},
                                                    x->server);
              },
              &ctx);
          regions += c.process(INT64_MAX, INT64_MAX,
                               [&](std::int64_t off, std::int64_t len) {
                                 sink += off ^ len;
                               })
                         .regions;
        }
        return regions;
      }));

  // Joint pieces: memory instances sized to cover the same stream bytes.
  const std::int64_t stream = count * file_loop->size;
  const std::int64_t mem_count = stream / mem_loop->size;
  l.emplace_back("dataloop.flatten_ns_per_region", ns_per_unit([&] {
                   io::JointWalker w(dl::Cursor(mem_loop, 0, mem_count),
                                     dl::Cursor(file_loop, t.file_base, count));
                   io::JointWalker::Piece p;
                   std::int64_t pieces = 0;
                   while (w.next(p)) {
                     sink += p.length;
                     ++pieces;
                   }
                   return pieces;
                 }));

  l.emplace_back("dataloop.codec_us", ns_per_unit([&] {
                   std::vector<std::uint8_t> wire;
                   dl::encode(*file_loop, wire);
                   const std::size_t split = wire.size();
                   dl::encode(*mem_loop, wire);
                   const std::span<const std::uint8_t> all(wire);
                   sink += dl::decode(all.first(split))->count;
                   sink += dl::decode(all.subspan(split))->count;
                   return std::int64_t{1};
                 }) / 1e3);

  l.emplace_back("types.convert_us", ns_per_unit([&] {
                   const TypeSet fresh = workload_types(in);
                   sink += fresh.memtype.dataloop()->count +
                           fresh.filetype.dataloop()->count;
                   return std::int64_t{1};
                 }) / 1e3);
  keep_alive(sink);
  return l;
}

// ---- Output -------------------------------------------------------------------

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const Ledger& metrics, const std::vector<std::string>& errors) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second);
  }
  std::printf("}, \"errors\": [");
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::string e;
    for (char ch : errors[i]) {
      if (ch == '"' || ch == '\\') e.push_back('\\');
      e.push_back(ch);
    }
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", e.c_str());
  }
  std::printf("]}\n");
}

/// Compares a run's simulated ledger with the reference run's; any
/// difference is a determinism failure.
void expect_same(const Ledger& ref, const Ledger& got, const char* what,
                 std::vector<std::string>& errors) {
  if (ref == got) return;
  for (std::size_t i = 0; i < std::min(ref.size(), got.size()); ++i) {
    if (ref[i] != got[i]) {
      char msg[256];
      std::snprintf(msg, sizeof msg, "%s: %s differs (%.17g vs %.17g)", what,
                    ref[i].first.c_str(), ref[i].second, got[i].second);
      errors.emplace_back(msg);
      return;
    }
  }
  errors.emplace_back(std::string(what) + ": ledgers differ in length");
}

int run(Workload workload, std::uint64_t seed, double seconds, bool trace) {
  const Inputs in = make_inputs(workload, seed);
  std::vector<std::string> errors;
  Ledger metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const Clock::time_point t_start = Clock::now();

  Ledger reference;
  /// Runs once in a child, folds in its errors and call counts, and checks
  /// its simulated ledger against the first run's.
  auto measure = [&](bool traced) {
    RunResult r = run_in_child(in, traced);
    for (std::string& e : r.errors) errors.push_back(std::move(e));
    attempted += static_cast<std::int64_t>(ledger_value(r.sim, "client.calls"));
    failed += static_cast<std::int64_t>(ledger_value(r.sim, "client.calls_failed"));
    if (reference.empty()) {
      reference = r.sim;
    } else {
      expect_same(reference, r.sim,
                  traced ? "traced vs untraced" : "same-seed repeat", errors);
    }
    return r;
  };

  std::vector<double> walls;
  double last = 0;
  if (!trace) {
    std::vector<double> setups, rss;
    while (walls.size() < static_cast<std::size_t>(kMinReps) ||
           since(t_start) + last <= seconds) {
      const Clock::time_point t_rep = Clock::now();
      const RunResult r = measure(/*traced=*/false);
      setups.push_back(r.setup_s);
      walls.push_back(r.wall_s);
      rss.push_back(r.rss_mb);
      last = since(t_rep);
    }
    std::fprintf(stderr, "wall_s per run:");
    for (double w : walls) std::fprintf(stderr, " %.3f", w);
    std::fprintf(stderr, "\nsetup_s per run:");
    for (double x : setups) std::fprintf(stderr, " %.3g", x);
    std::fprintf(stderr, "\n");
    for (const char* name :
         {"sim_mb_s", "op_p50_ms", "op_p99_ms", "sim_events"}) {
      metrics.emplace_back(name, ledger_value(reference, name));
    }
    metrics.emplace_back("wall_s", median(walls));
    metrics.emplace_back("peak_rss_mb", median(rss));
    metrics.emplace_back("setup_s", median(setups));
  } else {
    std::vector<double> traced_walls;
    Ledger phases;
    while (traced_walls.empty() || since(t_start) + last <= seconds) {
      const Clock::time_point t_pair = Clock::now();
      walls.push_back(measure(/*traced=*/false).wall_s);
      const RunResult traced = measure(/*traced=*/true);
      traced_walls.push_back(traced.wall_s);
      phases = traced.phases;
      if (ledger_value(phases, "obs.spans_dropped") > 0) {
        errors.emplace_back("span collector dropped spans");
      }
      last = since(t_pair);
    }
    for (const auto& [name, value] : reference) {
      if (name.find('.') == std::string::npos) continue;  // end-to-end
      metrics.emplace_back(name, value);
    }
    metrics.emplace_back("sim.events_per_s",
                         ledger_value(reference, "sim_events") / median(walls));
    metrics.insert(metrics.end(), phases.begin(), phases.end());
    const Ledger host = host_layer_ledger(in);
    metrics.insert(metrics.end(), host.begin(), host.end());
    metrics.emplace_back("obs.trace_overhead",
                         median(traced_walls) / median(walls) - 1.0);
  }

  if (in.tile()) {
    check_tile_data(in, errors);
  } else {
    check_flash_data(in, errors);
  }
  print_result(errors.empty(), attempted, failed, metrics, errors);
  return errors.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "tile_read|flash_write|tile_read_faults --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace dtio::perfbench

int main(int argc, char** argv) {
  using namespace dtio::perfbench;
  // The benchmark's seed is the only source of run variation.
  unsetenv("DTIO_SEED");
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage();
    }
  }
  Workload w;
  if (workload == "tile_read") {
    w = Workload::kTileRead;
  } else if (workload == "flash_write") {
    w = Workload::kFlashWrite;
  } else if (workload == "tile_read_faults") {
    w = Workload::kTileReadFaults;
  } else {
    return usage();
  }
  if ((argc - 1) % 2 != 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  try {
    return run(w, seed, seconds, trace == 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
