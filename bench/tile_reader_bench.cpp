// Reproduces the paper's tile-reader experiment:
//   Figure 8 — aggregate read bandwidth of the five access methods for a
//              3x2 display wall playing back 100 frames of 10.2 MB;
//   Table 1  — per-client I/O characteristics (desired, accessed, op
//              count, resent data).
//
// Configuration mirrors §4.1/§4.2: 16 I/O servers, 64 KiB strips, 6
// clients (one process per node), 4 MiB sieve/collective buffers.
//
// Flags (the ablations are off by default, so the report JSON is
// byte-identical to an ablation-free build; each ablation echoes its
// report scalars to stdout):
//   --frames=N          frames played back (default 100; 6 clients, fixed
//                       by the wall geometry)
//   --trace=PATH        Chrome trace of the datatype run
//   --csv               per-method bandwidth as csv lines on stdout
//   --chaos             fault-injection ablation
//   --overload          degraded-server tail-latency ablation and the
//                       overload convoy
//   --trace-overload=P  the convoy's Chrome trace (default
//                       trace_overload.json)
//   --cache             server buffer-cache cold/warm ablation
//   --replication       replicated-write and degraded-read ablation
//   --replication-r=N   its replicated arm's factor (default 2)
//   --media-faults      media-fault ablation (checksums, read repair, scrub),
//                       r=1 vs r=2
//   --json=PATH, --no-obs  report path, or no observability (bench_util.h)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "net/fault.h"
#include "obs/phase.h"
#include "workloads/tile.h"

namespace dtio {
namespace {

using bench::MethodResult;
using mpiio::Method;
using sim::Task;

/// Server-side counters summed over the fleet (pruned-expansion ablation).
struct ServerAgg {
  std::uint64_t regions_walked = 0;
  std::uint64_t my_pieces = 0;
  std::uint64_t subtrees_skipped = 0;
  std::uint64_t pieces_pruned = 0;
};

MethodResult run_tile(Method method, const workloads::TileConfig& tile,
                      int frames, bool use_obs,
                      const std::string& trace_path,
                      bool pruned_expansion = true,
                      ServerAgg* agg = nullptr) {
  net::ClusterConfig cfg;  // paper defaults: 16 servers, 64 KiB strips
  cfg.num_clients = tile.num_clients();
  cfg.server.pruned_expansion = pruned_expansion;
  obs::Observability obs(1 << 18);
  bench::Rig rig(cfg, use_obs ? &obs : nullptr);
  pfs::Cluster& cluster = rig.cluster;
  // The frame file's contents are irrelevant for read timing.
  const SimTime t0 = rig.create("/frames");
  int failures = 0;
  int unsupported = 0;
  for (int r = 0; r < cfg.num_clients; ++r) {
    cluster.scheduler().spawn(
        [](mpiio::File& f, coll::Communicator& c,
           const workloads::TileConfig& t, int rank, int nframes, Method m,
           int& fail, int& unsup) -> Task<void> {
          if (rank != 0) (void)co_await f.open("/frames", false);
          f.set_view(0, types::byte_t(), t.tile_filetype(rank));
          auto memtype = t.memtype();
          for (int frame = 0; frame < nframes; ++frame) {
            Status s = co_await f.read_at_all(
                c, rank, static_cast<std::int64_t>(frame) * t.tile_bytes(),
                nullptr, 1, memtype, m);
            if (s.code() == StatusCode::kUnsupported) {
              ++unsup;
              co_return;
            }
            if (!s.is_ok()) {
              ++fail;
              co_return;
            }
          }
        }(*rig.files[r], rig.comm, tile, r, frames, method, failures,
          unsupported));
  }
  cluster.run();

  MethodResult result;
  result.method = method;
  if (unsupported > 0) {
    result.supported = false;
    return result;
  }
  result.seconds = to_seconds(cluster.scheduler().now() - t0);
  const double desired_total = static_cast<double>(tile.tile_bytes()) *
                               tile.num_clients() * frames;
  result.bandwidth = desired_total / result.seconds;
  result.per_client = rig.clients[0]->stats();
  // Per-frame characteristics for Table 1.
  result.per_client.desired_bytes /= static_cast<std::uint64_t>(frames);
  result.per_client.accessed_bytes /= static_cast<std::uint64_t>(frames);
  result.per_client.io_ops /= static_cast<std::uint64_t>(frames);
  result.per_client.resent_bytes /= static_cast<std::uint64_t>(frames);
  result.per_client.request_bytes /= static_cast<std::uint64_t>(frames);
  result.events = cluster.scheduler().events_processed();
  if (agg != nullptr) {
    for (int s = 0; s < cfg.num_servers; ++s) {
      const pfs::ServerStats& st = cluster.server(s).stats();
      agg->regions_walked += st.regions_walked;
      agg->my_pieces += st.my_pieces;
      agg->subtrees_skipped += st.subtrees_skipped;
      agg->pieces_pruned += st.pieces_pruned;
    }
  }
  if (use_obs) {
    bench::capture_latency(result, obs);
    cluster.publish_metrics();
    if (!trace_path.empty() && cluster.write_trace(trace_path)) {
      std::printf("chrome trace (%s run): %s\n",
                  std::string(mpiio::method_name(method)).c_str(),
                  trace_path.c_str());
    }
  }
  return result;
}

/// One chaos-ablation run (--chaos): independent datatype-I/O tile reads
/// under the reliability layer. Independent (not collective) reads keep a
/// client that exhausts its retries from wedging everyone else's barrier,
/// so the retries-off arm can count failures instead of deadlocking.
struct ChaosRun {
  double seconds = 0;
  int failures = 0;
  std::uint64_t client_retries = 0;
  std::uint64_t client_timeouts = 0;
  std::uint64_t replays = 0;
  std::uint64_t crc_rejects = 0;
  std::uint64_t crashes = 0;
  std::uint64_t sheds = 0;
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t replies_dropped = 0;   ///< stale replies dropped at mailboxes
  std::uint64_t mailbox_residual = 0;  ///< messages still queued at the end
  net::FaultCounters faults;
};

ChaosRun run_tile_chaos(const workloads::TileConfig& tile, int frames,
                        bool with_faults, int max_attempts) {
  net::ClusterConfig cfg;  // paper defaults: 16 servers, 64 KiB strips
  cfg.num_clients = tile.num_clients();
  // Reliability layer armed in every arm (including fault-free, so the
  // slowdown ratio isolates the faults, not the retry machinery).
  cfg.client.rpc_timeout = 200 * kMillisecond;
  cfg.client.rpc_max_attempts = max_attempts;
  cfg.client.rpc_backoff_base = 10 * kMillisecond;
  // Overload layer armed too: hedged reads rescue dropped replies without
  // burning the 200 ms timeout, and the admission bound sheds the
  // synchronized retry burst that follows the crash restart. The bound is
  // above the steady-state burst depth (6 clients), so only retry pileups
  // trip it.
  cfg.client.hedge_quantile = 95;
  cfg.client.hedge_min_samples = 16;
  cfg.server.max_queue_depth = 8;
  bench::Rig rig(cfg);
  pfs::Cluster& cluster = rig.cluster;
  // Fixed plan: 5% drop + 2% duplicate + 1% corrupt on client<->server
  // links, plus one mid-run crash of server 3 (caches come back cold).
  net::FaultPlan plan(mix_seed(cluster.config().seed, 0xC4A05));
  if (with_faults) {
    net::FaultSpec spec;
    spec.drop = 0.05;
    spec.duplicate = 0.02;
    spec.corrupt = 0.01;
    plan.set_default_spec(spec);
    plan.set_scope_max_node(cluster.config().num_servers);
    cluster.set_fault_plan(&plan);
  }
  const SimTime t0 = rig.create("/frames");
  if (with_faults) {
    cluster.schedule_server_crash(3, t0 + 2 * kMillisecond,
                                  40 * kMillisecond);
  }
  ChaosRun out;
  for (int r = 0; r < cfg.num_clients; ++r) {
    cluster.scheduler().spawn(
        [](mpiio::File& f, const workloads::TileConfig& t, int rank,
           int nframes, int& fail) -> Task<void> {
          if (rank != 0) (void)co_await f.open("/frames", false);
          f.set_view(0, types::byte_t(), t.tile_filetype(rank));
          auto memtype = t.memtype();
          for (int frame = 0; frame < nframes; ++frame) {
            Status s = co_await f.read_at(
                static_cast<std::int64_t>(frame) * t.tile_bytes(), nullptr, 1,
                memtype, Method::kDatatype);
            if (!s.is_ok()) ++fail;
          }
        }(*rig.files[r], tile, r, frames, out.failures));
  }
  cluster.run();

  out.seconds = to_seconds(cluster.scheduler().now() - t0);
  for (const auto& c : rig.clients) {
    out.client_retries += c->rpc_retries();
    out.client_timeouts += c->rpc_timeouts();
    out.hedges_issued += c->hedges_issued();
    out.hedges_won += c->hedges_won();
  }
  for (int s = 0; s < cfg.num_servers; ++s) {
    const pfs::ServerStats& st = cluster.server(s).stats();
    out.replays += st.replays_suppressed;
    out.crc_rejects += st.crc_rejects;
    out.crashes += st.crashes;
    out.sheds += st.sheds_depth + st.sheds_bytes;
  }
  for (int node = 0; node < cluster.network().num_nodes(); ++node) {
    const sim::Mailbox& mb = cluster.network().mailbox(node);
    out.replies_dropped += mb.stats().replies_dropped;
    out.mailbox_residual += mb.queued();
  }
  out.faults = plan.counters();
  return out;
}

/// One arm of the --overload ablation: a single client doing open-loop
/// paced 16 KiB reads of a 2-server striped file while server 1 runs 4x
/// degraded for 150 ms. Reads are spawned at absolute times so a slow op
/// cannot shield the ops behind it from the window. Mirrors the
/// deterministic acceptance scenario in tests/overload_test.cpp.
struct OverloadArm {
  std::vector<SimTime> latencies;
  int failures = 0;
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t timeouts = 0;
};

OverloadArm run_overload_arm(bool hedging_on) {
  constexpr int kWarmupReads = 20;
  constexpr int kMeasuredReads = 100;
  constexpr SimTime kPace = 25 * kMillisecond;
  constexpr SimTime kWindow = 150 * kMillisecond;
  constexpr std::size_t kReadBytes = 16384;  // 8 KiB per server

  net::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 1;
  cfg.strip_size = 8192;
  cfg.client.rpc_timeout = 5 * kMillisecond;
  cfg.client.rpc_max_attempts = 10;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  // Bounded queues in both arms; sized above the single-client backlog so
  // admission control is armed but the ablation isolates hedging.
  cfg.server.max_queue_depth = 16;
  if (hedging_on) {
    cfg.client.hedge_quantile = 95;
    cfg.client.hedge_min_samples = 8;
    cfg.client.breaker_failures = 6;
    cfg.client.flow_window = 8;
  }
  pfs::Cluster cluster(cfg);
  // Degraded windows are deterministic (no RNG draws), so both arms see
  // the identical straggler regardless of seed.
  net::FaultPlan plan(mix_seed(cluster.config().seed, 0x0F7A11));
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);

  OverloadArm out;
  out.latencies.assign(kMeasuredReads, 0);

  // Phase 1: create, write, healthy warmup (arms the hedge quantile).
  std::uint64_t handle = 0;
  cluster.scheduler().spawn(
      [](pfs::Client& c, std::uint64_t& h, int& fail) -> Task<void> {
        std::vector<std::uint8_t> buf(kReadBytes, 0x5A);
        co_await bench::create_and_write(c, "/overload", buf, 1, h, fail);
        if (h == 0) co_return;
        for (int i = 0; i < kWarmupReads; ++i) {
          Status r = co_await c.read_contig(
              h, 0, buf.data(), static_cast<std::int64_t>(buf.size()));
          if (!r.is_ok()) ++fail;
        }
      }(*client, handle, out.failures));
  cluster.run();

  // Phase 2: server 1 degrades 4x for kWindow under paced reads.
  const SimTime t0 = cluster.scheduler().now() + 2 * kMillisecond;
  plan.add_degraded(/*node=*/1, t0, t0 + kWindow, 4.0);
  bench::paced_reads(cluster, *client, handle, kReadBytes, t0, kPace,
                     out.latencies, nullptr, &out.failures);

  out.hedges_issued = client->hedges_issued();
  out.hedges_won = client->hedges_won();
  out.timeouts = client->rpc_timeouts();
  return out;
}

/// One arm of the --cache ablation: datatype tile reads over the same
/// file twice. The populate pass writes the frames through the tile view
/// (giving the bstreams real extents so readahead has an EOF to clamp
/// against), every cache is flushed and dropped via a fleet-wide crash,
/// then a cold pass and a warm pass read identical data. With the cache
/// on the warm pass should be served almost entirely from memory.
struct CacheArm {
  double cold_seconds = 0;
  double warm_seconds = 0;
  std::uint64_t cold_disk = 0;
  std::uint64_t warm_disk = 0;
  int failures = 0;
  pfs::ServerStats totals;  // fleet-summed cache counters
};

CacheArm run_tile_cache(const workloads::TileConfig& tile, int frames,
                        bool cache_on) {
  net::ClusterConfig cfg;  // paper defaults: 16 servers, 64 KiB strips
  cfg.num_clients = tile.num_clients();
  if (cache_on) {
    cfg.server.cache_block_bytes = 64 * 1024;  // one strip per block
    cfg.server.cache_capacity_bytes = 256ull << 20;  // holds the dataset
  }
  bench::Rig rig(cfg);
  pfs::Cluster& cluster = rig.cluster;
  CacheArm out;
  // Populate: open everywhere, then write every frame through the view.
  for (int r = 0; r < cfg.num_clients; ++r) {
    cluster.scheduler().spawn(
        [](mpiio::File& f, const workloads::TileConfig& t, int rank,
           int nframes, int& fail) -> Task<void> {
          (void)co_await f.open("/frames", rank == 0);
          f.set_view(0, types::byte_t(), t.tile_filetype(rank));
          auto memtype = t.memtype();
          for (int frame = 0; frame < nframes; ++frame) {
            Status s = co_await f.write_at(
                static_cast<std::int64_t>(frame) * t.tile_bytes(), nullptr, 1,
                memtype, Method::kDatatype);
            if (!s.is_ok()) ++fail;
          }
        }(*rig.files[r], tile, r, frames, out.failures));
  }
  cluster.run();
  // Make the write pass durable, then drop every cache (a fleet-wide
  // crash+restart) so the first read pass is genuinely cold. Both arms
  // crash so their timelines stay comparable.
  cluster.flush_caches();
  const SimTime t_crash = cluster.scheduler().now() + kMillisecond;
  for (int s = 0; s < cfg.num_servers; ++s) {
    cluster.schedule_server_crash(s, t_crash, kMillisecond);
  }
  cluster.run();
  const std::uint64_t disk_after_populate =
      cluster.cache_stats_total().disk_accesses;

  auto read_pass = [&](double* seconds) {
    const SimTime t0 = cluster.scheduler().now();
    for (int r = 0; r < cfg.num_clients; ++r) {
      cluster.scheduler().spawn(
          [](mpiio::File& f, const workloads::TileConfig& t, int rank,
             int nframes, int& fail) -> Task<void> {
            f.set_view(0, types::byte_t(), t.tile_filetype(rank));
            auto memtype = t.memtype();
            for (int frame = 0; frame < nframes; ++frame) {
              Status s = co_await f.read_at(
                  static_cast<std::int64_t>(frame) * t.tile_bytes(), nullptr,
                  1, memtype, Method::kDatatype);
              if (!s.is_ok()) ++fail;
            }
          }(*rig.files[r], tile, r, frames, out.failures));
    }
    cluster.run();
    *seconds = to_seconds(cluster.scheduler().now() - t0);
  };
  read_pass(&out.cold_seconds);
  const std::uint64_t disk_after_cold =
      cluster.cache_stats_total().disk_accesses;
  read_pass(&out.warm_seconds);
  out.totals = cluster.cache_stats_total();
  out.cold_disk = disk_after_cold - disk_after_populate;
  out.warm_disk = out.totals.disk_accesses - disk_after_cold;
  return out;
}

/// One arm of the --replication ablation: a single client doing open-loop
/// paced 64 KiB reads of a 4-server striped file, first over a healthy
/// fleet (the latency baseline), then with server 1 crashed for the whole
/// degraded window. With replication on (r=2) every degraded read fails
/// over to server 1's replica on server 2; with it off, reads that need
/// server 1 burn their retries and fail. The breaker trips on the first
/// timeout and stays open past the outage, so exactly one degraded read
/// pays the full rpc_timeout before failing over — the rest fast-fail
/// straight to the replica and stay near the healthy baseline.
struct ReplicationArm {
  std::vector<SimTime> healthy;
  std::vector<SimTime> degraded;
  int degraded_ok = 0;
  int healthy_failures = 0;
  std::uint64_t failovers = 0;
  std::uint64_t quorum_writes = 0;
  std::uint64_t fast_fails = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t crashes = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t resync_bytes = 0;
};

ReplicationArm run_replication_arm(int replication) {
  constexpr int kHealthyReads = 100;
  constexpr int kDegradedReads = 100;
  constexpr SimTime kPace = 10 * kMillisecond;
  constexpr std::size_t kReadBytes = 16384;  // 4 KiB per server

  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 1;
  cfg.strip_size = 4096;
  cfg.replication = replication;
  // Timeout below the read pace, so the breaker (tripped by the first
  // degraded read's timeout) is already open when the next read issues —
  // exactly one read pays the full timeout before failing over.
  cfg.client.rpc_timeout = 7 * kMillisecond;
  cfg.client.rpc_max_attempts = 4;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  cfg.client.breaker_failures = 1;
  cfg.client.breaker_open_duration = 2 * kSecond;  // outlives the outage
  // Write-back cache so the crash actually loses dirty bytes and the
  // restart resync has something to pull back from the replicas.
  cfg.server.cache_block_bytes = 4096;
  cfg.server.cache_capacity_bytes = 64 * 4096;
  cfg.server.cache_dirty_watermark = 1.0;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);

  ReplicationArm out;
  out.healthy.assign(kHealthyReads, 0);
  out.degraded.assign(kDegradedReads, 0);

  // Create + write one stripe-spanning block (quorum-replicated at r>1).
  const std::vector<std::uint8_t> block(kReadBytes, 0x5A);
  std::uint64_t handle = 0;
  cluster.scheduler().spawn(bench::create_and_write(
      *client, "/repl", block, 1, handle, out.healthy_failures));
  cluster.run();

  // Phase 1: healthy baseline.
  bench::paced_reads(cluster, *client, handle, kReadBytes,
                     cluster.scheduler().now() + kMillisecond, kPace,
                     out.healthy, nullptr, &out.healthy_failures);

  // Phase 2: server 1 down for the entire degraded window, then restart
  // (which triggers resync at r>1); the run drains through recovery.
  const SimTime t_deg = cluster.scheduler().now() + 2 * kMillisecond;
  const SimTime outage = kDegradedReads * kPace + 100 * kMillisecond;
  cluster.schedule_server_crash(1, t_deg - kMillisecond, outage);
  bench::paced_reads(cluster, *client, handle, kReadBytes, t_deg, kPace,
                     out.degraded, &out.degraded_ok, nullptr);

  out.failovers = client->read_failovers();
  out.quorum_writes = client->quorum_writes();
  out.fast_fails = client->breaker_fast_fails();
  out.timeouts = client->rpc_timeouts();
  const pfs::ServerStats totals = cluster.cache_stats_total();
  out.resyncs = totals.resyncs;
  out.resync_bytes = totals.resync_bytes_pulled;
  for (int s = 0; s < cfg.num_servers; ++s) {
    out.crashes += cluster.server(s).stats().crashes;
  }
  return out;
}

/// One arm of the --media-faults ablation: every even-indexed server's
/// disk silently rots 0.5% of written strips and poisons 0.2% as latent
/// sector errors, with per-page checksums and the background scrubber
/// on. A 32 MiB file
/// is written in 1 MiB chunks and read back chunk by chunk. At r=2 every
/// read must detect, repair from a ring replica, and return exact bytes —
/// and by the time the run drains the scrubber has converged every store
/// (primary and replica segments) back to verifiably clean. At r=1 the
/// same faults surface as typed kDataLoss on exactly the affected chunks;
/// the client's data_loss_fast_fail stops it from burning the retry
/// budget against an error that cannot clear.
struct MediaArm {
  int reads_ok = 0;
  int reads_lost = 0;
  int other_failures = 0;
  std::uint64_t pages_rotted = 0;
  std::uint64_t pages_poisoned = 0;
  std::uint64_t detected = 0;       ///< pages flagged by read or scrub verify
  std::uint64_t repairs = 0;        ///< read-path + scrub strip repairs
  std::uint64_t server_data_loss = 0;
  std::uint64_t client_data_loss = 0;
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_blocks = 0;
  std::uint64_t scrub_errors = 0;
  std::uint64_t residual_bad_pages = 0;  ///< pages still failing verify at end
};

MediaArm run_media_arm(int replication) {
  constexpr int kChunks = 32;
  constexpr std::int64_t kChunkBytes = 1 << 20;  // 1 MiB

  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 1;
  cfg.strip_size = 4096;
  cfg.replication = replication;
  // A 1 MiB chunk takes ~90 ms on the 11.5 MiB/s client link (twice that
  // with a replica fan-out), so the timeout must sit well above it.
  cfg.client.rpc_timeout = kSecond;
  cfg.client.rpc_max_attempts = 5;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  cfg.client.data_loss_fast_fail = 2;
  cfg.server.block_checksums = true;
  cfg.server.scrub_interval = 10 * kMillisecond;
  pfs::Cluster cluster(cfg);
  // Rotting disks on the even-indexed servers only: with ring replication
  // a strip's primary and its replica land on adjacent servers, so no
  // strip ever loses both copies — the repair path is exercised hard but
  // r=2 can (and must) hold 100% read success. Per-strip write granularity
  // means the per-page corruption density is ~16x the per-write rate.
  net::FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xD15C));
  for (int s = 0; s < cfg.num_servers; s += 2) {
    plan.set_disk_spec(s, net::DiskFaultSpec{.bit_rot = 0.005,
                                             .sector_error = 0.002});
  }
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);

  MediaArm out;
  std::vector<std::uint8_t> chunk(static_cast<std::size_t>(kChunkBytes));
  Rng fill(4096);
  for (auto& b : chunk) b = static_cast<std::uint8_t>(fill.next());
  std::uint64_t handle = 0;
  cluster.scheduler().spawn(bench::create_and_write(
      *client, "/media", chunk, kChunks, handle, out.other_failures));
  cluster.run();

  cluster.scheduler().spawn(
      [](pfs::Client& c, std::uint64_t h, int& ok, int& lost,
         int& fail) -> Task<void> {
        std::vector<std::uint8_t> buf(static_cast<std::size_t>(kChunkBytes));
        for (int chunk = 0; chunk < kChunks; ++chunk) {
          Status r = co_await c.read_contig(h, chunk * kChunkBytes,
                                            buf.data(), kChunkBytes);
          if (r.is_ok()) {
            ++ok;
          } else if (r.code() == StatusCode::kDataLoss) {
            ++lost;
          } else {
            ++fail;
          }
        }
      }(*client, handle, out.reads_ok, out.reads_lost, out.other_failures));
  cluster.run();  // drains through the scrubber's final clean cycle

  const pfs::ServerStats totals = cluster.cache_stats_total();
  out.detected = totals.media_sector_errors + totals.media_bit_rot_detected +
                 totals.media_torn_detected;
  out.repairs = totals.media_repairs + totals.scrub_repairs;
  out.server_data_loss = totals.media_data_loss;
  out.client_data_loss = client->data_loss_surfaced();
  out.scrub_passes = totals.scrub_passes;
  out.scrub_blocks = totals.scrub_blocks;
  out.scrub_errors = totals.scrub_errors;
  for (int s = 0; s < cfg.num_servers; ++s) {
    out.pages_rotted += cluster.server(s).media().pages_rotted;
    out.pages_poisoned += cluster.server(s).media().pages_poisoned;
    if (const pfs::Bstream* bs = cluster.server(s).find_bstream(handle)) {
      out.residual_bad_pages += bs->verify_range(0, bs->size()).size();
    }
    for (int p = 0; p < cfg.num_servers; ++p) {
      if (const pfs::Bstream* bs =
              cluster.server(s).find_replica_bstream(handle, p)) {
        out.residual_bad_pages += bs->verify_range(0, bs->size()).size();
      }
    }
  }
  return out;
}

/// The instrumented convoy scenario (--overload): 8 clients in a closed
/// loop hammering one decode-bound server (request_overhead raised to
/// 2 ms) with small contiguous reads. The server's mailbox backs up, so
/// nearly all of each op's latency is queue-wait — the canonical case for
/// phase attribution. Runs with the timeline sampler on (1 ms period) and
/// exports trace_overload.json; CI feeds that trace to dtio_inspect and
/// gates on >= 95% typed-phase coverage at p99 with server_queue dominant.
struct ConvoyRun {
  double seconds = 0;
  int failures = 0;
  obs::PhaseReport phases;       ///< contig_read ops only
  double queue_peak = 0;         ///< server 0 mailbox depth high-water mark
  std::uint64_t timeline_series = 0;
};

ConvoyRun run_overload_convoy(obs::Observability& obs,
                              const std::string& trace_path) {
  constexpr int kClients = 8;
  constexpr int kReadsPerClient = 30;
  constexpr std::size_t kReadBytes = 4096;

  net::ClusterConfig cfg;
  cfg.num_servers = 1;
  cfg.num_clients = kClients;
  cfg.server.request_overhead = 2 * kMillisecond;  // decode-bound server
  // A per-attempt deadline ~50x any convoy queue wait, so no attempt ever
  // retries. Kept small because each pending receive timer extends the
  // post-run event drain (and thus the sampled window) by one timeout.
  cfg.client.rpc_timeout = kSecond;
  cfg.client.rpc_max_attempts = 1;

  pfs::Cluster cluster(cfg);
  cluster.set_observability(&obs);
  std::vector<std::unique_ptr<pfs::Client>> clients;
  for (int r = 0; r < kClients; ++r) clients.push_back(cluster.make_client(r));

  ConvoyRun out;
  const std::vector<std::uint8_t> block(kReadBytes, 0x5A);
  std::uint64_t handle = 0;
  cluster.scheduler().spawn(bench::create_and_write(
      *clients[0], "/convoy", block, 1, handle, out.failures));
  cluster.run();

  const SimTime t0 = cluster.scheduler().now();
  for (int r = 0; r < kClients; ++r) {
    cluster.scheduler().spawn(
        [](pfs::Client& c, std::uint64_t h, int& fail) -> Task<void> {
          std::vector<std::uint8_t> buf(kReadBytes);
          for (int i = 0; i < kReadsPerClient; ++i) {
            Status s = co_await c.read_contig(
                h, 0, buf.data(), static_cast<std::int64_t>(buf.size()));
            if (!s.is_ok()) ++fail;
          }
        }(*clients[r], handle, out.failures));
  }
  cluster.run();
  out.seconds = to_seconds(cluster.scheduler().now() - t0);

  if (!trace_path.empty() && cluster.write_trace(trace_path)) {
    std::printf("chrome trace (overload convoy): %s\n", trace_path.c_str());
  }
  std::vector<obs::OpBreakdown> ops = obs::decompose_ops(obs.spans);
  std::erase_if(ops, [](const obs::OpBreakdown& op) {
    return op.name != "contig_read";
  });
  out.phases = obs::summarize_phases(std::move(ops));
  for (const auto& series : obs.timeline.all()) {
    ++out.timeline_series;
    if (series->name() == "queue_depth" && series->node() == 0) {
      out.queue_peak = series->peak_value();
    }
  }
  return out;
}

/// Nearest-rank percentile over the raw latency samples (exact, not the
/// log-linear histogram estimate).
SimTime percentile_exact(std::vector<SimTime> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::max<std::int64_t>(
      0, static_cast<std::int64_t>(
             p / 100.0 * static_cast<double>(v.size()) + 0.5) -
             1));
  return v[std::min(rank, v.size() - 1)];
}

int tile_main(int argc, char** argv) {
  const workloads::TileConfig tile;
  const int frames =
      static_cast<int>(bench::flag_int(argc, argv, "--frames", 100));
  const bool use_obs = bench::obs_enabled(argc, argv);
  // --trace=PATH exports the datatype-I/O run as a Chrome trace-event
  // file (the paper's contribution is the most interesting timeline).
  const std::string trace_path = bench::flag_str(argc, argv, "--trace", "");

  std::printf("tile reader: %dx%d tiles of %dx%d px, frame %.1f MB, "
              "%d frames, %d clients, 16 I/O servers\n",
              tile.tiles_x, tile.tiles_y, tile.tile_width, tile.tile_height,
              bench::to_mb(static_cast<double>(tile.frame_bytes())), frames,
              tile.num_clients());

  const Method methods[] = {Method::kPosix, Method::kDataSieving,
                            Method::kTwoPhase, Method::kList,
                            Method::kDatatype};
  std::vector<MethodResult> results;
  for (const Method m : methods) {
    results.push_back(run_tile(m, tile, frames, use_obs,
                               m == Method::kDatatype ? trace_path : ""));
  }

  bench::print_figure_header(
      "Figure 8: tile reader aggregate read bandwidth");
  for (const auto& r : results) bench::print_figure_row(r);
  std::printf("  paper shape: datatype > two-phase > list >> sieving > "
              "POSIX; datatype ~37%% over list\n");

  if (bench::flag_set(argc, argv, "--csv")) {
    std::printf("\ncsv,method,agg_mbps,sim_sec\n");
    for (const auto& r : results) {
      if (!r.supported) continue;
      std::printf("csv,%s,%.3f,%.3f\n",
                  std::string(mpiio::method_name(r.method)).c_str(),
                  bench::to_mb(r.bandwidth), r.seconds);
    }
  }

  bench::print_table_header(
      "Table 1: I/O characteristics per client per frame");
  for (const auto& r : results) bench::print_table_row(r);
  std::printf("  paper: POSIX 768 ops; sieving 5.56 MB accessed; two-phase "
              "1 op, 1.50 MB resent; list 12 ops; datatype 1 op\n");

  obs::RunReport report;
  report.bench = "tile_reader";
  report.params["frames"] = frames;
  report.params["clients"] = tile.num_clients();
  report.params["frame_bytes"] = static_cast<double>(tile.frame_bytes());
  for (const auto& r : results) report.methods.push_back(bench::to_report(r));

  // Pruned-expansion ablation at the paper configuration (16 servers,
  // 64 KiB strips): the same datatype run with server-side subtree pruning
  // on (default) and off (legacy full expansion). Fleet-aggregate
  // regions_walked is the cost the pruning removes: with the flag off
  // every server walks every piece of the access.
  ServerAgg pruned_on;
  ServerAgg pruned_off;
  const MethodResult on_result =
      run_tile(Method::kDatatype, tile, frames, false, "", true, &pruned_on);
  const MethodResult off_result =
      run_tile(Method::kDatatype, tile, frames, false, "", false, &pruned_off);
  report.scalars["pruned_on_regions_walked"] =
      static_cast<double>(pruned_on.regions_walked);
  report.scalars["pruned_off_regions_walked"] =
      static_cast<double>(pruned_off.regions_walked);
  report.scalars["pruned_regions_walked_ratio"] =
      pruned_on.regions_walked == 0
          ? 0.0
          : static_cast<double>(pruned_off.regions_walked) /
                static_cast<double>(pruned_on.regions_walked);
  report.scalars["pruned_on_my_pieces"] =
      static_cast<double>(pruned_on.my_pieces);
  report.scalars["pruned_on_subtrees_skipped"] =
      static_cast<double>(pruned_on.subtrees_skipped);
  report.scalars["pruned_on_pieces_pruned"] =
      static_cast<double>(pruned_on.pieces_pruned);
  report.scalars["pruned_on_sim_seconds"] = on_result.seconds;
  report.scalars["pruned_off_sim_seconds"] = off_result.seconds;
  std::printf("\nablation: server.pruned_expansion (datatype method)\n");
  bench::print_scalars(report, "pruned_");

  // Fault-injection ablation (--chaos): datatype reads under 5% drop + 2%
  // duplicate + 1% corrupt + one server crash, with retries on vs off.
  // Gated so the default report stays byte-identical.
  if (bench::flag_set(argc, argv, "--chaos")) {
    const ChaosRun clean = run_tile_chaos(tile, frames, false, 6);
    const ChaosRun faulty = run_tile_chaos(tile, frames, true, 6);
    const ChaosRun noretry = run_tile_chaos(tile, frames, true, 1);
    report.scalars["chaos_clean_sim_seconds"] = clean.seconds;
    report.scalars["chaos_clean_timeouts"] =
        static_cast<double>(clean.client_timeouts);
    report.scalars["chaos_sim_seconds"] = faulty.seconds;
    report.scalars["chaos_slowdown"] =
        clean.seconds == 0 ? 0.0 : faulty.seconds / clean.seconds;
    report.scalars["chaos_failures"] = faulty.failures;
    report.scalars["chaos_retries"] =
        static_cast<double>(faulty.client_retries);
    report.scalars["chaos_timeouts"] =
        static_cast<double>(faulty.client_timeouts);
    report.scalars["chaos_replays"] = static_cast<double>(faulty.replays);
    report.scalars["chaos_crc_rejects"] =
        static_cast<double>(faulty.crc_rejects);
    report.scalars["chaos_crashes"] = static_cast<double>(faulty.crashes);
    report.scalars["chaos_faults_injected"] =
        static_cast<double>(faulty.faults.total());
    report.scalars["chaos_dropped"] =
        static_cast<double>(faulty.faults.dropped);
    report.scalars["chaos_noretry_failures"] = noretry.failures;
    report.scalars["chaos_sheds"] = static_cast<double>(faulty.sheds);
    report.scalars["chaos_hedges_issued"] =
        static_cast<double>(faulty.hedges_issued);
    report.scalars["chaos_hedges_won"] =
        static_cast<double>(faulty.hedges_won);
    report.scalars["chaos_replies_dropped"] =
        static_cast<double>(faulty.replies_dropped);
    report.scalars["chaos_mailbox_residual"] =
        static_cast<double>(faulty.mailbox_residual);
    std::printf("\nchaos ablation: datatype reads, %d frames x %d clients, "
                "5%% drop + 2%% dup + 1%% corrupt + server 3 crash; "
                "fault-free (clean_*), retries on, retries off (noretry_*)\n",
                frames, tile.num_clients());
    bench::print_scalars(report, "chaos_");
  }

  // Tail-latency ablation (--overload): the same degraded-server scenario
  // with the overload layer (hedged reads + circuit breaker + AIMD
  // window) on vs off. Gated so the default report stays byte-identical.
  if (bench::flag_set(argc, argv, "--overload")) {
    const OverloadArm off = run_overload_arm(false);
    const OverloadArm on = run_overload_arm(true);
    const SimTime p99_off = percentile_exact(off.latencies, 99);
    const SimTime p99_on = percentile_exact(on.latencies, 99);
    report.scalars["overload_off_read_p50_us"] =
        percentile_exact(off.latencies, 50) / 1e3;
    report.scalars["overload_off_read_p99_us"] = p99_off / 1e3;
    report.scalars["overload_off_read_p999_us"] =
        percentile_exact(off.latencies, 99.9) / 1e3;
    report.scalars["overload_on_read_p50_us"] =
        percentile_exact(on.latencies, 50) / 1e3;
    report.scalars["overload_on_read_p99_us"] = p99_on / 1e3;
    report.scalars["overload_on_read_p999_us"] =
        percentile_exact(on.latencies, 99.9) / 1e3;
    report.scalars["overload_p99_ratio"] =
        p99_on == 0 ? 0.0
                    : static_cast<double>(p99_off) /
                          static_cast<double>(p99_on);
    report.scalars["overload_off_hedges_issued"] =
        static_cast<double>(off.hedges_issued);
    report.scalars["overload_on_hedges_issued"] =
        static_cast<double>(on.hedges_issued);
    report.scalars["overload_on_hedges_won"] =
        static_cast<double>(on.hedges_won);
    report.scalars["overload_off_timeouts"] =
        static_cast<double>(off.timeouts);
    report.scalars["overload_on_timeouts"] = static_cast<double>(on.timeouts);
    report.scalars["overload_failures"] = off.failures + on.failures;

    // Instrumented convoy: where does the time go when one server backs
    // up? Timeline sampler on (1 ms), full phase attribution, Chrome
    // trace exported for dtio_inspect.
    obs::ObsConfig obs_cfg;
    obs_cfg.sample_period = kMillisecond;
    obs_cfg.timeline_capacity = 8192;  // whole run retained, zero dropped
    obs::Observability convoy_obs(obs_cfg);
    const std::string convoy_trace =
        bench::flag_str(argc, argv, "--trace-overload", "trace_overload.json");
    const ConvoyRun convoy =
        run_overload_convoy(convoy_obs, use_obs ? convoy_trace : "");
    const obs::PhaseQuantile* cp99 = convoy.phases.quantile(99);
    report.scalars["overload_convoy_ops"] =
        static_cast<double>(convoy.phases.ops);
    report.scalars["overload_convoy_sim_seconds"] = convoy.seconds;
    report.scalars["overload_convoy_failures"] = convoy.failures;
    report.scalars["overload_convoy_queue_peak"] = convoy.queue_peak;
    if (cp99 != nullptr) {
      report.scalars["overload_convoy_p99_ms"] = cp99->latency_ns / 1e6;
      report.scalars["overload_convoy_coverage_p99"] = cp99->coverage;
      report.scalars["overload_convoy_queue_share_p99"] =
          cp99->latency_ns <= 0
              ? 0.0
              : cp99->phase_ns[static_cast<std::size_t>(
                    obs::Phase::kServerQueue)] /
                    cp99->latency_ns;
    }
    report.phases.emplace_back("contig_read", convoy.phases);
    report.add_timeline(convoy_obs.timeline);
    std::printf("\noverload ablation: 100 paced 16 KiB reads, server 1 "
                "degraded 4x for 150 ms, hedging off vs on; convoy of 8 "
                "clients on 1 server with 2 ms decode (p99 dominant: %s)\n",
                cp99 != nullptr ? obs::phase_name(cp99->dominant) : "none");
    bench::print_scalars(report, "overload_");
  }

  // Buffer-cache ablation (--cache): the same datatype tile reads with
  // the server block cache on (64 KiB blocks, 256 MiB/server) vs off,
  // each as a cold pass then a warm pass over identical data. Gated so
  // the default report stays byte-identical.
  if (bench::flag_set(argc, argv, "--cache")) {
    const CacheArm off = run_tile_cache(tile, frames, false);
    const CacheArm on = run_tile_cache(tile, frames, true);
    const std::uint64_t lookups = on.totals.cache_hits + on.totals.cache_misses;
    report.scalars["cache_off_cold_disk_accesses"] =
        static_cast<double>(off.cold_disk);
    report.scalars["cache_off_warm_disk_accesses"] =
        static_cast<double>(off.warm_disk);
    report.scalars["cache_on_cold_disk_accesses"] =
        static_cast<double>(on.cold_disk);
    report.scalars["cache_on_warm_disk_accesses"] =
        static_cast<double>(on.warm_disk);
    report.scalars["cache_warm_disk_access_ratio"] =
        static_cast<double>(off.warm_disk) /
        static_cast<double>(std::max<std::uint64_t>(on.warm_disk, 1));
    report.scalars["cache_on_hits"] = static_cast<double>(on.totals.cache_hits);
    report.scalars["cache_on_misses"] =
        static_cast<double>(on.totals.cache_misses);
    report.scalars["cache_on_hit_ratio"] =
        lookups == 0 ? 0.0
                     : static_cast<double>(on.totals.cache_hits) /
                           static_cast<double>(lookups);
    report.scalars["cache_on_readahead_issued"] =
        static_cast<double>(on.totals.cache_readahead_issued);
    report.scalars["cache_on_evictions"] =
        static_cast<double>(on.totals.cache_evictions);
    report.scalars["cache_on_dirty_flushed_bytes"] =
        static_cast<double>(on.totals.cache_dirty_flushed_bytes);
    report.scalars["cache_failures"] = off.failures + on.failures;
    std::printf("\ncache ablation: datatype reads, %d frames x %d clients, "
                "cold pass then warm pass, cache off vs on\n",
                frames, tile.num_clients());
    bench::print_scalars(report, "cache_");
  }

  // Degraded-read ablation (--replication): open-loop paced reads with one
  // server crashed for the whole window, replication off (r=1) vs on
  // (r=2). Gated so the default report stays byte-identical. CI asserts
  // 100% read availability under r=2 with degraded p99 within 3x of the
  // healthy baseline.
  if (bench::flag_set(argc, argv, "--replication")) {
    // --replication-r=N sets the replicated arm's factor (CI pins 1, 2 and
    // 3 against goldens; N=1 degenerates to a second unreplicated arm that
    // must reproduce the baseline arm exactly).
    const int repl_r = static_cast<int>(
        bench::flag_int(argc, argv, "--replication-r", 2));
    const ReplicationArm off = run_replication_arm(1);
    const ReplicationArm on = run_replication_arm(repl_r);
    const SimTime on_healthy_p99 = percentile_exact(on.healthy, 99);
    const SimTime on_degraded_p99 = percentile_exact(on.degraded, 99);
    report.scalars["repl_factor"] = repl_r;
    report.scalars["repl_off_read_availability"] =
        static_cast<double>(off.degraded_ok) /
        static_cast<double>(off.degraded.size());
    report.scalars["repl_on_read_availability"] =
        static_cast<double>(on.degraded_ok) /
        static_cast<double>(on.degraded.size());
    report.scalars["repl_off_degraded_p99_us"] =
        percentile_exact(off.degraded, 99) / 1e3;
    report.scalars["repl_on_healthy_p99_us"] = on_healthy_p99 / 1e3;
    report.scalars["repl_on_degraded_p99_us"] = on_degraded_p99 / 1e3;
    report.scalars["repl_on_degraded_p99_ratio"] =
        on_healthy_p99 == 0 ? 0.0
                            : static_cast<double>(on_degraded_p99) /
                                  static_cast<double>(on_healthy_p99);
    report.scalars["repl_on_read_failovers"] =
        static_cast<double>(on.failovers);
    report.scalars["repl_on_breaker_fast_fails"] =
        static_cast<double>(on.fast_fails);
    report.scalars["repl_on_quorum_writes"] =
        static_cast<double>(on.quorum_writes);
    report.scalars["repl_on_resyncs"] = static_cast<double>(on.resyncs);
    report.scalars["repl_on_resync_bytes_pulled"] =
        static_cast<double>(on.resync_bytes);
    report.scalars["repl_crashes"] =
        static_cast<double>(off.crashes + on.crashes);
    report.scalars["repl_healthy_failures"] =
        off.healthy_failures + on.healthy_failures;
    std::printf("\nreplication ablation: 100 paced 16 KiB reads, server 1 "
                "crashed for the window, r=1 (off) vs r=%d (on)\n",
                repl_r);
    bench::print_scalars(report, "repl_");
  }

  // Storage-integrity ablation (--media-faults): 32 MiB written and read
  // back under 0.5% bit rot + 0.2% latent sector errors on every disk,
  // with checksums and the scrubber on, r=1 vs r=2. Gated so the default
  // report stays byte-identical. CI asserts 100% read success and zero
  // residual bad pages at r=2, and typed-loss accounting (every lost read
  // booked as kDataLoss on both sides) at r=1.
  if (bench::flag_set(argc, argv, "--media-faults")) {
    constexpr int kMediaR = 2;
    const MediaArm off = run_media_arm(1);
    const MediaArm on = run_media_arm(kMediaR);
    report.scalars["media_factor"] = kMediaR;
    report.scalars["media_off_reads_ok"] = off.reads_ok;
    report.scalars["media_off_reads_lost"] = off.reads_lost;
    report.scalars["media_off_pages_rotted"] =
        static_cast<double>(off.pages_rotted);
    report.scalars["media_off_pages_poisoned"] =
        static_cast<double>(off.pages_poisoned);
    report.scalars["media_off_detected"] = static_cast<double>(off.detected);
    report.scalars["media_off_server_data_loss"] =
        static_cast<double>(off.server_data_loss);
    report.scalars["media_off_client_data_loss"] =
        static_cast<double>(off.client_data_loss);
    report.scalars["media_off_scrub_errors"] =
        static_cast<double>(off.scrub_errors);
    report.scalars["media_off_residual_bad_pages"] =
        static_cast<double>(off.residual_bad_pages);
    report.scalars["media_on_reads_ok"] = on.reads_ok;
    report.scalars["media_on_reads_lost"] = on.reads_lost;
    report.scalars["media_on_pages_rotted"] =
        static_cast<double>(on.pages_rotted);
    report.scalars["media_on_pages_poisoned"] =
        static_cast<double>(on.pages_poisoned);
    report.scalars["media_on_detected"] = static_cast<double>(on.detected);
    report.scalars["media_on_repairs"] = static_cast<double>(on.repairs);
    report.scalars["media_on_server_data_loss"] =
        static_cast<double>(on.server_data_loss);
    report.scalars["media_on_client_data_loss"] =
        static_cast<double>(on.client_data_loss);
    report.scalars["media_on_scrub_passes"] =
        static_cast<double>(on.scrub_passes);
    report.scalars["media_on_scrub_blocks"] =
        static_cast<double>(on.scrub_blocks);
    report.scalars["media_on_residual_bad_pages"] =
        static_cast<double>(on.residual_bad_pages);
    report.scalars["media_failures"] = off.other_failures + on.other_failures;
    std::printf("\nmedia-fault ablation: 32 MiB, 0.5%% bit rot + 0.2%% LSE "
                "on even-indexed disks, checksums + scrub on, r=1 (off) vs "
                "r=%d (on)\n",
                kMediaR);
    bench::print_scalars(report, "media_");
  }

  bench::write_report(report, argc, argv, "BENCH_tile_reader.json");
  return 0;
}

}  // namespace
}  // namespace dtio

int main(int argc, char** argv) { return dtio::tile_main(argc, argv); }
