// Reproduces the paper's tile-reader experiment:
//   Figure 8 — aggregate read bandwidth of the five access methods for a
//              3x2 display wall playing back 100 frames of 10.2 MB;
//   Table 1  — per-client I/O characteristics (desired, accessed, op
//              count, resent data).
//
// Configuration mirrors §4.1/§4.2: 16 I/O servers, 64 KiB strips, 6
// clients (one process per node), 4 MiB sieve/collective buffers.
//
// Every run also carries the pruned-expansion ablation; --scenario=NAME
// adds one more (bench/scenario.h), whose scalars join the report and are
// echoed to stdout, and whose asserts make the bench exit 1 on failure.
//
// Flags:
//   --frames=N          frames played back (default 100; 6 clients, fixed
//                       by the wall geometry)
//   --trace=PATH        Chrome trace of the datatype run
//   --csv               per-method bandwidth as csv lines on stdout
//   --scenario=NAME     chaos, overload, cache, replication,
//                       replication_r1, replication_r3 or media_faults
//   --trace-overload=P  the overload convoy's Chrome trace (default
//                       trace_overload.json)
//   --json=PATH, --no-obs  report path, or no observability (bench_util.h)
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/scenario.h"
#include "obs/phase.h"

namespace dtio {
namespace {

using bench::Job;
using bench::Scenario;
using bench::Step;
using mpiio::Method;
using enum Step::Kind;

/// Tile reads of every frame by every rank, independent (not collective):
/// a client that exhausts its retries cannot wedge the others' barrier.
Job independent_tile(const workloads::TileConfig& tile, int frames,
                     bool write = false, Job::Open open = Job::Open::kOthers) {
  Job job = bench::tile_job(tile, frames);
  job.write = write;
  job.collective = false;
  job.open = open;
  return job;
}

/// Pruned expansion at the paper configuration (16 servers, 64 KiB
/// strips): the datatype run with server-side subtree pruning on
/// (default) and off (full expansion). Fleet regions_walked is the cost
/// the pruning removes.
Scenario pruned(const workloads::TileConfig& tile, int frames) {
  Scenario s{"pruned", "server.pruned_expansion (datatype method)"};
  for (const bool on : {true, false}) {
    s.arms.push_back(
        {.name = on ? "on" : "off",
         .config = {.num_clients = tile.num_clients(),
                    .server = {.pruned_expansion = on}},
         .steps = {{.kind = kCreate, .path = "/frames"},
                   {.name = "read", .job = bench::tile_job(tile, frames)}}});
  }
  s.scalars = {
      {"pruned_on_regions_walked", {"on.regions_walked"}},
      {"pruned_off_regions_walked", {"off.regions_walked"}},
      {"pruned_regions_walked_ratio", {"off.regions_walked"},
       {"on.regions_walked"}},
      {"pruned_on_my_pieces", {"on.my_pieces"}},
      {"pruned_on_subtrees_skipped", {"on.subtrees_skipped"}},
      {"pruned_on_pieces_pruned", {"on.pieces_pruned"}},
      {"pruned_on_sim_seconds", {"on.read.seconds"}},
      {"pruned_off_sim_seconds", {"off.read.seconds"}},
  };
  s.checks = {
      {"pruned_regions_walked_ratio", ">=", 4},
      {"pruned_on_subtrees_skipped", ">", 0},
  };
  return s;
}

/// Independent datatype reads under 5% drop + 2% duplicate + 1% corrupt on
/// client<->server links and one mid-run crash of server 3, with the
/// reliability and overload layers armed in every arm (so the fault-free
/// arm isolates the faults, not the retry machinery): fault-free, retries
/// on, retries off. Hedged reads rescue dropped replies without burning
/// the 200 ms timeout; the admission bound (above the 6-client burst)
/// sheds only the retry pileup after the restart.
Scenario chaos(const workloads::TileConfig& tile, int frames) {
  Scenario s{"chaos",
             "datatype reads, " + std::to_string(frames) +
                 " frames x 6 clients, 5% drop + 2% dup + 1% corrupt + "
                 "server 3 crash; fault-free (clean_*), retries on, "
                 "retries off (noretry_*)"};
  for (const std::string name : {"clean", "faulty", "noretry"}) {
    const bool faults = name != "clean";
    std::vector<bench::Outage> crash;
    if (faults) crash = {{3, 2 * kMillisecond, 40 * kMillisecond}};
    s.arms.push_back(
        {.name = name,
         .config = {.num_clients = tile.num_clients(),
                    .server = {.max_queue_depth = 8},
                    .client = {.rpc_timeout = 200 * kMillisecond,
                               .rpc_max_attempts = name == "noretry" ? 1 : 6,
                               .rpc_backoff_base = 10 * kMillisecond,
                               .hedge_quantile = 95,
                               .hedge_min_samples = 16}},
         .fault_salt = faults ? 0xC4A05u : 0,
         .wire = {.drop = 0.05, .duplicate = 0.02, .corrupt = 0.01},
         .steps = {{.kind = kCreate, .path = "/frames"},
                   {.name = "read",
                    .job = independent_tile(tile, frames),
                    .outages = crash}}});
  }
  s.scalars = {
      {"chaos_clean_sim_seconds", {"clean.read.seconds"}},
      {"chaos_clean_timeouts", {"clean.rpc_timeouts"}},
      {"chaos_sim_seconds", {"faulty.read.seconds"}},
      {"chaos_slowdown", {"faulty.read.seconds"}, {"clean.read.seconds"}},
      {"chaos_failures", {"faulty.read.failed"}},
      {"chaos_retries", {"faulty.rpc_retries"}},
      {"chaos_timeouts", {"faulty.rpc_timeouts"}},
      {"chaos_replays", {"faulty.replays_suppressed"}},
      {"chaos_crc_rejects", {"faulty.crc_rejects"}},
      {"chaos_crashes", {"faulty.crashes"}},
      {"chaos_faults_injected", {"faulty.faults_injected"}},
      {"chaos_dropped", {"faulty.faults_dropped"}},
      {"chaos_noretry_failures", {"noretry.read.failed"}},
      {"chaos_sheds", {"faulty.sheds_depth", "faulty.sheds_bytes"}},
      {"chaos_hedges_issued", {"faulty.hedges_issued"}},
      {"chaos_hedges_won", {"faulty.hedges_won"}},
      {"chaos_replies_dropped", {"faulty.replies_dropped"}},
      {"chaos_mailbox_residual", {"faulty.mailbox_residual"}},
  };
  s.checks = {
      {"chaos_failures", "==", 0},
      {"chaos_crashes", "==", 1},
      {"chaos_retries", ">", 0},
      {"chaos_faults_injected", ">", 0},
      {"chaos_replies_dropped", ">", 0},
      {"chaos_mailbox_residual", "==", 0},
      // The fault-free arm never times out a healthy reply.
      {"chaos_clean_timeouts", "==", 0},
      {"chaos_timeouts", "<=", 1.5, "chaos_dropped"},
  };
  // The faults cost time where the 40 ms crash is a large share of the
  // run. In a long one they need not: at 100 frames (DTIO_SEED=42) the
  // faulty arm finishes 8% ahead of the fault-free one, which issues
  // 7,242 hedges and wins none.
  if (frames <= 2) s.checks.push_back({"chaos_slowdown", ">=", 1});
  return s;
}

/// Tail latency under a straggler: one client's open-loop paced 16 KiB
/// reads of a 2-server file while server 1 runs 4x degraded for 150 ms,
/// with the overload layer (hedged reads, breaker, AIMD window) off vs on;
/// bounded queues in both arms, above the single-client backlog. A healthy
/// warmup arms the hedge quantile. Degraded windows draw no RNG, so both
/// arms see the same straggler. Then the convoy: 8 clients in a closed
/// loop on one decode-bound server (2 ms per request), observed with a
/// 1 ms timeline sampler that keeps the whole run, so nearly all of each
/// op's latency is server queue wait — the canonical case for phase
/// attribution. Its deadline is ~50x any queue wait, so no attempt
/// retries, and small, since each pending receive timer extends the
/// sampled post-run drain.
Scenario overload(const std::string& convoy_trace) {
  Scenario s{"overload",
             "100 paced 16 KiB reads, server 1 degraded 4x for 150 ms, "
             "hedging off vs on; convoy of 8 clients on 1 server with 2 ms "
             "decode"};
  for (const bool on : {false, true}) {
    s.arms.push_back(
        {.name = on ? "on" : "off",
         .config = {.num_servers = 2, .num_clients = 1, .strip_size = 8192,
                    .server = {.max_queue_depth = 16},
                    .client = {.rpc_timeout = 5 * kMillisecond,
                               .rpc_max_attempts = 10,
                               .rpc_backoff_base = 2 * kMillisecond,
                               .flow_window = on ? 8 : 0,
                               .breaker_failures = on ? 6 : 0,
                               .hedge_quantile = on ? 95.0 : 0.0,
                               .hedge_min_samples = on ? 8 : 16}},
         .data = true,
         .fault_salt = 0x0F7A11,
         .steps = {
             {.kind = kWrite, .name = "write", .path = "/overload",
              .bytes = 16384, .count = 1},
             {.kind = kRead, .name = "warmup", .bytes = 16384, .count = 20},
             {.kind = kRead, .name = "degraded", .bytes = 16384,
              .count = 100, .start = 2 * kMillisecond,
              .pace = 25 * kMillisecond,
              .outages = {{1, 2 * kMillisecond, 150 * kMillisecond, 4.0}}},
         }});
  }
  s.arms.push_back(
      {.name = "convoy",
       .config = {.num_servers = 1, .num_clients = 8,
                  .server = {.request_overhead = 2 * kMillisecond},
                  .client = {.rpc_timeout = kSecond, .rpc_max_attempts = 1}},
       .data = true,
       .obs = obs::ObsConfig{.sample_period = kMillisecond,
                             .timeline_capacity = 8192},
       .phase_op = "contig_read",
       .trace = convoy_trace,
       .steps = {{.kind = kWrite, .name = "write", .path = "/convoy",
                  .bytes = 4096, .count = 1},
                 {.kind = kRead, .name = "reads", .bytes = 4096,
                  .count = 30}}});
  s.scalars = {
      {"overload_off_read_p50_us", {"off.degraded.p50"}, {}, 1e3},
      {"overload_off_read_p99_us", {"off.degraded.p99"}, {}, 1e3},
      {"overload_off_read_p999_us", {"off.degraded.p999"}, {}, 1e3},
      {"overload_on_read_p50_us", {"on.degraded.p50"}, {}, 1e3},
      {"overload_on_read_p99_us", {"on.degraded.p99"}, {}, 1e3},
      {"overload_on_read_p999_us", {"on.degraded.p999"}, {}, 1e3},
      {"overload_p99_ratio", {"off.degraded.p99"}, {"on.degraded.p99"}},
      {"overload_off_hedges_issued", {"off.hedges_issued"}},
      {"overload_on_hedges_issued", {"on.hedges_issued"}},
      {"overload_on_hedges_won", {"on.hedges_won"}},
      {"overload_off_timeouts", {"off.rpc_timeouts"}},
      {"overload_on_timeouts", {"on.rpc_timeouts"}},
      {"overload_failures", {"off.failed", "on.failed"}},
      {"overload_convoy_ops", {"convoy.phase_ops"}},
      {"overload_convoy_sim_seconds", {"convoy.reads.seconds"}},
      {"overload_convoy_failures", {"convoy.failed"}},
      {"overload_convoy_queue_peak", {"convoy.queue_peak"}},
      {"overload_convoy_p99_ms", {"convoy.phase_p99_ns"}, {}, 1e6},
      {"overload_convoy_coverage_p99", {"convoy.phase_p99_coverage"}},
      {"overload_convoy_queue_share_p99", {"convoy.phase_p99_queue_ns"},
       {"convoy.phase_p99_ns"}},
  };
  s.checks = {
      {"overload_failures", "==", 0},
      {"overload_off_hedges_issued", "==", 0},
      {"overload_on_hedges_issued", ">", 0},
      {"overload_p99_ratio", ">=", 2},
      // The report's phase section agrees with dtio_inspect on the trace.
      {"overload_convoy_coverage_p99", ">=", 0.95},
      {"convoy.phase_p99_dominant", "==",
       static_cast<double>(obs::Phase::kServerQueue)},
      {"convoy.timeline_series", ">", 0},
  };
  return s;
}

/// Server buffer cache: the frames are written through the tile view
/// (giving the bstreams real extents, so readahead has an EOF to clamp
/// against), every cache is flushed and dropped by a fleet-wide crash,
/// then a cold pass and a warm pass read identical data, cache off vs on
/// (64 KiB blocks, one strip each; 256 MiB per server, which holds the
/// dataset). Both arms crash so their timelines stay comparable.
Scenario cache(const workloads::TileConfig& tile, int frames) {
  Scenario s{"cache",
             "datatype reads, " + std::to_string(frames) +
                 " frames x 6 clients, cold pass then warm pass, cache off "
                 "vs on"};
  for (const bool on : {false, true}) {
    const Job read = independent_tile(tile, frames, false, Job::Open::kNone);
    s.arms.push_back(
        {.name = on ? "on" : "off",
         .config = {.num_clients = tile.num_clients(),
                    .server = {.cache_block_bytes = on ? 64 * 1024 : 0,
                               .cache_capacity_bytes = on ? 256 << 20 : 0}},
         .steps = {
             {.name = "populate",
              .job = independent_tile(tile, frames, true, Job::Open::kAll)},
             {.kind = kFlush, .outages = {{-1, kMillisecond, kMillisecond}}},
             {.name = "cold", .job = read},
             {.name = "warm", .job = read},
         }});
  }
  s.scalars = {
      {"cache_off_cold_disk_accesses", {"off.cold.disk_accesses"}},
      {"cache_off_warm_disk_accesses", {"off.warm.disk_accesses"}},
      {"cache_on_cold_disk_accesses", {"on.cold.disk_accesses"}},
      {"cache_on_warm_disk_accesses", {"on.warm.disk_accesses"}},
      {"cache_warm_disk_access_ratio", {"off.warm.disk_accesses"},
       {"on.warm.disk_accesses"}, 1, /*floor=*/1},
      {"cache_on_hits", {"on.cache_hits"}},
      {"cache_on_misses", {"on.cache_misses"}},
      {"cache_on_hit_ratio", {"on.cache_hits"},
       {"on.cache_hits", "on.cache_misses"}},
      {"cache_on_readahead_issued", {"on.cache_readahead_issued"}},
      {"cache_on_evictions", {"on.cache_evictions"}},
      {"cache_on_dirty_flushed_bytes", {"on.cache_dirty_flushed_bytes"}},
      {"cache_failures", {"off.failed", "on.failed"}},
  };
  s.checks = {
      {"cache_failures", "==", 0},
      {"cache_warm_disk_access_ratio", ">=", 4},
      {"cache_on_hit_ratio", ">", 0.5},
      {"cache_on_readahead_issued", ">", 0},
  };
  return s;
}

/// Degraded reads: one client's open-loop paced 16 KiB reads of a
/// 4-server file, first over a healthy fleet (the baseline), then with
/// server 1 crashed for the whole window and restarted after it, r=1 (off)
/// vs r=`r` (on). Replicated, every degraded read fails over to server 1's
/// replica: the timeout sits below the read pace, so the breaker (tripped
/// by the first timeout, open past the outage) is open for the next read
/// and exactly one read pays the full timeout. A write-back cache makes
/// the crash lose dirty bytes, which the restart resyncs from replicas.
/// At r=1 the on arm must reproduce the off arm exactly.
Scenario replication(int r) {
  Scenario s{r == 2 ? "replication" : "replication_r" + std::to_string(r),
             "100 paced 16 KiB reads, server 1 crashed for the window, r=1 "
             "(off) vs r=" + std::to_string(r) + " (on)"};
  for (const bool on : {false, true}) {
    s.arms.push_back(
        {.name = on ? "on" : "off",
         .config = {.num_servers = 4, .num_clients = 1, .strip_size = 4096,
                    .replication = on ? r : 1,
                    .server = {.cache_block_bytes = 4096,
                               .cache_capacity_bytes = 64 * 4096,
                               .cache_dirty_watermark = 1.0},
                    .client = {.rpc_timeout = 7 * kMillisecond,
                               .rpc_max_attempts = 4,
                               .rpc_backoff_base = 2 * kMillisecond,
                               .breaker_failures = 1,
                               .breaker_open_duration = 2 * kSecond}},
         .data = true,
         .steps = {
             {.kind = kWrite, .name = "write", .path = "/repl",
              .bytes = 16384, .count = 1},
             {.kind = kRead, .name = "healthy", .bytes = 16384, .count = 100,
              .start = kMillisecond, .pace = 10 * kMillisecond},
             {.kind = kRead, .name = "degraded", .bytes = 16384,
              .count = 100, .start = 2 * kMillisecond,
              .pace = 10 * kMillisecond,
              .outages = {{1, kMillisecond, 1100 * kMillisecond}}},
         }});
  }
  s.scalars = {
      {"repl_factor", {"on.replication"}},
      {"repl_off_read_availability", {"off.degraded.ok"}, {}, 100},
      {"repl_on_read_availability", {"on.degraded.ok"}, {}, 100},
      {"repl_off_degraded_p99_us", {"off.degraded.p99"}, {}, 1e3},
      {"repl_on_healthy_p99_us", {"on.healthy.p99"}, {}, 1e3},
      {"repl_on_degraded_p99_us", {"on.degraded.p99"}, {}, 1e3},
      {"repl_on_degraded_p99_ratio", {"on.degraded.p99"}, {"on.healthy.p99"}},
      {"repl_on_read_failovers", {"on.read_failovers"}},
      {"repl_on_breaker_fast_fails", {"on.breaker_fast_fails"}},
      {"repl_on_quorum_writes", {"on.quorum_writes"}},
      {"repl_on_resyncs", {"on.resyncs"}},
      {"repl_on_resync_bytes_pulled", {"on.resync_bytes_pulled"}},
      {"repl_crashes", {"off.crashes", "on.crashes"}},
      {"repl_healthy_failures", {"off.write.failed", "off.healthy.failed",
                                 "on.write.failed", "on.healthy.failed"}},
  };
  s.checks = {
      {"repl_factor", "==", static_cast<double>(r)},
      {"repl_healthy_failures", "==", 0},
      // Each arm crashes exactly once.
      {"repl_crashes", "==", 2},
      // The unreplicated arm loses every read during the outage.
      {"repl_off_read_availability", "==", 0},
  };
  if (r > 1) {
    s.checks.insert(s.checks.end(), {
        {"repl_on_read_availability", "==", 1.0},
        {"repl_on_degraded_p99_ratio", "<=", 3},
        {"repl_on_read_failovers", ">", 0},
        {"repl_on_quorum_writes", ">", 0},
        {"repl_on_resyncs", ">=", 1},
        {"repl_on_resync_bytes_pulled", ">", 0},
    });
  } else {
    // The r=1 on arm reruns the off arm: byte-for-byte agreement.
    s.checks.insert(s.checks.end(), {
        {"repl_on_read_availability", "==", 0},
        {"repl_on_degraded_p99_us", "==", 1, "repl_off_degraded_p99_us"},
        {"repl_on_quorum_writes", "==", 0},
        {"repl_on_resyncs", "==", 0},
    });
  }
  return s;
}

/// Storage integrity: 32 MiB written in 1 MiB chunks and read back, with
/// per-page checksums and the background scrubber on, while the disks of
/// the even-indexed servers silently rot 0.5% of written strips and
/// poison 0.2% as latent sector errors (per-strip writes make the
/// per-page density ~16x that). With ring replication a strip's replica
/// lands on an adjacent server, so no strip loses both copies: at r=2
/// every read detects, repairs and returns exact bytes, and the scrubber
/// converges every store back to clean. At r=1 the same faults surface as
/// typed kDataLoss on the affected chunks, and data_loss_fast_fail stops
/// the client burning retries on an error that cannot clear.
Scenario media_faults() {
  Scenario s{"media_faults",
             "32 MiB, 0.5% bit rot + 0.2% LSE on even-indexed disks, "
             "checksums + scrub on, r=1 (off) vs r=2 (on)"};
  const net::DiskFaultSpec rot{.bit_rot = 0.005, .sector_error = 0.002};
  for (const bool on : {false, true}) {
    s.arms.push_back(
        {.name = on ? "on" : "off",
         .config = {.num_servers = 4, .num_clients = 1, .strip_size = 4096,
                    .replication = on ? 2 : 1,
                    .server = {.block_checksums = true,
                               .scrub_interval = 10 * kMillisecond},
                    .client = {.rpc_timeout = kSecond,
                               .rpc_max_attempts = 5,
                               .rpc_backoff_base = 2 * kMillisecond,
                               .data_loss_fast_fail = 2}},
         .data = true,
         .fault_salt = 0xD15C,
         .disks = {{0, rot}, {2, rot}},
         .steps = {
             {.kind = kWrite, .name = "write", .path = "/media",
              .bytes = 1 << 20, .count = 32, .fill_seed = 4096},
             {.kind = kRead, .name = "read", .bytes = 1 << 20, .count = 32,
              .stride = 1 << 20},
         }});
  }
  s.scalars = {{"media_factor", {"on.replication"}},
               {"media_failures", {"off.failed", "on.failed"}},
               {"media_off_read_total", {"off.read.ok", "off.read.lost"},
                {}, 1, 0, /*hidden=*/true}};
  for (const char* arm : {"off", "on"}) {
    const std::string a = arm;
    const std::string k = "media_" + a + "_";
    s.scalars.insert(s.scalars.end(), {
        {k + "reads_ok", {a + ".read.ok"}},
        {k + "reads_lost", {a + ".read.lost"}},
        {k + "pages_rotted", {a + ".pages_rotted"}},
        {k + "pages_poisoned", {a + ".pages_poisoned"}},
        {k + "detected", {a + ".media_sector_errors",
                          a + ".media_bit_rot_detected",
                          a + ".media_torn_detected"}},
        {k + "server_data_loss", {a + ".media_data_loss"}},
        {k + "client_data_loss", {a + ".data_loss_surfaced"}},
        {k + "residual_bad_pages", {a + ".residual_bad_pages"}},
    });
  }
  s.scalars.insert(s.scalars.end(), {
      {"media_off_scrub_errors", {"off.scrub_errors"}},
      {"media_on_repairs", {"on.media_repairs", "on.scrub_repairs"}},
      {"media_on_scrub_passes", {"on.scrub_passes"}},
      {"media_on_scrub_blocks", {"on.scrub_blocks"}},
  });
  s.checks = {
      {"media_factor", "==", 2},
      {"media_failures", "==", 0},
      // r=2: exact repair, and the scrubber leaves no bad page.
      {"media_on_reads_ok", "==", 32},
      {"media_on_reads_lost", "==", 0},
      {"media_on_pages_rotted", ">", 0},
      {"media_on_pages_poisoned", ">", 0},
      {"media_on_detected", ">", 0},
      {"media_on_repairs", ">", 0},
      {"media_on_scrub_passes", ">", 0},
      {"media_on_residual_bad_pages", "==", 0},
      {"media_on_server_data_loss", "==", 0},
      {"media_on_client_data_loss", "==", 0},
      // r=1: every read accounted for, losses typed on both sides.
      {"media_off_read_total", "==", 32},
      {"media_off_reads_lost", ">", 0},
      {"media_off_client_data_loss", ">", 0},
      {"media_off_server_data_loss", ">", 0},
      {"media_off_scrub_errors", ">", 0},
      {"media_off_residual_bad_pages", ">", 0},
  };
  return s;
}

int tile_main(int argc, char** argv) {
  const workloads::TileConfig tile;
  const int frames =
      static_cast<int>(bench::flag_int(argc, argv, "--frames", 100));
  const bool use_obs = bench::obs_enabled(argc, argv);
  // --trace=PATH exports the datatype-I/O run as a Chrome trace-event
  // file (the paper's contribution is the most interesting timeline).
  const std::string trace_path = bench::flag_str(argc, argv, "--trace", "");
  const std::string convoy_trace =
      use_obs ? bench::flag_str(argc, argv, "--trace-overload",
                                "trace_overload.json")
              : "";
  const std::vector<Scenario> scenarios = {
      chaos(tile, frames),   overload(convoy_trace), cache(tile, frames),
      replication(2),        replication(1),         replication(3),
      media_faults(),
  };
  const Scenario* extra = bench::pick_scenario(argc, argv, scenarios);

  std::printf("tile reader: %dx%d tiles of %dx%d px, frame %.1f MB, "
              "%d frames, %d clients, 16 I/O servers\n",
              tile.tiles_x, tile.tiles_y, tile.tile_width, tile.tile_height,
              bench::to_mb(static_cast<double>(tile.frame_bytes())), frames,
              tile.num_clients());

  const Method methods[] = {Method::kPosix, Method::kDataSieving,
                            Method::kTwoPhase, Method::kList,
                            Method::kDatatype};
  std::vector<obs::MethodReport> results;
  for (const Method m : methods) {
    results.push_back(bench::measure(
        {.num_clients = tile.num_clients()}, bench::tile_job(tile, frames, m),
        use_obs, 1 << 18, m == Method::kDatatype ? trace_path : ""));
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
      std::printf("csv,%s,%.3f,%.3f\n", r.method.c_str(), r.bandwidth_mb_s,
                  r.sim_seconds);
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
  report.methods = results;

  bool ok = bench::run_scenario(pruned(tile, frames), report);
  if (extra != nullptr) ok = bench::run_scenario(*extra, report) && ok;
  bench::write_report(report, argc, argv, "BENCH_tile_reader.json");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dtio

int main(int argc, char** argv) { return dtio::tile_main(argc, argv); }
