// Storage-media integrity end to end: seeded disk-fault injection (latent
// sector errors, silent bit rot, torn writes on crash) under the server
// stores, per-page CRC verification on every read, verify-and-repair from
// ring replicas, the background scrubber, and the client's typed-loss
// fast-fail. The headline property: at replication >= 2 every read returns
// oracle-exact bytes even with a disk flipping bits on every write, and
// the scrubber converges the stores back to verifiably clean; at
// replication 1 the same faults surface as typed kDataLoss on exactly the
// poisoned extents — never as silent corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "io/joint.h"
#include "io/methods.h"
#include "mpiio/file.h"
#include "net/fault.h"
#include "obs/observability.h"
#include "pfs/cluster.h"
#include "sim/scheduler.h"

namespace dtio {
namespace {

using mpiio::Method;
using net::DiskFaultSpec;
using net::FaultPlan;
using pfs::Client;
using pfs::MetaResult;
using sim::Task;

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> data(n);
  Rng rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

net::ClusterConfig media_config(int servers, int r) {
  net::ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.num_clients = 1;
  cfg.strip_size = 1024;
  cfg.replication = r;
  cfg.client.rpc_timeout = 20 * kMillisecond;
  cfg.client.rpc_max_attempts = 5;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  cfg.server.block_checksums = true;
  return cfg;
}

/// Writes `data` at offset 0 of a fresh file and returns its handle.
std::uint64_t write_file(pfs::Cluster& cluster, Client& client,
                         const char* path,
                         const std::vector<std::uint8_t>& data) {
  std::uint64_t handle = 0;
  bool done = false;
  cluster.scheduler().spawn(
      [](Client& c, const char* p, const std::vector<std::uint8_t>& src,
         std::uint64_t& h, bool& ok) -> Task<void> {
        MetaResult f = co_await c.create(p);
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        h = f.handle;
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        ok = true;
      }(client, path, data, handle, done));
  cluster.run();
  EXPECT_TRUE(done);
  return handle;
}

/// Reads [offset, offset+length) into `out` and returns the final status.
Status read_range(pfs::Cluster& cluster, Client& client, std::uint64_t handle,
                  std::int64_t offset, std::vector<std::uint8_t>& out) {
  Status status = Status::ok();
  bool done = false;
  cluster.scheduler().spawn(
      [](Client& c, std::uint64_t h, std::int64_t off,
         std::vector<std::uint8_t>& buf, Status& st, bool& ok) -> Task<void> {
        st = co_await c.read_contig(h, off, buf.data(),
                                    static_cast<std::int64_t>(buf.size()));
        ok = true;
      }(client, handle, offset, out, status, done));
  cluster.run();
  EXPECT_TRUE(done);
  return status;
}

// ---- The threat model -------------------------------------------------------

TEST(MediaFaults, BitRotIsSilentWithoutChecksums) {
  // Checksums off: a certain-to-rot disk hands back flipped bytes and the
  // read still reports OK — the failure mode the integrity machinery
  // exists to close.
  auto cfg = media_config(/*servers=*/1, /*r=*/1);
  cfg.server.block_checksums = false;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xD00D));
  plan.set_disk_spec(0, DiskFaultSpec{.bit_rot = 1.0});
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(2048, 91);
  const std::uint64_t handle = write_file(cluster, *client, "/silent", data);

  std::vector<std::uint8_t> back(data.size(), 0);
  Status r = read_range(cluster, *client, handle, 0, back);
  EXPECT_TRUE(r.is_ok()) << r.to_string();
  EXPECT_NE(back, data) << "rot at p=1.0 must corrupt the read";
  EXPECT_GE(cluster.server(0).media().pages_rotted, 1u);
  EXPECT_EQ(cluster.server(0).stats().checksum_mismatches, 0u);
  EXPECT_EQ(cluster.server(0).stats().media_data_loss, 0u);
}

// ---- Read-path verify and repair --------------------------------------------

TEST(MediaFaults, ReadDetectsBitRotAndRepairsFromReplica) {
  // Server 0's disk rots every page it writes; servers 1 and 2 are honest.
  // With r=2 a read of server 0's strip must detect the mismatch, pull the
  // strip from its ring replica, rewrite it clean, and serve exact bytes.
  auto cfg = media_config(/*servers=*/3, /*r=*/2);
  obs::Observability obs;
  pfs::Cluster cluster(cfg);
  cluster.set_observability(&obs);
  FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xD00D));
  plan.set_disk_spec(0, DiskFaultSpec{.bit_rot = 1.0});
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(3 * 1024, 92);
  const std::uint64_t handle = write_file(cluster, *client, "/rot", data);

  std::vector<std::uint8_t> back(data.size(), 0);
  Status r = read_range(cluster, *client, handle, 0, back);
  EXPECT_TRUE(r.is_ok()) << r.to_string();
  EXPECT_EQ(back, data);

  const pfs::ServerStats& s0 = cluster.server(0).stats();
  EXPECT_GE(s0.media_bit_rot_detected, 1u);
  EXPECT_GE(s0.checksum_mismatches, 1u);
  EXPECT_GE(s0.media_repairs, 1u);
  EXPECT_EQ(s0.media_data_loss, 0u);
  EXPECT_EQ(client->data_loss_surfaced(), 0u);
  // The repair reached the store itself: strip 0 verifies clean now.
  const pfs::Bstream* bs = cluster.server(0).find_bstream(handle);
  ASSERT_NE(bs, nullptr);
  EXPECT_TRUE(bs->verify_range(0, 1024).empty());
  // And the detection/repair surfaced through the metrics registry.
  cluster.publish_metrics();
  EXPECT_GT(obs.metrics.counter_total("server_media_errors_total"), 0u);
  EXPECT_GT(obs.metrics.counter_total("server_checksum_mismatches_total"),
            0u);
}

TEST(MediaFaults, ReadDetectsSectorErrorsAndRepairsFromReplica) {
  // Latent sector errors are typed separately from rot: the page is
  // poisoned outright rather than silently flipped, but the repair path
  // is the same — pull the strip from a clean ring peer.
  auto cfg = media_config(/*servers=*/3, /*r=*/2);
  pfs::Cluster cluster(cfg);
  FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xD00D));
  plan.set_disk_spec(0, DiskFaultSpec{.sector_error = 1.0});
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(3 * 1024, 93);
  const std::uint64_t handle = write_file(cluster, *client, "/lse", data);

  std::vector<std::uint8_t> back(data.size(), 0);
  Status r = read_range(cluster, *client, handle, 0, back);
  EXPECT_TRUE(r.is_ok()) << r.to_string();
  EXPECT_EQ(back, data);
  const pfs::ServerStats& s0 = cluster.server(0).stats();
  EXPECT_GE(s0.media_sector_errors, 1u);
  EXPECT_GE(s0.media_repairs, 1u);
  EXPECT_EQ(s0.media_data_loss, 0u);
  EXPECT_GE(cluster.server(0).media().pages_poisoned, 1u);
}

// ---- Typed loss and the client fast-fail at replication 1 -------------------

TEST(MediaFaults, ReplicationOneSurfacesTypedLossAndFastFails) {
  // No replica to repair from: the read must come back as kDataLoss — a
  // typed, deterministic refusal — never as silent corruption. The
  // fast-fail regression: retrying a persistent media loss re-verifies
  // the same pages and produces the byte-identical error, so the client
  // stops after data_loss_fast_fail identical failures instead of
  // burning the full retry budget against an error that cannot clear.
  auto run = [](int fast_fail, std::uint64_t& retries,
                std::uint64_t& surfaced, StatusCode& bad_code) {
    auto cfg = media_config(/*servers=*/2, /*r=*/1);
    cfg.client.data_loss_fast_fail = fast_fail;
    pfs::Cluster cluster(cfg);
    FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xD00D));
    plan.set_disk_spec(0, DiskFaultSpec{.bit_rot = 1.0});
    cluster.set_fault_plan(&plan);
    auto client = cluster.make_client(0);
    const auto data = pattern_bytes(2048, 94);
    const std::uint64_t handle = write_file(cluster, *client, "/loss", data);

    // Strip 0 lives on the rotting server 0 — typed loss.
    std::vector<std::uint8_t> s0(1024, 0);
    bad_code = read_range(cluster, *client, handle, 0, s0).code();
    // Strip 1 lives on the honest server 1 — exact bytes.
    std::vector<std::uint8_t> s1(1024, 0);
    Status ok = read_range(cluster, *client, handle, 1024, s1);
    EXPECT_TRUE(ok.is_ok()) << ok.to_string();
    EXPECT_EQ(s1, std::vector<std::uint8_t>(data.begin() + 1024, data.end()));
    EXPECT_GE(cluster.server(0).stats().media_data_loss, 1u);
    retries = client->rpc_retries();
    surfaced = client->data_loss_surfaced();
  };

  std::uint64_t retries_fast = 0, retries_slow = 0;
  std::uint64_t surfaced_fast = 0, surfaced_slow = 0;
  StatusCode code_fast{}, code_slow{};
  run(/*fast_fail=*/2, retries_fast, surfaced_fast, code_fast);
  run(/*fast_fail=*/0, retries_slow, surfaced_slow, code_slow);
  EXPECT_EQ(code_fast, StatusCode::kDataLoss);
  EXPECT_EQ(code_slow, StatusCode::kDataLoss);
  EXPECT_GE(surfaced_fast, 1u);
  EXPECT_GE(surfaced_slow, 1u);
  // The whole point: fast-fail cut the retry budget short.
  EXPECT_LT(retries_fast, retries_slow);
}

// ---- Background scrubber ----------------------------------------------------

TEST(MediaFaults, ScrubberRepairsRotWithoutAnyReads) {
  // Nothing ever reads the rotted strips; the scrubber alone must find
  // and repair them — primary and replica segments both — and then park.
  auto cfg = media_config(/*servers=*/3, /*r=*/2);
  cfg.server.scrub_interval = 2 * kMillisecond;
  obs::ObsConfig ocfg;
  ocfg.sample_period = kMillisecond;
  obs::Observability obs(ocfg);
  pfs::Cluster cluster(cfg);
  cluster.set_observability(&obs);
  FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xD00D));
  plan.set_disk_spec(0, DiskFaultSpec{.bit_rot = 1.0});
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(3 * 1024, 95);
  // Strip 0 rots in server 0's primary store; strip 2's mirror rots in
  // server 0's replica store. The run drains only once the scrub loop has
  // completed a clean full cycle and parked.
  const std::uint64_t handle = write_file(cluster, *client, "/scrub", data);

  const pfs::ServerStats& s0 = cluster.server(0).stats();
  EXPECT_GE(s0.scrub_passes, 1u);
  EXPECT_GE(s0.scrub_blocks, 1u);
  EXPECT_GE(s0.scrub_repairs, 1u);
  EXPECT_EQ(s0.scrub_errors, 0u);
  EXPECT_FALSE(cluster.server(0).scrubbing());
  const pfs::Bstream* primary = cluster.server(0).find_bstream(handle);
  ASSERT_NE(primary, nullptr);
  EXPECT_TRUE(primary->verify_range(0, primary->size()).empty());
  const pfs::Bstream* mirror =
      cluster.server(0).find_replica_bstream(handle, /*primary=*/2);
  ASSERT_NE(mirror, nullptr);
  EXPECT_TRUE(mirror->verify_range(0, mirror->size()).empty());
  cluster.publish_metrics();
  EXPECT_GT(obs.metrics.counter_total("server_scrub_repairs_total"), 0u);
  EXPECT_GT(obs.metrics.counter_total("server_scrub_blocks_total"), 0u);
  // The sampler recorded the srv_scrubbing series (gated on the knobs).
  EXPECT_GT(obs.timeline.series("srv_scrubbing", 0).total(), 0u);
}

TEST(MediaFaults, SameSeedSameScrubChaosRun) {
  // Determinism under the seed: the same mixed bit-rot/sector-error
  // workload with scrubbing, run twice, must produce identical injection
  // totals, detection/repair counters, statuses, and end times. DTIO_SEED
  // replays feed the same cfg.seed, so this is the replay guarantee.
  auto run = [](std::vector<StatusCode>& codes, std::uint64_t& rotted,
                std::uint64_t& poisoned, pfs::ServerStats& totals,
                SimTime& end_time) {
    auto cfg = media_config(/*servers=*/3, /*r=*/2);
    cfg.seed = 777;
    cfg.server.scrub_interval = 2 * kMillisecond;
    cfg.client.data_loss_fast_fail = 2;
    pfs::Cluster cluster(cfg);
    FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xD00D));
    for (int s = 0; s < cfg.num_servers; ++s) {
      plan.set_disk_spec(s,
                         DiskFaultSpec{.bit_rot = 0.3, .sector_error = 0.1});
    }
    cluster.set_fault_plan(&plan);
    auto client = cluster.make_client(0);
    const auto data = pattern_bytes(6 * 1024, 96);

    cluster.scheduler().spawn(
        [](Client& c, const std::vector<std::uint8_t>& src,
           std::vector<StatusCode>& codes) -> Task<void> {
          MetaResult f = co_await c.create("/det-media");
          codes.push_back(f.status.code());
          for (int round = 0; round < 3; ++round) {
            Status w = co_await c.write_contig(
                f.handle, round * 512, src.data(),
                static_cast<std::int64_t>(src.size()));
            codes.push_back(w.code());
            std::vector<std::uint8_t> back(src.size());
            Status r = co_await c.read_contig(
                f.handle, round * 512, back.data(),
                static_cast<std::int64_t>(back.size()));
            codes.push_back(r.code());
          }
        }(*client, data, codes));
    cluster.run();
    rotted = poisoned = 0;
    for (int s = 0; s < cfg.num_servers; ++s) {
      rotted += cluster.server(s).media().pages_rotted;
      poisoned += cluster.server(s).media().pages_poisoned;
    }
    totals = cluster.cache_stats_total();
    end_time = cluster.scheduler().now();
  };
  std::vector<StatusCode> codes_a, codes_b;
  std::uint64_t rotted_a = 0, rotted_b = 0, poisoned_a = 0, poisoned_b = 0;
  pfs::ServerStats totals_a, totals_b;
  SimTime end_a = 0, end_b = 0;
  run(codes_a, rotted_a, poisoned_a, totals_a, end_a);
  run(codes_b, rotted_b, poisoned_b, totals_b, end_b);
  EXPECT_EQ(codes_a, codes_b);
  EXPECT_EQ(rotted_a, rotted_b);
  EXPECT_EQ(poisoned_a, poisoned_b);
  EXPECT_EQ(totals_a.media_bit_rot_detected, totals_b.media_bit_rot_detected);
  EXPECT_EQ(totals_a.media_sector_errors, totals_b.media_sector_errors);
  EXPECT_EQ(totals_a.checksum_mismatches, totals_b.checksum_mismatches);
  EXPECT_EQ(totals_a.media_repairs, totals_b.media_repairs);
  EXPECT_EQ(totals_a.media_repair_failures, totals_b.media_repair_failures);
  EXPECT_EQ(totals_a.media_data_loss, totals_b.media_data_loss);
  EXPECT_EQ(totals_a.scrub_passes, totals_b.scrub_passes);
  EXPECT_EQ(totals_a.scrub_blocks, totals_b.scrub_blocks);
  EXPECT_EQ(totals_a.scrub_repairs, totals_b.scrub_repairs);
  EXPECT_EQ(totals_a.scrub_errors, totals_b.scrub_errors);
  EXPECT_EQ(end_a, end_b);
  EXPECT_GT(rotted_a, 0u);
}

// ---- Torn writes on crash ---------------------------------------------------

TEST(MediaFaults, TornCrashRepairedByResyncAtReplicationTwo) {
  // Write-back dirty blocks destroyed by a crash leave torn tails on the
  // primary's platters (a deterministic prefix of each extent, checksum
  // stale). Restart resync pulls the affected strips back from the
  // replica — rewriting them clean — so the read after recovery is exact
  // and nothing surfaces as loss.
  auto cfg = media_config(/*servers=*/2, /*r=*/2);
  cfg.server.cache_block_bytes = 256;
  cfg.server.cache_capacity_bytes = 16 * 256;
  cfg.server.cache_dirty_watermark = 1.0;
  cfg.server.scrub_interval = 2 * kMillisecond;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xD00D));
  plan.set_disk_spec(0, DiskFaultSpec{.torn_writes = true});
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(2048, 97);
  cluster.schedule_server_crash(/*index=*/0, /*at=*/50 * kMillisecond,
                                /*restart_delay=*/10 * kMillisecond);

  std::vector<std::uint8_t> back(2048, 0xFF);
  Status read_status = Status::ok();
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, std::vector<std::uint8_t>& out,
         Status& rs, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/torn2");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        co_await sched.delay(200 * kMillisecond - sched.now());
        rs = co_await c.read_contig(f.handle, 0, out.data(),
                                    static_cast<std::int64_t>(out.size()));
        done = true;
      }(cluster.scheduler(), *client, data, back, read_status, finished));
  cluster.run();
  ASSERT_TRUE(finished);
  EXPECT_TRUE(read_status.is_ok()) << read_status.to_string();
  EXPECT_EQ(back, data);
  const pfs::ServerStats& s0 = cluster.server(0).stats();
  EXPECT_EQ(s0.crashes, 1u);
  EXPECT_GT(s0.cache_dirty_lost_bytes, 0u);
  EXPECT_GE(cluster.server(0).media().pages_torn, 1u);
  EXPECT_EQ(s0.resyncs, 1u);
  EXPECT_EQ(s0.media_data_loss, 0u);
  EXPECT_EQ(client->data_loss_surfaced(), 0u);
}

TEST(MediaFaults, TornCrashSurfacesAsScrubErrorsAndTypedLossAtReplicationOne) {
  // Same crash, no replica: the torn tail is unrepairable. The restart
  // itself must re-arm the scrubber (torn writes count toward the
  // quiescence generation), which detects the stale checksum and books
  // scrub_errors; a read of the range then comes back kDataLoss.
  auto cfg = media_config(/*servers=*/2, /*r=*/1);
  cfg.server.cache_block_bytes = 256;
  cfg.server.cache_capacity_bytes = 16 * 256;
  cfg.server.cache_dirty_watermark = 1.0;
  cfg.server.scrub_interval = 2 * kMillisecond;
  cfg.client.data_loss_fast_fail = 2;
  pfs::Cluster cluster(cfg);
  FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xD00D));
  plan.set_disk_spec(0, DiskFaultSpec{.torn_writes = true});
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(2048, 98);
  cluster.schedule_server_crash(/*index=*/0, /*at=*/50 * kMillisecond,
                                /*restart_delay=*/10 * kMillisecond);

  Status lost = Status::ok();
  Status kept = Status::ok();
  std::vector<std::uint8_t> strip1(1024, 0);
  bool finished = false;
  cluster.scheduler().spawn(
      [](sim::Scheduler& sched, Client& c,
         const std::vector<std::uint8_t>& src, Status& lost, Status& kept,
         std::vector<std::uint8_t>& s1, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/torn1");
        EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
        Status w = co_await c.write_contig(
            f.handle, 0, src.data(), static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        co_await sched.delay(200 * kMillisecond - sched.now());
        std::vector<std::uint8_t> s0(1024, 0);
        lost = co_await c.read_contig(f.handle, 0, s0.data(), 1024);
        kept = co_await c.read_contig(f.handle, 1024, s1.data(), 1024);
        done = true;
      }(cluster.scheduler(), *client, data, lost, kept, strip1, finished));
  cluster.run();
  ASSERT_TRUE(finished);
  // Strip 0's torn tail is typed loss; strip 1 (server 1, never crashed)
  // still serves its staged write-back bytes exactly.
  EXPECT_EQ(lost.code(), StatusCode::kDataLoss) << lost.to_string();
  EXPECT_TRUE(kept.is_ok()) << kept.to_string();
  EXPECT_EQ(strip1, std::vector<std::uint8_t>(data.begin() + 1024,
                                              data.end()));
  const pfs::ServerStats& s0 = cluster.server(0).stats();
  EXPECT_GE(cluster.server(0).media().pages_torn, 1u);
  EXPECT_GE(s0.media_torn_detected, 1u);
  EXPECT_GE(s0.scrub_passes, 1u);
  EXPECT_GE(s0.scrub_errors, 1u);
  EXPECT_GE(s0.media_data_loss, 1u);
  EXPECT_GE(client->data_loss_surfaced(), 1u);
}

// ---- Randomized oracle equivalence ------------------------------------------
//
// The tentpole acceptance: a randomized typed workload against a disk
// that rots every page server 0 writes, with the scrubber on. At r >= 2
// every read through every I/O method must be byte-identical to the
// JointWalker oracle and the stores must converge to verifiably clean; at
// r = 1 reads touching the poisoned server come back as typed kDataLoss
// and everything else is exact.

types::Datatype random_filetype(Rng& rng, int depth) {
  if (depth == 0) {
    return types::byte_t();
  }
  auto inner = random_filetype(rng, depth - 1);
  switch (rng.next_below(4)) {
    case 0:
      return types::contiguous(rng.next_range(1, 4), inner);
    case 1: {
      const std::int64_t bl = rng.next_range(1, 3);
      return types::hvector(rng.next_range(1, 4), bl,
                            bl * inner.extent() + rng.next_range(0, 32),
                            inner);
    }
    case 2: {
      const std::int64_t count = rng.next_range(1, 4);
      std::vector<std::int64_t> lens, offs;
      std::int64_t at = rng.next_range(0, 8) * inner.extent();
      for (std::int64_t i = 0; i < count; ++i) {
        const std::int64_t bl = rng.next_range(1, 2);
        lens.push_back(bl);
        offs.push_back(at);
        at += bl * inner.extent() + rng.next_range(1, 40);
      }
      return types::hindexed(lens, offs, inner);
    }
    default: {
      auto base = types::contiguous(rng.next_range(1, 3), inner);
      return types::resized(base, 0, base.extent() + rng.next_range(0, 24));
    }
  }
}

class MediaEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MediaEquivalence, RottedRunsMatchOracleOrSurfaceTypedLoss) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40507 + 23);
  const auto filetype =
      random_filetype(rng, static_cast<int>(rng.next_range(1, 3)));
  const std::int64_t mem_count = rng.next_range(1, 3);
  types::Datatype memtype;
  if (rng.next_below(2)) {
    memtype = types::contiguous(rng.next_range(64, 400), types::byte_t());
  } else {
    const std::int64_t bl = rng.next_range(2, 16);
    memtype = types::hvector(rng.next_range(4, 16), bl,
                             bl + rng.next_range(0, 16), types::byte_t());
  }
  const std::int64_t displacement = rng.next_range(0, 512);
  const std::int64_t offset_etypes = rng.next_range(0, 64);
  const std::int64_t total = mem_count * memtype.size();

  const std::int64_t mem_span = memtype.extent() * mem_count + 64;
  std::vector<std::uint8_t> mem_image(static_cast<std::size_t>(mem_span));
  for (auto& b : mem_image) b = static_cast<std::uint8_t>(rng.next());

  // Oracle: expected file bytes via the joint walker alone.
  std::map<std::int64_t, std::uint8_t> expected_file;
  {
    io::FileView view{displacement, types::byte_t(), filetype};
    const io::StreamWindow window = io::make_window(view, offset_etypes, total);
    io::JointWalker walker(io::make_mem_cursor(memtype, mem_count),
                           io::make_file_cursor(view, window));
    io::JointWalker::Piece piece;
    while (walker.next(piece)) {
      for (std::int64_t i = 0; i < piece.length; ++i) {
        expected_file[piece.file_offset + i] =
            mem_image[static_cast<std::size_t>(piece.mem_offset + i)];
      }
    }
    ASSERT_EQ(static_cast<std::int64_t>(expected_file.size()), total)
        << "oracle: file regions must be disjoint";
  }

  constexpr std::int64_t kStrip = 256;
  constexpr int kServers = 3;
  // Did the view place any byte on server 0 (the rotting disk)? Round-
  // robin striping: file offset F lives on server (F / strip) % servers.
  bool server0_written = false;
  std::int64_t file_end = 0;
  for (const auto& [off, byte] : expected_file) {
    if ((off / kStrip) % kServers == 0) server0_written = true;
    file_end = std::max(file_end, off + 1);
  }

  const Method write_methods[] = {Method::kPosix, Method::kList,
                                  Method::kDatatype};
  const Method write_method = write_methods[rng.next_below(3)];

  for (const int r : {1, 2, 3}) {
    net::ClusterConfig cfg;
    cfg.num_servers = kServers;
    cfg.num_clients = 1;
    cfg.strip_size = kStrip;
    cfg.seed = 5200 + 100 * static_cast<std::uint64_t>(GetParam()) +
               static_cast<std::uint64_t>(r);
    cfg.replication = r;
    cfg.client.write_quorum = r;
    cfg.client.rpc_timeout = 20 * kMillisecond;
    cfg.client.rpc_max_attempts = 6;
    cfg.client.rpc_backoff_base = 2 * kMillisecond;
    cfg.client.data_loss_fast_fail = 2;
    cfg.server.block_checksums = true;
    cfg.server.scrub_interval = 5 * kMillisecond;
    pfs::Cluster cluster(cfg);
    FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xD00D));
    plan.set_disk_spec(0, DiskFaultSpec{.bit_rot = 1.0});
    cluster.set_fault_plan(&plan);
    auto client = cluster.make_client(0);
    io::Context ctx{cluster.scheduler(), *client, cluster.config()};
    mpiio::File file(ctx);

    bool wrote = false;
    cluster.scheduler().spawn(
        [](mpiio::File& f, const types::Datatype& ft, std::int64_t disp,
           std::int64_t off, const std::vector<std::uint8_t>& image,
           std::int64_t mem_count, const types::Datatype& mt, Method wm,
           bool& done) -> Task<void> {
          EXPECT_TRUE((co_await f.open("/media-rand", true)).is_ok());
          f.set_view(disp, types::byte_t(), ft);
          Status st = co_await f.write_at(off, image.data(), mem_count, mt,
                                          wm);
          EXPECT_TRUE(st.is_ok()) << st.to_string();
          done = st.is_ok();
        }(file, filetype, displacement, offset_etypes, mem_image, mem_count,
          memtype, write_method, wrote));
    cluster.run();
    ASSERT_TRUE(wrote) << "r=" << r;

    // Read back through the view with every method.
    for (const Method read_method :
         {Method::kPosix, Method::kDataSieving, Method::kList,
          Method::kDatatype}) {
      std::vector<std::uint8_t> back(mem_image.size(), 0);
      Status read_status = Status::ok();
      bool read_done = false;
      cluster.scheduler().spawn(
          [](mpiio::File& f, const types::Datatype& ft, std::int64_t disp,
             std::int64_t off, std::int64_t mem_count,
             const types::Datatype& mt, std::vector<std::uint8_t>& out,
             Method rm, Status& st, bool& done) -> Task<void> {
            f.set_view(disp, types::byte_t(), ft);
            st = co_await f.read_at(off, out.data(), mem_count, mt, rm);
            done = true;
          }(file, filetype, displacement, offset_etypes, mem_count, memtype,
            back, read_method, read_status, read_done));
      cluster.run();
      ASSERT_TRUE(read_done);
      if (r >= 2 || !server0_written) {
        ASSERT_TRUE(read_status.is_ok())
            << "r=" << r << " via " << mpiio::method_name(read_method) << ": "
            << read_status.to_string();
        for (const Region& reg : memtype.flatten(0, mem_count)) {
          for (std::int64_t i = reg.offset; i < reg.end(); ++i) {
            ASSERT_EQ(back[static_cast<std::size_t>(i)],
                      mem_image[static_cast<std::size_t>(i)])
                << "r=" << r << " mem byte " << i << " via "
                << mpiio::method_name(read_method);
          }
        }
      } else {
        // r=1 with bytes on the rotting server: the poisoned extents must
        // surface as typed loss, not as silently wrong bytes.
        ASSERT_EQ(read_status.code(), StatusCode::kDataLoss)
            << "r=" << r << " via " << mpiio::method_name(read_method) << ": "
            << read_status.to_string();
      }
    }

    if (r == 1) {
      // Strip-by-strip raw reads: losses are exactly the strips on the
      // rotting server; every other strip is oracle-exact.
      for (std::int64_t s = 0; s * kStrip < file_end; ++s) {
        std::vector<std::uint8_t> strip(static_cast<std::size_t>(kStrip), 0);
        Status st = read_range(cluster, *client, file.handle(), s * kStrip,
                               strip);
        if (s % kServers == 0 && server0_written) {
          EXPECT_EQ(st.code(), StatusCode::kDataLoss)
              << "strip " << s << ": " << st.to_string();
          continue;
        }
        ASSERT_TRUE(st.is_ok()) << "strip " << s << ": " << st.to_string();
        for (std::int64_t off = s * kStrip;
             off < (s + 1) * kStrip; ++off) {
          const auto it = expected_file.find(off);
          if (it == expected_file.end()) continue;
          ASSERT_EQ(strip[static_cast<std::size_t>(off - s * kStrip)],
                    it->second)
              << "file byte " << off;
        }
      }
      if (server0_written) {
        EXPECT_GE(cluster.cache_stats_total().media_data_loss, 1u);
        EXPECT_GE(client->data_loss_surfaced(), 1u);
      }
      continue;
    }

    // r >= 2: a raw whole-image read is oracle-exact too.
    {
      std::vector<std::uint8_t> raw(static_cast<std::size_t>(file_end), 0);
      Status st = read_range(cluster, *client, file.handle(), 0, raw);
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      for (const auto& [off, byte] : expected_file) {
        ASSERT_EQ(raw[static_cast<std::size_t>(off)], byte)
            << "r=" << r << " raw file byte " << off;
      }
    }

    // Nothing was lost, and by the time the run drained the scrubber had
    // completed a clean full cycle: every store — primary and replica
    // segments on every server — verifies clean.
    const pfs::ServerStats totals = cluster.cache_stats_total();
    EXPECT_EQ(totals.media_data_loss, 0u) << "r=" << r;
    EXPECT_EQ(client->data_loss_surfaced(), 0u) << "r=" << r;
    if (server0_written) {
      EXPECT_GT(totals.media_bit_rot_detected + totals.scrub_repairs +
                    totals.media_repairs,
                0u)
          << "r=" << r;
    }
    for (int s = 0; s < kServers; ++s) {
      if (const pfs::Bstream* bs =
              cluster.server(s).find_bstream(file.handle())) {
        EXPECT_TRUE(bs->verify_range(0, bs->size()).empty())
            << "r=" << r << " srv" << s << " primary store";
      }
      for (int p = 0; p < kServers; ++p) {
        if (const pfs::Bstream* bs = cluster.server(s).find_replica_bstream(
                file.handle(), p)) {
          EXPECT_TRUE(bs->verify_range(0, bs->size()).empty())
              << "r=" << r << " srv" << s << " replica of " << p;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, MediaEquivalence, ::testing::Range(0, 10));

}  // namespace
}  // namespace dtio
