// Hostile-request fuzzer for the I/O server's door check (check_request).
//
// Real requests are captured off the wire while a client runs small tile
// and 3-D block datatype accesses, FLASH-shaped list accesses, contiguous
// accesses and write-behind flushes (kBatchWrite). Each mutant changes a
// few of a seed's offsets, lengths, counts, displacements, run lists,
// sub-ops, encoded dataloop bytes, carried data, echoed per-file layout
// (servers, strip, start) or replica_of, gets its loop and payload CRCs
// recomputed so that it reaches the door, and goes raw to
// one I/O server. The checks:
//   * a mutant check_request refuses is answered kInvalidArgument;
//   * a mutant it accepts is served, unless it is a write whose carried
//     data differs from the bytes it maps to the server (the walk's own
//     check, also kInvalidArgument);
//   * each refusal adds exactly one to bad_requests;
//   * after every shard the same server serves a valid write and read.
// Valid mutants keep their window (and batch bytes) within 64 KiB: a valid
// but huge access is a resource question, not a validity one, and with
// page checksums on a read re-verifies a whole page per region it visits
// (a strided datatype row is a region of its own).
// Under the sanitizer build, this is the memory-safety proof of the check.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "dataloop/cursor.h"
#include "dataloop/serialize.h"
#include "net/fault.h"
#include "pfs/cluster.h"
#include "workloads/block3d.h"
#include "workloads/flash.h"
#include "workloads/tile.h"

namespace dtio {
namespace {

using pfs::Request;
using sim::Task;

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMaxValidBytes = 64 * 1024;
constexpr int kShards = 16;
constexpr int kServers = 4;
constexpr int kMutantsPerShard = 6250;

net::ClusterConfig fuzz_config(int variant) {
  net::ClusterConfig cfg;
  cfg.num_servers = kServers;
  cfg.num_clients = 1;
  cfg.strip_size = 1024;
  switch (variant) {
    case 1:  // buffer cache: every store access goes through BlockCache
      cfg.server.cache_block_bytes = 1024;
      cfg.server.cache_capacity_bytes = 64 * 1024;
      break;
    case 2:  // decoded loops come from the datatype cache
      cfg.server.dataloop_cache = true;
      break;
    case 3:  // page checksums: per-write CRCs and read verification
      cfg.server.block_checksums = true;
      break;
    default:
      break;
  }
  return cfg;
}

/// Record every data request a client sends while `body` runs, through a
/// fault plan whose corruptor copies the request and corrupts nothing.
void capture(net::ClusterConfig cfg,
             Task<void> (*body)(pfs::Client&, std::uint8_t*),
             std::vector<Request>& out) {
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  net::FaultPlan tap(1);
  tap.set_default_spec({.corrupt = 1.0});
  tap.set_corruptor([&out](sim::Message& msg, Rng&) {
    if (const auto* r = std::any_cast<Request>(&msg.body)) {
      if (pfs::is_data_read(r->op) || pfs::is_data_write(r->op)) {
        out.push_back(*r);
      }
    }
    return false;
  });
  cluster.network().set_fault_plan(&tap);
  std::vector<std::uint8_t> buf(64 * 1024);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131);
  }
  cluster.scheduler().spawn(body(*client, buf.data()));
  cluster.run();
}

Task<void> datatype_seeds(pfs::Client& c, std::uint8_t* buf) {
  const pfs::MetaResult f = co_await c.create("/seed_dt");
  workloads::TileConfig tile;
  tile.tiles_x = 2;
  tile.tiles_y = 2;
  tile.tile_width = 24;
  tile.tile_height = 6;
  tile.overlap_x = 4;
  tile.overlap_y = 2;
  for (int rank = 0; rank < tile.num_clients(); ++rank) {
    const dl::DataloopPtr loop = tile.tile_filetype(rank).dataloop();
    const std::int64_t bytes = tile.tile_bytes();
    (void)co_await c.write_datatype(f.handle, loop, 0, 2, 0, 2 * bytes, buf);
    (void)co_await c.read_datatype(f.handle, loop, 0, 2, bytes, bytes, buf);
  }
  workloads::Block3dConfig block;
  block.dim = 16;
  for (int rank = 0; rank < block.num_clients(); rank += 3) {
    const dl::DataloopPtr loop = block.block_filetype(rank).dataloop();
    const std::int64_t bytes = block.block_bytes();
    (void)co_await c.write_datatype(f.handle, loop, 0, 1, 0, bytes, buf);
    (void)co_await c.read_datatype(f.handle, loop, 0, 1, 0, bytes, buf);
  }
}

/// FLASH's file side as list I/O ships it: one run of back-to-back 8-byte
/// pieces per variable chunk; plus plain contiguous accesses.
Task<void> list_and_contig_seeds(pfs::Client& c, std::uint8_t* buf) {
  const pfs::MetaResult f = co_await c.create("/seed_list");
  workloads::FlashConfig flash;
  flash.blocks_per_proc = 2;
  flash.interior = 2;
  flash.guard = 1;
  flash.num_vars = 3;
  for (int rank = 0; rank < 2; ++rank) {
    std::vector<RegionRun> runs;
    for (const Region& r : dl::flatten(flash.filetype(2).dataloop(),
                                       flash.displacement(rank), 1)) {
      runs.push_back({r.offset, flash.var_bytes, r.length / flash.var_bytes});
    }
    const auto list = std::make_shared<const std::vector<RegionRun>>(runs);
    (void)co_await c.write_list(f.handle, list, buf);
    (void)co_await c.read_list(f.handle, list, buf);
  }
  (void)co_await c.write_contig(f.handle, 700, buf, 2000);
  (void)co_await c.read_contig(f.handle, 100, buf, 3000);
}

/// Write-behind flushes: the staged writes leave as kBatchWrite envelopes.
Task<void> batch_seeds(pfs::Client& c, std::uint8_t* buf) {
  const pfs::MetaResult f = co_await c.create("/seed_batch");
  for (std::int64_t i = 0; i < 6; ++i) {
    (void)co_await c.write_contig(f.handle, i * 1500, buf, 600);
  }
  (void)co_await c.flush_write_behind();
}

std::vector<Request> capture_seeds() {
  std::vector<Request> seeds;
  capture(fuzz_config(0), datatype_seeds, seeds);
  capture(fuzz_config(0), list_and_contig_seeds, seeds);
  net::ClusterConfig wb = fuzz_config(0);
  wb.client.write_behind_bytes = 1024 * 1024;
  capture(wb, batch_seeds, seeds);
  return seeds;
}

// ---- Mutation ---------------------------------------------------------------

std::int64_t interesting(Rng& rng, std::int64_t original) {
  static constexpr std::int64_t kValues[] = {
      0,         1,           -1,          -100,        -2000,
      7,         8,           1023,        1024,        1025,
      4096,      65536,       1 << 20,     (1 << 20) + 1, 1LL << 31,
      1LL << 32, 1LL << 62,   kMax,        kMax - 1,    kMax / 2,
      -kMax - 1, -kMax,       kMax - 1023,
  };
  // Near the original (or double it), wrapping like the wire would.
  const auto u = static_cast<std::uint64_t>(original);
  switch (rng.next_below(4)) {
    case 0:
      return static_cast<std::int64_t>(u + rng.next_below(33) - 16);
    case 1:
      return static_cast<std::int64_t>(u * 2);
    case 2:
      return static_cast<std::int64_t>(rng.next());
    default:
      return kValues[rng.next_below(std::size(kValues))];
  }
}

/// Replace `buf` by a resized private copy, or now and then by null.
void mutate_data(pfs::DataBuffer& buf, Rng& rng) {
  if (rng.next_below(8) == 0) {
    buf = nullptr;
    return;
  }
  static constexpr std::int64_t kSizes[] = {0, 1, 8, 16, 512, 4096};
  const std::int64_t old = buf ? std::ssize(*buf) : 0;
  std::int64_t n = kSizes[rng.next_below(std::size(kSizes))];
  switch (rng.next_below(4)) {
    case 0:
      n = old + static_cast<std::int64_t>(rng.next_below(17)) - 8;
      break;
    case 1:
      n = old / 2;
      break;
    case 2:
      n = old * 2;
      break;
    default:
      break;
  }
  n = std::clamp<std::int64_t>(n, 0, 2 * kMaxValidBytes);
  auto copy = std::make_shared<std::vector<std::uint8_t>>(
      static_cast<std::size_t>(n), std::uint8_t{0x5A});
  if (buf) std::copy_n(buf->begin(), std::min(n, old), copy->begin());
  buf = std::move(copy);
}

/// Flip a bit, set a byte, overwrite an 8-byte field, truncate or extend.
void mutate_loop_bytes(pfs::DatatypePayload& p, Rng& rng) {
  if (!p.encoded_loop || p.encoded_loop->empty()) return;
  auto bytes = std::make_shared<std::vector<std::uint8_t>>(*p.encoded_loop);
  const std::size_t n = bytes->size();
  std::uint8_t& byte = (*bytes)[rng.next_below(n)];
  switch (rng.next_below(5)) {
    case 0:
      byte ^= static_cast<std::uint8_t>(1U << rng.next_below(8));
      break;
    case 1:
      byte = static_cast<std::uint8_t>(rng.next());
      break;
    case 2: {
      // The encoding is a kind byte, then little-endian i64 fields.
      const std::size_t fields = std::max<std::size_t>(1, (n - 1) / 8);
      const std::size_t at = 1 + 8 * rng.next_below(fields);
      const std::int64_t v = interesting(rng, 0);
      if (at < n) {
        std::memcpy(bytes->data() + at, &v, std::min<std::size_t>(8, n - at));
      }
      break;
    }
    case 3:
      bytes->resize(rng.next_below(n));
      break;
    default:
      bytes->push_back(static_cast<std::uint8_t>(rng.next()));
      break;
  }
  p.encoded_loop = std::move(bytes);
}

/// Change a run's offset, length, count or stride, drop or repeat a run,
/// append one, or lose the list.
void mutate_runs(pfs::ListPayload& p, Rng& rng) {
  if (!p.runs || rng.next_below(32) == 0) {
    p.runs = rng.next_below(2) == 0
                 ? nullptr
                 : std::make_shared<const std::vector<RegionRun>>();
    return;
  }
  std::vector<RegionRun> runs = *p.runs;
  if (runs.empty() || rng.next_below(8) == 0) {
    runs.push_back(
        {interesting(rng, 0), interesting(rng, 8), interesting(rng, 1)});
  } else {
    const auto at = runs.begin() + static_cast<std::ptrdiff_t>(
                                       rng.next_below(runs.size()));
    const RegionRun run = *at;
    switch (rng.next_below(6)) {
      case 0:
        at->offset = interesting(rng, run.offset);
        break;
      case 1:
        at->length = at->stride = interesting(rng, run.length);
        break;
      case 2:
        at->count = interesting(rng, run.count);
        break;
      case 3:
        at->stride = interesting(rng, run.stride);
        break;
      case 4:
        runs.erase(at);
        break;
      default:
        runs.insert(at, run);
        break;
    }
  }
  p.runs = std::make_shared<const std::vector<RegionRun>>(std::move(runs));
}

/// Change a sub-op's offset, length or data, drop or repeat a sub-op, or
/// append one.
void mutate_sub_ops(pfs::BatchPayload& p, Rng& rng) {
  auto& subs = p.sub_ops;
  if (subs.empty() || rng.next_below(8) == 0) {
    pfs::BatchSubOp sub;
    sub.offset = interesting(rng, 0);
    sub.length = interesting(rng, 16);
    mutate_data(sub.data, rng);
    subs.push_back(std::move(sub));
    return;
  }
  const std::size_t i = rng.next_below(subs.size());
  switch (rng.next_below(5)) {
    case 0:
      subs[i].offset = interesting(rng, subs[i].offset);
      break;
    case 1:
      subs[i].length = interesting(rng, subs[i].length);
      break;
    case 2:
      mutate_data(subs[i].data, rng);
      break;
    case 3:
      subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    default:
      subs.push_back(subs[i]);
      break;
  }
}

/// Change the per-file layout `r` echoes or the replica it names: half
/// the time to a small value around the cluster's, half the time to an
/// interesting() one.
void mutate_layout(Request& r, Rng& rng) {
  const bool near = rng.next_below(2) == 0;
  const auto pick = [&](std::int64_t lo, std::int64_t hi,
                        std::int64_t original) {
    return near ? lo + static_cast<std::int64_t>(rng.next_below(
                           static_cast<std::uint64_t>(hi - lo + 1)))
                : interesting(rng, original);
  };
  switch (rng.next_below(4)) {
    case 0:
      r.layout_servers =
          static_cast<int>(pick(-1, kServers + 1, r.layout_servers));
      break;
    case 1:
      r.layout_strip = pick(-1, 2048, r.layout_strip);
      break;
    case 2:
      r.layout_start = static_cast<int>(pick(-1, kServers, r.layout_start));
      break;
    default:
      r.replica_of = static_cast<int>(pick(-2, kServers, r.replica_of));
      break;
  }
}

/// Mutate one field of `r`'s layout echo, descriptor or data.
void mutate_once(Request& r, Rng& rng) {
  if (rng.next_below(8) == 0) return mutate_layout(r, rng);
  std::vector<std::int64_t*> numbers;
  std::visit(
      [&](auto& p) {
        using P = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<P, pfs::ContigPayload>) {
          numbers = {&p.offset, &p.length};
        } else if constexpr (std::is_same_v<P, pfs::DatatypePayload>) {
          if (rng.next_below(3) == 0) return mutate_loop_bytes(p, rng);
          numbers = {&p.displacement, &p.count, &p.stream_offset,
                     &p.stream_length};
        } else if constexpr (std::is_same_v<P, pfs::ListPayload>) {
          if (rng.next_below(4) != 0) return mutate_runs(p, rng);
        } else if constexpr (std::is_same_v<P, pfs::BatchPayload>) {
          return mutate_sub_ops(p, rng);
        }
        if constexpr (requires { p.data; }) {
          if (numbers.empty() || rng.next_below(4) == 0) {
            return mutate_data(p.data, rng);
          }
        }
        if (numbers.empty()) return;
        std::int64_t& field = *numbers[rng.next_below(numbers.size())];
        field = interesting(rng, field);
      },
      r.payload);
}

/// Recompute the loop and payload CRCs so the mutant passes the integrity
/// check and reaches the door.
void reseal(Request& r) {
  std::visit(
      [&r](auto& p) {
        using P = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<P, pfs::BatchPayload>) {
          for (pfs::BatchSubOp& sub : p.sub_ops) {
            sub.has_payload_crc = sub.data != nullptr;
            sub.payload_crc = sub.data ? crc32(*sub.data) : 0;
          }
        } else if constexpr (requires { p.data; }) {
          if constexpr (std::is_same_v<P, pfs::DatatypePayload>) {
            p.loop_crc = p.encoded_loop ? crc32(*p.encoded_loop) : 0;
          }
          r.has_payload_crc = p.data != nullptr;
          r.payload_crc = p.data ? crc32(*p.data) : 0;
        }
      },
      r.payload);
}

/// What the door will say, and whether an accepted mutant is small enough
/// to send (its window, or a batch's bytes, within kMaxValidBytes).
struct Verdict {
  pfs::RequestCheck check;
  bool small = true;
};

Verdict judge(const Request& r) {
  dl::DataloopPtr loop;
  if (const auto* p = std::get_if<pfs::DatatypePayload>(&r.payload)) {
    if (p->encoded_loop) {
      try {
        loop = dl::decode(*p->encoded_loop);
      } catch (const std::invalid_argument&) {
      }
    }
  }
  Verdict v{pfs::check_request(r, loop.get(), kServers)};
  if (!v.check.ok()) return v;
  std::int64_t bytes = v.check.window;
  if (const auto* p = std::get_if<pfs::BatchPayload>(&r.payload)) {
    for (const pfs::BatchSubOp& sub : p->sub_ops) {
      bytes = sub.length > kMaxValidBytes - bytes ? kMaxValidBytes + 1
                                                  : bytes + sub.length;
    }
  }
  v.small = bytes <= kMaxValidBytes;
  return v;
}

/// Whether `r` is a contig, list or datatype write carrying data: the only
/// kind the walk can still refuse once the door let it in.
bool carries_write_data(const Request& r) {
  return r.carry_data && pfs::is_data_write(r.op) &&
         std::visit(
             [](const auto& p) {
               if constexpr (requires { p.data; }) {
                 return p.data != nullptr;
               } else {
                 return false;
               }
             },
             r.payload);
}

struct ShardResult {
  int sent = 0;
  int refused_at_door = 0;
  int refused_after_walk = 0;
  bool served = false;
};

Task<void> fuzz_shard(pfs::Client& c, net::Network& net, pfs::IOServer& server,
                      int node, const std::vector<Request>& seeds, Rng& rng,
                      ShardResult& result) {
  const pfs::MetaResult f = co_await c.create("/fuzz");
  EXPECT_TRUE(f.status.is_ok());
  std::uint64_t seq = 1ULL << 40;  // clear of the client's own op_seqs
  while (result.sent < kMutantsPerShard) {
    Request r = seeds[rng.next_below(seeds.size())];
    const int rounds = 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < rounds; ++k) mutate_once(r, rng);
    if (rng.next_below(16) == 0) r.carry_data = !r.carry_data;
    r.handle = f.handle;
    r.client_node = node;
    // Fresh replay identities, so no mutant is answered from the replay
    // window; a batch envelope itself stays unsequenced.
    r.op_seq = r.op == pfs::OpKind::kBatchWrite ? 0 : ++seq;
    if (auto* batch = std::get_if<pfs::BatchPayload>(&r.payload)) {
      for (pfs::BatchSubOp& sub : batch->sub_ops) {
        sub.handle = f.handle;
        sub.op_seq = ++seq;
      }
    }
    reseal(r);
    const Verdict verdict = judge(r);
    if (!verdict.small) continue;

    const bool carried_write = carries_write_data(r);
    const std::uint64_t tag = pfs::kTagReplyBase + seq;
    r.reply_tag = tag;
    const std::uint64_t bad_before = server.stats().bad_requests;
    net.mailbox(node).claim(tag);
    co_await net.send(node, 0,
                      sim::Message(node, pfs::kTagRequest, 64, std::move(r)));
    sim::Message msg = *co_await net.mailbox(node).recv(0, tag);
    net.mailbox(node).retire(tag);
    const pfs::Reply reply = msg.take<pfs::Reply>();
    ++result.sent;

    const std::uint64_t counted = server.stats().bad_requests - bad_before;
    if (!verdict.check.ok()) {
      ++result.refused_at_door;
      EXPECT_EQ(reply.code, StatusCode::kInvalidArgument)
          << "mutant " << result.sent << ": " << verdict.check.error;
    } else if (!reply.ok) {
      ++result.refused_after_walk;
      EXPECT_TRUE(carried_write) << "mutant " << result.sent << ": "
                                 << reply.error;
      EXPECT_EQ(reply.code, StatusCode::kInvalidArgument) << reply.error;
    }
    EXPECT_EQ(counted, reply.ok ? 0u : 1u) << "mutant " << result.sent;
    if (::testing::Test::HasFailure()) co_return;
  }

  // The same server still serves a valid write and read.
  std::vector<std::uint8_t> src(3000);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  EXPECT_TRUE(
      (co_await c.write_contig(f.handle, 0, src.data(), 3000)).is_ok());
  std::vector<std::uint8_t> back(3000, 0);
  EXPECT_TRUE(
      (co_await c.read_contig(f.handle, 0, back.data(), 3000)).is_ok());
  result.served = back == src;
}

class RequestFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RequestFuzz, DoorRefusesEachHostileRequestOnceAndKeepsServing) {
  static const std::vector<Request> seeds = capture_seeds();
  ASSERT_GT(seeds.size(), 20u);
  for (const pfs::OpKind op :
       {pfs::OpKind::kContigWrite, pfs::OpKind::kListRead,
        pfs::OpKind::kDatatypeWrite, pfs::OpKind::kDatatypeRead,
        pfs::OpKind::kBatchWrite}) {
    EXPECT_TRUE(std::any_of(seeds.begin(), seeds.end(),
                            [op](const Request& r) { return r.op == op; }))
        << pfs::op_name(op);
  }
  for (const Request& seed : seeds) {
    ASSERT_TRUE(judge(seed).check.ok()) << pfs::op_name(seed.op);
  }

  const int shard = GetParam();
  Rng rng(mix_seed(run_seed(1), static_cast<std::uint64_t>(shard)));
  pfs::Cluster cluster(fuzz_config(shard % 4));
  auto client = cluster.make_client(0);
  ShardResult result;
  cluster.scheduler().spawn(fuzz_shard(*client, cluster.network(),
                                       cluster.server(0),
                                       cluster.config().client_node(0), seeds,
                                       rng, result));
  cluster.run();
  EXPECT_EQ(result.sent, kMutantsPerShard);
  EXPECT_EQ(cluster.server(0).stats().bad_requests,
            static_cast<std::uint64_t>(result.refused_at_door +
                                       result.refused_after_walk));
  // Both outcomes are common: the mutants probe the boundary.
  EXPECT_GT(result.refused_at_door, kMutantsPerShard / 10);
  EXPECT_GT(result.sent - result.refused_at_door, kMutantsPerShard / 10);
  EXPECT_GT(result.refused_after_walk, 0);
  EXPECT_TRUE(result.served);
}

INSTANTIATE_TEST_SUITE_P(Shards, RequestFuzz, ::testing::Range(0, kShards));

}  // namespace
}  // namespace dtio
