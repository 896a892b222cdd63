// Hostile-reply fuzzer for the reply check (check_reply).
//
// A client runs tile and 3-D block datatype accesses, FLASH-shaped list
// accesses and contiguous accesses, write-behind flushes (kBatchWrite
// acks), metadata create/open/stat and, at replication 2, server crashes
// whose restart resync pulls strips from ring peers. One reply of each op
// is rewritten in flight by the fault plan's corruptor: a few of its
// header fields change (ok and code, bytes, data length, the echoed
// layout, local_size, a shed's retry_after, batch sub_acked, resync
// extents), and its payload_crc is restamped so that it reaches the
// check. check_reply, called here with what the receiver knows, says
// whether the mutant must be refused. The checks, for every op:
//   * it ends with the oracle's exact bytes or a typed error: an OK read
//     returns the oracle's bytes, an OK stat the file's size (unless the
//     mutant told a size or layout the rule cannot tell from the truth),
//     and a clean read of the whole file after the op returns the
//     oracle's bytes;
//   * each refusal adds exactly one to the client's bad_replies; a
//     refused resync reply adds none (the server retries the peer);
//   * after every shard the same cluster serves a clean write and read.
// Under the sanitizer build, this is the memory-safety proof of the check
// and of everything a reply it accepts reaches.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <array>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "dataloop/cursor.h"
#include "net/fault.h"
#include "pfs/cluster.h"
#include "workloads/block3d.h"
#include "workloads/flash.h"
#include "workloads/tile.h"

namespace dtio {
namespace {

using pfs::Reply;
using pfs::Request;
using sim::Task;

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr int kShards = 16;
constexpr int kServers = 4;
constexpr std::int64_t kStrip = 1024;
constexpr std::int64_t kFileBytes = 16 * 1024;
constexpr int kMutantsPerShard = 6250;

enum class Variant { kPlain, kWriteBehind, kMeta, kReplicated };

net::ClusterConfig fuzz_config(Variant variant) {
  net::ClusterConfig cfg;
  cfg.num_servers = kServers;
  cfg.num_clients = 1;
  cfg.strip_size = kStrip;
  switch (variant) {
    case Variant::kPlain:
      break;
    case Variant::kWriteBehind:
      cfg.client.write_behind_bytes = 1024 * 1024;
      break;
    case Variant::kMeta:  // the file's layout is echoed on every reply path
      cfg.meta_shards = 2;
      cfg.per_file_layouts = true;
      cfg.layout_small_file_bytes = 4 * kFileBytes;
      cfg.layout_small_servers = 2;
      break;
    case Variant::kReplicated:
      // A deadline turns replication on at the client; write-back caches
      // lose dirty strips in a crash, which resync then pulls back.
      cfg.replication = 2;
      cfg.client.rpc_timeout = kSecond;
      cfg.server.cache_block_bytes = 256;
      cfg.server.cache_capacity_bytes = 64 * 256;
      cfg.server.cache_dirty_watermark = 1.0;
      break;
  }
  return cfg;
}

// ---- Accesses and the oracle ------------------------------------------------

/// One access the ops read or write: its file regions in stream order,
/// and what the client ships for it.
struct Access {
  enum class Kind { kContig, kList, kDatatype };
  Kind kind = Kind::kContig;
  std::vector<Region> regions;
  pfs::ListRuns runs;
  dl::DataloopPtr loop;
  std::int64_t count = 0;
  std::int64_t bytes = 0;
};

Access datatype_access(const types::Datatype& type, std::int64_t count) {
  Access a;
  a.kind = Access::Kind::kDatatype;
  a.loop = type.dataloop();
  a.count = count;
  a.regions = dl::flatten(a.loop, 0, count);
  for (const Region& r : a.regions) a.bytes += r.length;
  return a;
}

std::vector<Access> make_accesses() {
  std::vector<Access> out;
  workloads::TileConfig tile;
  tile.tiles_x = 2;
  tile.tiles_y = 2;
  tile.tile_width = 24;
  tile.tile_height = 6;
  tile.overlap_x = 4;
  tile.overlap_y = 2;
  for (int rank = 0; rank < tile.num_clients(); ++rank) {
    out.push_back(datatype_access(tile.tile_filetype(rank), 2));
  }
  workloads::Block3dConfig block;
  block.dim = 16;
  for (int rank = 0; rank < block.num_clients(); rank += 3) {
    out.push_back(datatype_access(block.block_filetype(rank), 1));
  }
  // FLASH's file side as list I/O ships it: one run of back-to-back
  // 8-byte pieces per variable chunk.
  workloads::FlashConfig flash;
  flash.blocks_per_proc = 2;
  flash.interior = 2;
  flash.guard = 1;
  flash.num_vars = 3;
  for (int rank = 0; rank < 2; ++rank) {
    Access a;
    a.kind = Access::Kind::kList;
    a.regions = dl::flatten(flash.filetype(2).dataloop(),
                            flash.displacement(rank), 1);
    std::vector<RegionRun> runs;
    for (const Region& r : a.regions) {
      runs.push_back({r.offset, flash.var_bytes, r.length / flash.var_bytes});
      a.bytes += r.length;
    }
    a.runs = std::make_shared<const std::vector<RegionRun>>(std::move(runs));
    out.push_back(std::move(a));
  }
  for (const Region r : {Region{700, 2000}, Region{100, 3000},
                         Region{0, kFileBytes}}) {
    Access a;
    a.regions = {r};
    a.bytes = r.length;
    out.push_back(std::move(a));
  }
  return out;
}

Task<Status> issue(pfs::Client& c, std::uint64_t h, const Access& a,
                   bool write, std::uint8_t* stream) {
  switch (a.kind) {
    case Access::Kind::kContig: {
      const Region r = a.regions.front();
      return write ? c.write_contig(h, r.offset, stream, r.length)
                   : c.read_contig(h, r.offset, stream, r.length);
    }
    case Access::Kind::kList:
      return write ? c.write_list(h, a.runs, stream)
                   : c.read_list(h, a.runs, stream);
    case Access::Kind::kDatatype:
      break;
  }
  return write ? c.write_datatype(h, a.loop, 0, a.count, 0, a.bytes, stream)
               : c.read_datatype(h, a.loop, 0, a.count, 0, a.bytes, stream);
}

std::vector<std::uint8_t> gather(const std::vector<std::uint8_t>& file,
                                 const Access& a) {
  std::vector<std::uint8_t> out;
  for (const Region& r : a.regions) {
    out.insert(out.end(), file.begin() + r.offset, file.begin() + r.end());
  }
  return out;
}

void scatter(std::vector<std::uint8_t>& file, const Access& a,
             const std::vector<std::uint8_t>& stream) {
  std::int64_t at = 0;
  for (const Region& r : a.regions) {
    std::copy_n(stream.begin() + at, r.length, file.begin() + r.offset);
    at += r.length;
  }
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::int64_t n) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(n));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// ---- Mutation ---------------------------------------------------------------

std::int64_t interesting(Rng& rng, std::int64_t original) {
  static constexpr std::int64_t kValues[] = {
      0,         1,         -1,          -100,        7,
      8,         1023,      1024,        1025,        4096,
      16384,     65536,     1LL << 31,   1LL << 32,   (1LL << 62) - 1,
      1LL << 62, kMax,      kMax - 1,    kMax / 2,    -kMax - 1,
      -kMax,     kMax - 1023,
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
  static constexpr std::int64_t kSizes[] = {0, 1, 8, 512, 1024, 4096};
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
  n = std::clamp<std::int64_t>(n, 0, 4 * kFileBytes);
  auto copy = std::make_shared<std::vector<std::uint8_t>>(
      static_cast<std::size_t>(n), std::uint8_t{0x5A});
  if (buf) std::copy_n(buf->begin(), std::min(n, old), copy->begin());
  buf = std::move(copy);
}

/// A value in [lo, hi] half the time, an interesting() one otherwise.
std::int64_t near_or_interesting(Rng& rng, std::int64_t lo, std::int64_t hi,
                                 std::int64_t original) {
  if (rng.next_below(2) == 0) {
    return lo + static_cast<std::int64_t>(
                    rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }
  return interesting(rng, original);
}

void mutate_layout(Reply& r, Rng& rng) {
  switch (rng.next_below(3)) {
    case 0:
      r.layout_servers = static_cast<int>(
          near_or_interesting(rng, -1, kServers + 1, r.layout_servers));
      break;
    case 1:
      r.layout_strip = near_or_interesting(rng, -1, 2048, r.layout_strip);
      break;
    default:
      r.layout_start = static_cast<int>(
          near_or_interesting(rng, -1, kServers, r.layout_start));
      break;
  }
}

void mutate_sub_acked(std::vector<std::uint8_t>& acked, Rng& rng) {
  static constexpr std::uint8_t kValues[] = {0, 1, 2, 0xFF};
  if (acked.empty() || rng.next_below(3) == 0) {
    acked.push_back(kValues[rng.next_below(std::size(kValues))]);
  } else if (rng.next_below(2) == 0) {
    acked.pop_back();
  } else {
    acked[rng.next_below(acked.size())] =
        kValues[rng.next_below(std::size(kValues))];
  }
}

/// Change an extent's primary, strip, offset (alone or in step with its
/// strip), length or data; drop or repeat an extent, or add one.
void mutate_extents(std::vector<pfs::ResyncExtent>& extents,
                    std::uint64_t handle, Rng& rng) {
  if (extents.empty() || rng.next_below(8) == 0) {
    pfs::ResyncExtent e;
    e.handle = handle;
    e.primary = static_cast<int>(rng.next_below(kServers));
    e.strip = static_cast<std::int64_t>(rng.next_below(16));
    e.offset = e.strip * kStrip;
    e.length = kStrip;
    e.epoch = rng.next();
    mutate_data(e.data, rng);
    extents.push_back(std::move(e));
    return;
  }
  const std::size_t i = rng.next_below(extents.size());
  pfs::ResyncExtent& e = extents[i];
  switch (rng.next_below(7)) {
    case 0:
      e.primary = static_cast<int>(
          near_or_interesting(rng, -1, kServers, e.primary));
      break;
    case 1:
      e.strip = interesting(rng, e.strip);
      break;
    case 2:
      e.offset = interesting(rng, e.offset);
      break;
    case 3:
      e.strip = interesting(rng, e.strip);
      e.offset = static_cast<std::int64_t>(static_cast<std::uint64_t>(e.strip) *
                                           static_cast<std::uint64_t>(kStrip));
      break;
    case 4:
      e.length = near_or_interesting(rng, -1, kStrip + 1, e.length);
      break;
    case 5:
      mutate_data(e.data, rng);
      break;
    default:
      if (rng.next_below(2) == 0) {
        extents.erase(extents.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        extents.push_back(extents[i]);
      }
      break;
  }
}

/// Mutate one header field of `r`, a reply to `request`.
void mutate_once(Reply& r, const Request& request, std::uint64_t handle,
                 Rng& rng) {
  if (request.op == pfs::OpKind::kResyncPull && rng.next_below(2) == 0) {
    return mutate_extents(r.resync, handle, rng);
  }
  if (request.op == pfs::OpKind::kBatchWrite && rng.next_below(4) == 0) {
    return mutate_sub_acked(r.sub_acked, rng);
  }
  switch (rng.next_below(7)) {
    case 0: {
      static constexpr StatusCode kCodes[] = {
          StatusCode::kOk,          StatusCode::kNotFound,
          StatusCode::kDataLoss,    StatusCode::kOverloaded,
          StatusCode::kUnavailable, StatusCode::kInvalidArgument,
          StatusCode::kInternal};
      r.ok = !r.ok;
      r.code = r.ok ? StatusCode::kOk
                    : kCodes[rng.next_below(std::size(kCodes))];
      if (!r.ok) r.error = "mutant";
      break;
    }
    case 1:
      r.bytes = interesting(rng, r.bytes);
      break;
    case 2:
      mutate_data(r.data, rng);
      break;
    case 3:  // data and its byte count agree; only the mapping can tell
      mutate_data(r.data, rng);
      r.bytes = r.data ? std::ssize(*r.data) : 0;
      break;
    case 4:
      mutate_layout(r, rng);
      break;
    case 5:
      r.local_size = interesting(rng, r.local_size);
      break;
    default:  // shed, with a wait of a few ms or an interesting one
      r.ok = false;
      r.code = StatusCode::kOverloaded;
      r.error = "mutant shed";
      r.retry_after = rng.next_below(2) == 0
                          ? static_cast<SimTime>(rng.next_below(10)) *
                                kMillisecond
                          : interesting(rng, r.retry_after);
      break;
  }
}

// ---- The tap: capture requests, mutate one reply ----------------------------

/// Corruptor state. Records every request by reply tag (no two requests
/// of one op share a tag), and rewrites the reply after `skip` more
/// replies while armed, judging the mutant with check_reply.
struct Tap {
  sim::Scheduler* sched = nullptr;
  pfs::FileLayout global{kServers, kStrip};
  pfs::FileLayout file_layout{kServers, kStrip};  ///< the fuzz file's
  std::uint64_t handle = 0;                       ///< the fuzz file
  int client_replication = 1;  ///< Client::effective_replication()
  int replication = 1;         ///< ClusterConfig::replication
  Rng rng{1};
  std::unordered_map<std::uint64_t, Request> sent;
  int skip = -1;  ///< replies to let pass before the mutant; -1 = disarmed

  // The mutant, once made.
  bool mutated = false;
  bool refused = false;  ///< check_reply (or, for a pull, !ok) refuses it
  bool lied = false;     ///< accepted with a changed layout or local_size
  bool pull = false;     ///< a resync pull reply

  void arm(int replies_to_skip) {
    sent.clear();
    skip = replies_to_skip;
    mutated = refused = lied = pull = false;
  }

  bool operator()(sim::Message& msg) {
    if (const auto* request = std::any_cast<Request>(&msg.body)) {
      sent.insert_or_assign(request->reply_tag, *request);
      return false;
    }
    auto* reply = std::any_cast<Reply>(&msg.body);
    const auto it = sent.find(msg.tag);
    if (reply == nullptr || it == sent.end() || skip < 0 || skip-- > 0) {
      return false;
    }
    skip = -1;
    const Request& request = it->second;
    const Reply honest = *reply;
    const int rounds = 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < rounds; ++k) mutate_once(*reply, request, handle, rng);
    if (reply->data && honest.data) {
      // A mutant changes the data's length, never the honest bytes it
      // keeps (a shrink then a regrowth would pad over them).
      auto data = std::make_shared<std::vector<std::uint8_t>>(
          reply->data->size(), std::uint8_t{0x5A});
      std::copy_n(honest.data->begin(),
                  std::min(honest.data->size(), data->size()), data->begin());
      reply->data = std::move(data);
    }
    if (reply->has_payload_crc && reply->data) {
      reply->payload_crc = crc32(*reply->data);
    }
    mutated = true;
    pull = request.op == pfs::OpKind::kResyncPull;
    // What the receiver holds the reply to: for a data reply, the honest
    // reply's byte count is the count the client mapped there.
    const pfs::ReplyContext context{
        pull || request.handle != handle ? &global : &file_layout,
        pull ? replication : client_replication, honest.bytes, sched->now()};
    refused = (pull && !reply->ok) ||
              pfs::check_reply(request, *reply, context) != nullptr;
    lied = !refused && (reply->layout_servers != honest.layout_servers ||
                        reply->layout_strip != honest.layout_strip ||
                        reply->layout_start != honest.layout_start ||
                        reply->local_size != honest.local_size);
    return true;
  }
};

// ---- Ops --------------------------------------------------------------------

enum class Op { kRead, kWrite, kBatch, kCreate, kOpen, kStat, kStatPath,
                kResync, kCount };

constexpr std::array<const char*, static_cast<std::size_t>(Op::kCount)>
    kOpNames = {"read", "write", "batch", "create", "open", "stat",
                "stat_path", "resync"};

std::vector<Op> menu(Variant variant) {
  switch (variant) {
    case Variant::kPlain:
      return {Op::kRead, Op::kWrite};
    case Variant::kWriteBehind:
      return {Op::kRead, Op::kBatch, Op::kBatch};
    case Variant::kMeta:
      return {Op::kCreate, Op::kOpen, Op::kStat, Op::kStatPath, Op::kRead};
    case Variant::kReplicated:
      break;
  }
  return {Op::kRead, Op::kWrite, Op::kRead, Op::kWrite, Op::kResync};
}

/// Replies an op takes, roughly: the mutant is one of the first this many.
int reply_span(Op op) {
  switch (op) {
    case Op::kCreate:
    case Op::kOpen:
      return 1;
    case Op::kResync:
      return 2;
    default:
      return 4;
  }
}

struct PerOp {
  int mutants = 0;
  int refused = 0;
};

struct ShardResult {
  int mutants = 0;
  int refused = 0;
  int client_refused = 0;
  std::array<PerOp, static_cast<std::size_t>(Op::kCount)> per_op{};
  bool served = false;
};

/// Read the whole file with no mutant armed; true when it is the oracle.
Task<bool> file_is(pfs::Client& c, std::uint64_t h,
                   const std::vector<std::uint8_t>& oracle) {
  std::vector<std::uint8_t> back(oracle.size(), 0xEE);
  const Status st =
      co_await c.read_contig(h, 0, back.data(), std::ssize(back));
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  co_return back == oracle;
}

Task<void> fuzz_shard(pfs::Cluster& cluster, pfs::Client& c, Tap& tap,
                      Variant variant, Rng& rng, ShardResult& result) {
  const pfs::MetaResult f = co_await c.create("/fuzz", kFileBytes);
  EXPECT_TRUE(f.status.is_ok()) << f.status.to_string();
  tap.handle = f.handle;
  tap.file_layout = c.layout_for(f.handle);
  std::vector<std::uint8_t> oracle = random_bytes(rng, kFileBytes);
  EXPECT_TRUE((co_await c.write_contig(f.handle, 0, oracle.data(),
                                       kFileBytes))
                  .is_ok());
  const std::vector<Access> accesses = make_accesses();
  const std::vector<Op> ops = menu(variant);
  int files = 0;

  while (result.mutants < kMutantsPerShard) {
    const Op op = ops[rng.next_below(ops.size())];
    const Access& a = accesses[rng.next_below(accesses.size())];
    if (op == Op::kResync) {
      // Dirty write-back strips on every server, so the restarted one has
      // strips to pull back.
      const std::int64_t at =
          static_cast<std::int64_t>(rng.next_below(kFileBytes / 4096)) * 4096;
      const std::vector<std::uint8_t> bytes = random_bytes(rng, 4096);
      std::copy(bytes.begin(), bytes.end(), oracle.begin() + at);
      EXPECT_TRUE(
          (co_await c.write_contig(f.handle, at, bytes.data(), 4096)).is_ok());
    }
    const std::uint64_t bad_before = c.bad_replies();
    tap.arm(static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(reply_span(op)))));
    Status st;
    switch (op) {
      case Op::kRead: {
        std::vector<std::uint8_t> got(static_cast<std::size_t>(a.bytes), 0xEE);
        st = co_await issue(c, f.handle, a, false, got.data());
        if (st.is_ok()) {
          EXPECT_TRUE(got == gather(oracle, a))
              << "read mutant " << result.mutants + 1;
        }
        break;
      }
      case Op::kWrite:
      case Op::kBatch: {
        // Written whatever the reply says: every server applies its part
        // before replying. A batch stages and flushes.
        std::vector<std::uint8_t> bytes = random_bytes(rng, a.bytes);
        scatter(oracle, a, bytes);
        st = co_await issue(c, f.handle, a, true, bytes.data());
        if (op == Op::kBatch && st.is_ok()) {
          st = co_await c.flush_write_behind();
        }
        break;
      }
      case Op::kCreate:
        st = (co_await c.create("/m" + std::to_string(files++), 1024)).status;
        break;
      case Op::kOpen: {
        const pfs::MetaResult r = co_await c.open("/fuzz");
        st = r.status;
        if (st.is_ok()) {
          EXPECT_EQ(r.handle, f.handle);
        }
        break;
      }
      case Op::kStat:
      case Op::kStatPath: {
        pfs::MetaResult r;
        if (op == Op::kStat) {
          r = co_await c.stat_handle(f.handle);
        } else {
          r = co_await c.stat("/fuzz");
        }
        st = r.status;
        if (st.is_ok() && !tap.lied) {
          EXPECT_EQ(r.size, kFileBytes);
        }
        break;
      }
      case Op::kResync: {
        const int s = static_cast<int>(rng.next_below(kServers));
        sim::Scheduler& sched = cluster.scheduler();
        cluster.schedule_server_crash(s, sched.now() + kMillisecond,
                                      10 * kMillisecond);
        co_await sched.delay(12 * kMillisecond);
        while (cluster.server(s).resyncing()) {
          co_await sched.delay(10 * kMillisecond);
        }
        break;
      }
      case Op::kCount:
        break;
    }
    tap.skip = -1;
    if (!tap.mutated) continue;  // the op took fewer replies than armed for

    auto& per = result.per_op[static_cast<std::size_t>(op)];
    ++result.mutants;
    ++per.mutants;
    if (tap.refused) {
      ++result.refused;
      ++per.refused;
    }
    const bool client_refusal = tap.refused && !tap.pull;
    if (client_refusal) ++result.client_refused;
    EXPECT_EQ(c.bad_replies() - bad_before, client_refusal ? 1u : 0u)
        << kOpNames[static_cast<std::size_t>(op)] << " mutant "
        << result.mutants << ": " << st.to_string();
    if (client_refusal) {
      EXPECT_EQ(st.code(), StatusCode::kInternal) << st.to_string();
    }
    // A lie the rule cannot see is undone before the file is checked: a
    // layout by a clean open, an accepted resync reply by rewriting the
    // file.
    if (tap.lied) (void)co_await c.open("/fuzz");
    if (tap.pull && !tap.refused) {
      EXPECT_TRUE((co_await c.write_contig(f.handle, 0, oracle.data(),
                                           kFileBytes))
                      .is_ok());
    }
    EXPECT_TRUE(co_await file_is(c, f.handle, oracle))
        << kOpNames[static_cast<std::size_t>(op)] << " mutant "
        << result.mutants << " left the file off the oracle";
    if (::testing::Test::HasFailure()) co_return;
  }

  // The same cluster still serves a clean write and read.
  oracle = random_bytes(rng, kFileBytes);
  EXPECT_TRUE(
      (co_await c.write_contig(f.handle, 0, oracle.data(), kFileBytes))
          .is_ok());
  if (variant == Variant::kWriteBehind) {
    EXPECT_TRUE((co_await c.flush_write_behind()).is_ok());
  }
  result.served = co_await file_is(c, f.handle, oracle);
}

class ReplyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ReplyFuzz, ClientRefusesEachHostileReplyOnceAndKeepsServing) {
  const int shard = GetParam();
  const auto variant = static_cast<Variant>(shard % 4);
  Rng rng(mix_seed(run_seed(1), static_cast<std::uint64_t>(shard)));
  pfs::Cluster cluster(fuzz_config(variant));
  auto client = cluster.make_client(0);
  Tap tap;
  tap.sched = &cluster.scheduler();
  tap.client_replication = client->effective_replication();
  tap.replication = cluster.config().replication;
  tap.rng = Rng(mix_seed(rng.next(), 0x7A9));
  net::FaultPlan plan(1);
  plan.set_default_spec({.corrupt = 1.0});
  plan.set_corruptor([&tap](sim::Message& msg, Rng&) { return tap(msg); });
  cluster.set_fault_plan(&plan);

  ShardResult result;
  cluster.scheduler().spawn(
      fuzz_shard(cluster, *client, tap, variant, rng, result));
  cluster.run();
  EXPECT_EQ(result.mutants, kMutantsPerShard);
  EXPECT_EQ(client->bad_replies(),
            static_cast<std::uint64_t>(result.client_refused));
  // Both outcomes are common: the mutants probe the boundary.
  EXPECT_GT(result.refused, kMutantsPerShard / 10);
  EXPECT_GT(result.mutants - result.refused, kMutantsPerShard / 10);
  for (const Op op : menu(variant)) {
    const PerOp& per = result.per_op[static_cast<std::size_t>(op)];
    EXPECT_GT(per.refused, 0) << kOpNames[static_cast<std::size_t>(op)];
    EXPECT_GT(per.mutants - per.refused, 0)
        << kOpNames[static_cast<std::size_t>(op)];
  }
  EXPECT_TRUE(result.served);
}

INSTANTIATE_TEST_SUITE_P(Shards, ReplyFuzz, ::testing::Range(0, kShards));

}  // namespace
}  // namespace dtio
