// Tests for the access-method layer and MPI-IO facade: every method must
// produce byte-identical files and buffers (cross-method write/read
// matrix), two-phase must redistribute correctly across ranks, and the
// per-method I/O characteristics (op counts, accessed bytes) must match
// the analytic expectations that back the paper's Tables 1-3.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "collective/comm.h"
#include "common/rng.h"
#include "io/joint.h"
#include "io/methods.h"
#include "mpiio/file.h"
#include "pfs/cluster.h"
#include "types/datatype.h"
#include "workloads/block3d.h"
#include "workloads/flash.h"
#include "workloads/tile.h"

namespace dtio {
namespace {

using mpiio::Method;
using sim::Task;

net::ClusterConfig test_config(int servers = 4, int clients = 2,
                               bool locking = false) {
  net::ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.num_clients = clients;
  cfg.strip_size = 1024;
  cfg.sieve_buffer_size = 8 * 1024;
  cfg.cb_buffer_size = 8 * 1024;
  cfg.file_locking = locking;
  return cfg;
}

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> data(n);
  Rng rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

/// One simulated process writing `count` memtype instances through `view`,
/// then reading back with (possibly) a different method.
struct RwResult {
  Status write_status;
  Status read_status;
  std::vector<std::uint8_t> read_back;
  IoStats stats;
};

RwResult run_write_read(Method write_method, Method read_method,
                        const io::FileView& view,
                        const types::Datatype& memtype, std::int64_t count,
                        const std::vector<std::uint8_t>& mem_image,
                        bool locking = false) {
  pfs::Cluster cluster(test_config(4, 1, locking));
  auto client = cluster.make_client(0);
  io::Context ctx{cluster.scheduler(), *client, cluster.config()};
  mpiio::File file(ctx);
  RwResult result;
  result.read_back.assign(mem_image.size(), 0);

  cluster.scheduler().spawn(
      [](mpiio::File& f, const io::FileView& v, const types::Datatype& t,
         std::int64_t n, const std::vector<std::uint8_t>& src,
         std::vector<std::uint8_t>& dst, Method wm, Method rm,
         RwResult& out) -> Task<void> {
        EXPECT_TRUE((co_await f.open("/rw", true)).is_ok());
        f.set_view(v.displacement, v.etype, v.filetype);
        out.write_status = co_await f.write_at(0, src.data(), n, t, wm);
        if (out.write_status.is_ok()) {
          out.read_status = co_await f.read_at(0, dst.data(), n, t, rm);
        }
      }(file, view, memtype, count, mem_image, result.read_back, write_method,
        read_method, result));
  cluster.run();
  result.stats = client->stats();
  return result;
}

/// Compare only the bytes the memory datatype actually touches.
void expect_typed_equal(const types::Datatype& memtype, std::int64_t count,
                        const std::vector<std::uint8_t>& a,
                        const std::vector<std::uint8_t>& b) {
  for (const Region& r : memtype.flatten(0, count)) {
    for (std::int64_t i = r.offset; i < r.end(); ++i) {
      ASSERT_EQ(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)])
          << "at byte " << i;
    }
  }
}

// ---- Cross-method matrix -----------------------------------------------------

struct MatrixCase {
  Method write;
  Method read;
};

class MethodMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(MethodMatrix, NoncontigMemNoncontigFileRoundTrip) {
  const auto [write_method, read_method] = GetParam();
  // Memory: 30 blocks of 8 bytes every 20. File: vector of 16-byte blocks
  // every 100 bytes (crosses strip boundaries).
  auto memtype = types::hvector(30, 8, 20, types::byte_t());
  auto filetype = types::hvector(5, 16, 100, types::byte_t());
  io::FileView view{64, types::byte_t(), filetype};
  const std::int64_t count = 1;

  auto image = pattern_bytes(static_cast<std::size_t>(memtype.extent()), 21);
  const bool locking = write_method == Method::kDataSieving;
  auto result = run_write_read(write_method, read_method, view, memtype,
                               count, image, locking);
  ASSERT_TRUE(result.write_status.is_ok()) << result.write_status.to_string();
  ASSERT_TRUE(result.read_status.is_ok()) << result.read_status.to_string();
  expect_typed_equal(memtype, count, image, result.read_back);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, MethodMatrix,
    ::testing::Values(MatrixCase{Method::kPosix, Method::kPosix},
                      MatrixCase{Method::kPosix, Method::kList},
                      MatrixCase{Method::kPosix, Method::kDatatype},
                      MatrixCase{Method::kPosix, Method::kDataSieving},
                      MatrixCase{Method::kList, Method::kPosix},
                      MatrixCase{Method::kList, Method::kList},
                      MatrixCase{Method::kList, Method::kDatatype},
                      MatrixCase{Method::kDatatype, Method::kPosix},
                      MatrixCase{Method::kDatatype, Method::kList},
                      MatrixCase{Method::kDatatype, Method::kDatatype},
                      MatrixCase{Method::kDatatype, Method::kDataSieving},
                      MatrixCase{Method::kDataSieving, Method::kDatatype}),
    [](const auto& info) {
      auto slug = [](Method m) -> std::string {
        switch (m) {
          case Method::kPosix:
            return "Posix";
          case Method::kDataSieving:
            return "Sieve";
          case Method::kTwoPhase:
            return "TwoPhase";
          case Method::kList:
            return "List";
          case Method::kDatatype:
            return "Datatype";
        }
        return "Unknown";
      };
      return slug(info.param.write) + "Then" + slug(info.param.read);
    });

// ---- Method-specific behaviours -------------------------------------------------

TEST(Methods, SieveWriteUnsupportedWithoutLocking) {
  auto memtype = types::contiguous(64, types::byte_t());
  io::FileView view{0, types::byte_t(),
                    types::hvector(4, 16, 64, types::byte_t())};
  auto image = pattern_bytes(64, 3);
  auto result = run_write_read(Method::kDataSieving, Method::kPosix, view,
                               memtype, 1, image, /*locking=*/false);
  EXPECT_EQ(result.write_status.code(), StatusCode::kUnsupported);
}

TEST(Methods, PosixOpCountEqualsJointPieces) {
  // 10 joint pieces of 8 bytes each.
  auto memtype = types::contiguous(80, types::byte_t());
  auto filetype = types::hvector(10, 8, 50, types::byte_t());
  io::FileView view{0, types::byte_t(), filetype};
  auto image = pattern_bytes(80, 5);
  auto result = run_write_read(Method::kPosix, Method::kPosix, view, memtype,
                               1, image);
  // 10 write ops + 10 read ops.
  EXPECT_EQ(result.stats.io_ops, 20u);
}

TEST(Methods, ListBatchesAtRegionCap) {
  // 100 joint pieces with a 64-region cap => 2 list calls per direction.
  auto memtype = types::contiguous(800, types::byte_t());
  auto filetype = types::hvector(100, 8, 50, types::byte_t());
  io::FileView view{0, types::byte_t(), filetype};
  auto image = pattern_bytes(800, 6);
  auto result = run_write_read(Method::kList, Method::kList, view, memtype, 1,
                               image);
  EXPECT_EQ(result.stats.io_ops, 4u);
  // List descriptors ship 16 bytes per region on the wire.
  EXPECT_GE(result.stats.request_bytes, 2 * 100u * 16u);
}

TEST(Methods, DatatypeSingleOpRegardlessOfComplexity) {
  auto memtype = types::contiguous(800, types::byte_t());
  auto filetype = types::hvector(100, 8, 50, types::byte_t());
  io::FileView view{0, types::byte_t(), filetype};
  auto image = pattern_bytes(800, 7);
  auto result = run_write_read(Method::kDatatype, Method::kDatatype, view,
                               memtype, 1, image);
  EXPECT_EQ(result.stats.io_ops, 2u);  // one write + one read
  // The shipped descriptor is a dataloop, far smaller than 100 regions.
  EXPECT_LT(result.stats.request_bytes, 100u * 16u);
}

TEST(Methods, SievingAccessesHullNotJustDesired) {
  // 8 pieces of 8 bytes spread over 3.5 KiB: sieving reads the hull.
  auto memtype = types::contiguous(64, types::byte_t());
  auto filetype = types::hvector(8, 8, 500, types::byte_t());
  io::FileView view{0, types::byte_t(), filetype};
  auto image = pattern_bytes(64, 8);
  auto result = run_write_read(Method::kPosix, Method::kDataSieving, view,
                               memtype, 1, image);
  // Read side accessed the full hull (3508 bytes) vs 64 desired.
  EXPECT_GT(result.stats.accessed_bytes, 3000u);
}

TEST(Methods, DesiredBytesCountedOncePerCall) {
  auto memtype = types::contiguous(64, types::byte_t());
  io::FileView view{0, types::byte_t(),
                    types::hvector(8, 8, 100, types::byte_t())};
  auto image = pattern_bytes(64, 9);
  auto result = run_write_read(Method::kDatatype, Method::kDataSieving, view,
                               memtype, 1, image);
  EXPECT_EQ(result.stats.desired_bytes, 128u);  // 64 write + 64 read
}

TEST(Methods, SievingRegionsStraddlingWindowBoundaries) {
  // Hull of ~40 KiB with an 8 KiB sieve buffer: five windows, and the
  // 3 KiB regions straddle window boundaries — the extraction bookkeeping
  // must split them correctly.
  auto memtype = types::contiguous(10 * 3072, types::byte_t());
  auto filetype = types::hvector(10, 3072, 4000, types::byte_t());
  io::FileView view{128, types::byte_t(), filetype};
  auto image = pattern_bytes(10 * 3072, 23);
  auto result = run_write_read(Method::kDatatype, Method::kDataSieving, view,
                               memtype, 1, image);
  ASSERT_TRUE(result.write_status.is_ok());
  ASSERT_TRUE(result.read_status.is_ok());
  expect_typed_equal(memtype, 1, image, result.read_back);
  // Five window reads (hull ~39.7 KiB / 8 KiB buffer).
  EXPECT_EQ(result.stats.io_ops - 1, 5u);
}

TEST(Methods, ListExactlyAtRegionCapBoundary) {
  // Exactly 64 and 65 joint pieces: 1 vs 2 list calls.
  for (const std::int64_t pieces : {64, 65}) {
    auto memtype = types::contiguous(pieces * 8, types::byte_t());
    auto filetype = types::hvector(pieces, 8, 50, types::byte_t());
    io::FileView view{0, types::byte_t(), filetype};
    auto image = pattern_bytes(static_cast<std::size_t>(pieces * 8), 31);
    auto result = run_write_read(Method::kList, Method::kDatatype, view,
                                 memtype, 1, image);
    ASSERT_TRUE(result.write_status.is_ok());
    expect_typed_equal(memtype, 1, image, result.read_back);
    const std::uint64_t expected_calls = pieces == 64 ? 1u : 2u;
    EXPECT_EQ(result.stats.io_ops, expected_calls + 1) << pieces;
  }
}

TEST(Methods, MultiInstanceAccessTilesTheView) {
  // count > 1 memtype instances against a tiled file view.
  auto memtype = types::hvector(4, 16, 32, types::byte_t());  // 64 B/inst
  auto filetype = types::resized(
      types::contiguous(64, types::byte_t()), 0, 256);
  io::FileView view{0, types::byte_t(), filetype};
  auto image = pattern_bytes(
      static_cast<std::size_t>(memtype.extent() * 3 + 64), 37);
  auto result = run_write_read(Method::kDatatype, Method::kPosix, view,
                               memtype, 3, image);
  ASSERT_TRUE(result.write_status.is_ok());
  ASSERT_TRUE(result.read_status.is_ok());
  expect_typed_equal(memtype, 3, image, result.read_back);
}

// ---- Collective (two-phase) -------------------------------------------------------

struct CollectiveWorld {
  explicit CollectiveWorld(int nclients, bool locking = false)
      : cluster(test_config(4, nclients, locking)),
        comm(cluster.scheduler(), cluster.network(), cluster.config(),
             nclients) {
    for (int r = 0; r < nclients; ++r) {
      clients.push_back(cluster.make_client(r));
      contexts.push_back(std::make_unique<io::Context>(io::Context{
          cluster.scheduler(), *clients.back(), cluster.config()}));
      files.push_back(std::make_unique<mpiio::File>(*contexts.back()));
    }
  }
  pfs::Cluster cluster;
  coll::Communicator comm;
  std::vector<std::unique_ptr<pfs::Client>> clients;
  std::vector<std::unique_ptr<io::Context>> contexts;
  std::vector<std::unique_ptr<mpiio::File>> files;
};

TEST(TwoPhase, InterleavedWriteThenReadBack) {
  // 4 ranks write interleaved 64-byte records (rank r owns record i where
  // i % 4 == r) — the classic two-phase-friendly pattern of Figure 3.
  constexpr int kRanks = 4;
  constexpr std::int64_t kRecord = 64;
  constexpr std::int64_t kRecords = 40;  // per rank
  CollectiveWorld world(kRanks);

  std::vector<std::vector<std::uint8_t>> images;
  for (int r = 0; r < kRanks; ++r) {
    images.push_back(pattern_bytes(kRecord * kRecords,
                                   100 + static_cast<std::uint64_t>(r)));
  }
  int completed = 0;
  for (int r = 0; r < kRanks; ++r) {
    world.cluster.scheduler().spawn(
        [](CollectiveWorld& w, int rank, const std::vector<std::uint8_t>& src,
           int& done) -> Task<void> {
          mpiio::File& f = *w.files[static_cast<std::size_t>(rank)];
          EXPECT_TRUE((co_await f.open("/tp", rank == 0)).is_ok());
          // View: my records, strided by kRanks records.
          auto filetype = types::resized(
              types::contiguous(kRecord, types::byte_t()), 0,
              kRanks * kRecord);
          f.set_view(rank * kRecord, types::byte_t(), filetype);
          auto memtype = types::contiguous(kRecord * kRecords,
                                           types::byte_t());
          Status s = co_await f.write_at_all(w.comm, rank, 0, src.data(), 1,
                                             memtype, Method::kTwoPhase);
          EXPECT_TRUE(s.is_ok()) << s.to_string();
          ++done;
        }(world, r, images[static_cast<std::size_t>(r)], completed));
  }
  // Rank 0 opens with create; give it a head start so others find the file.
  world.cluster.run();
  EXPECT_EQ(completed, kRanks);

  // Verify with an independent contiguous read of the whole file.
  bool verified = false;
  world.cluster.scheduler().spawn(
      [](CollectiveWorld& w, const std::vector<std::vector<std::uint8_t>>& all,
         bool& done) -> Task<void> {
        mpiio::File& f = *w.files[0];
        std::vector<std::uint8_t> whole(kRanks * kRecord * kRecords);
        f.set_view(0, types::byte_t(), types::byte_t());
        auto memtype = types::contiguous(
            static_cast<std::int64_t>(whole.size()), types::byte_t());
        Status s = co_await f.read_at(0, whole.data(), 1, memtype,
                                      Method::kDataSieving);
        EXPECT_TRUE(s.is_ok());
        for (std::int64_t i = 0; i < kRanks * kRecords; ++i) {
          const int owner = static_cast<int>(i % kRanks);
          const std::int64_t record_of_owner = i / kRanks;
          EXPECT_TRUE(std::equal(
              whole.begin() + i * kRecord, whole.begin() + (i + 1) * kRecord,
              all[static_cast<std::size_t>(owner)].begin() +
                  record_of_owner * kRecord))
              << "record " << i;
        }
        done = true;
      }(world, images, verified));
  world.cluster.run();
  EXPECT_TRUE(verified);
}

TEST(TwoPhase, ReadRedistributesAcrossRanks) {
  constexpr int kRanks = 3;
  constexpr std::int64_t kRecord = 128;
  constexpr std::int64_t kRecords = 30;
  CollectiveWorld world(kRanks);
  const auto whole = pattern_bytes(
      static_cast<std::size_t>(kRanks * kRecord * kRecords), 55);

  // Seed the file contiguously.
  world.cluster.scheduler().spawn(
      [](CollectiveWorld& w, const std::vector<std::uint8_t>& src)
          -> Task<void> {
        mpiio::File& f = *w.files[0];
        EXPECT_TRUE((co_await f.open("/tpr", true)).is_ok());
        auto memtype = types::contiguous(
            static_cast<std::int64_t>(src.size()), types::byte_t());
        EXPECT_TRUE((co_await f.write_at(0, src.data(), 1, memtype,
                                         Method::kDatatype))
                        .is_ok());
      }(world, whole));
  world.cluster.run();

  std::vector<std::vector<std::uint8_t>> results(
      kRanks, std::vector<std::uint8_t>(kRecord * kRecords, 0));
  int completed = 0;
  for (int r = 0; r < kRanks; ++r) {
    world.cluster.scheduler().spawn(
        [](CollectiveWorld& w, int rank, std::vector<std::uint8_t>& dst,
           int& done) -> Task<void> {
          mpiio::File& f = *w.files[static_cast<std::size_t>(rank)];
          if (rank != 0) {
            EXPECT_TRUE((co_await f.open("/tpr", false)).is_ok());
          }
          auto filetype = types::resized(
              types::contiguous(kRecord, types::byte_t()), 0,
              kRanks * kRecord);
          f.set_view(rank * kRecord, types::byte_t(), filetype);
          auto memtype = types::contiguous(kRecord * kRecords,
                                           types::byte_t());
          Status s = co_await f.read_at_all(w.comm, rank, 0, dst.data(), 1,
                                            memtype, Method::kTwoPhase);
          EXPECT_TRUE(s.is_ok()) << s.to_string();
          ++done;
        }(world, r, results[static_cast<std::size_t>(r)], completed));
  }
  world.cluster.run();
  EXPECT_EQ(completed, kRanks);

  for (int r = 0; r < kRanks; ++r) {
    for (std::int64_t rec = 0; rec < kRecords; ++rec) {
      const std::int64_t file_record = rec * kRanks + r;
      EXPECT_TRUE(std::equal(
          results[static_cast<std::size_t>(r)].begin() + rec * kRecord,
          results[static_cast<std::size_t>(r)].begin() + (rec + 1) * kRecord,
          whole.begin() + file_record * kRecord))
          << "rank " << r << " record " << rec;
    }
  }
  // Most data crossed ranks: resent bytes are substantial.
  std::uint64_t resent = 0;
  for (const auto& c : world.clients) resent += c->stats().resent_bytes;
  EXPECT_GT(resent, static_cast<std::uint64_t>(whole.size()) / 2);
}

TEST(TwoPhase, CollectiveFallbackRunsIndependentMethod) {
  constexpr int kRanks = 2;
  CollectiveWorld world(kRanks);
  const auto data = pattern_bytes(4096, 77);
  int completed = 0;
  for (int r = 0; r < kRanks; ++r) {
    world.cluster.scheduler().spawn(
        [](CollectiveWorld& w, int rank, const std::vector<std::uint8_t>& src,
           int& done) -> Task<void> {
          mpiio::File& f = *w.files[static_cast<std::size_t>(rank)];
          EXPECT_TRUE((co_await f.open("/fb", rank == 0)).is_ok());
          f.set_view(0, types::byte_t(), types::byte_t());
          auto memtype = types::contiguous(2048, types::byte_t());
          Status s = co_await f.write_at_all(
              w.comm, rank, rank * 2048, src.data() + rank * 2048, 1, memtype,
              Method::kDatatype);
          EXPECT_TRUE(s.is_ok());
          ++done;
        }(world, r, data, completed));
  }
  world.cluster.run();
  EXPECT_EQ(completed, kRanks);
}

// ---- List I/O run round trip ------------------------------------------------

/// File bytes the JointWalker oracle says a write of `count` memtypes
/// through `view` leaves, over [0, size).
std::vector<std::uint8_t> oracle_file(const io::FileView& view,
                                      const types::Datatype& memtype,
                                      std::int64_t count,
                                      const std::vector<std::uint8_t>& mem,
                                      std::int64_t size) {
  std::vector<std::uint8_t> file(static_cast<std::size_t>(size), 0);
  const io::StreamWindow window =
      io::make_window(view, 0, count * memtype.size());
  io::JointWalker walker(io::make_mem_cursor(memtype, count),
                         io::make_file_cursor(view, window));
  io::JointWalker::Piece p;
  while (walker.next(p)) {
    std::copy_n(mem.begin() + p.mem_offset, p.length,
                file.begin() + p.file_offset);
  }
  return file;
}

TEST(ListRuns, RoundTripMatchesJointOracleInEveryWriteMode) {
  // FLASH-like: 8-byte cells 24 bytes apart in memory, packed into 200-byte
  // file blocks 300 apart, so each request carries multi-region runs that
  // straddle 1 KiB strips. Written and read back with list I/O under no
  // cache, a write-back cache, a write-through cache and client
  // write-behind; the file must match the oracle and the read must return
  // the written bytes.
  const auto memtype = types::hvector(300, 8, 24, types::byte_t());
  const auto filetype = types::hvector(12, 200, 300, types::byte_t());
  const io::FileView view{40, types::byte_t(), filetype};
  const std::int64_t count = 1;
  const std::int64_t file_size = 40 + 12 * 300;
  const auto image =
      pattern_bytes(static_cast<std::size_t>(memtype.extent()), 77);
  const auto want_file = oracle_file(view, memtype, count, image, file_size);
  // Joint pieces split at the 1 KiB strips (some cells straddle one).
  std::uint64_t want_pieces = 0;
  {
    io::JointWalker walker(
        io::make_mem_cursor(memtype, count),
        io::make_file_cursor(view, io::make_window(view, 0, memtype.size())));
    io::JointWalker::Piece p;
    while (walker.next(p)) {
      want_pieces += static_cast<std::uint64_t>(
          (p.file_offset + p.length - 1) / 1024 - p.file_offset / 1024 + 1);
    }
  }
  EXPECT_GT(want_pieces, 300u);
  for (int mode = 0; mode < 4; ++mode) {
    SCOPED_TRACE(::testing::Message() << "mode " << mode);
    auto cfg = test_config(4, 1);
    if (mode == 1 || mode == 2) {
      cfg.server.cache_block_bytes = 256;
      cfg.server.cache_capacity_bytes = 8 * 256;
      cfg.server.cache_write_through = mode == 2;
    }
    if (mode == 3) cfg.client.write_behind_bytes = 4096;
    pfs::Cluster cluster(cfg);
    auto client = cluster.make_client(0);
    io::Context ctx{cluster.scheduler(), *client, cluster.config()};
    mpiio::File file(ctx);
    std::vector<std::uint8_t> read_back(image.size(), 0);
    std::vector<std::uint8_t> file_back(static_cast<std::size_t>(file_size),
                                        0);
    bool done = false;
    cluster.scheduler().spawn(
        [](mpiio::File& f, pfs::Client& c, const io::FileView& v,
           const types::Datatype& t, std::int64_t n,
           const std::vector<std::uint8_t>& src,
           std::vector<std::uint8_t>& dst, std::vector<std::uint8_t>& whole,
           bool& ok) -> Task<void> {
          EXPECT_TRUE((co_await f.open("/runs", true)).is_ok());
          f.set_view(v.displacement, v.etype, v.filetype);
          EXPECT_TRUE((co_await f.write_at(0, src.data(), n, t, Method::kList))
                          .is_ok());
          EXPECT_TRUE(
              (co_await f.read_at(0, dst.data(), n, t, Method::kList)).is_ok());
          EXPECT_TRUE((co_await c.flush_write_behind()).is_ok());
          EXPECT_TRUE((co_await c.read_contig(f.handle(), 0, whole.data(),
                                              static_cast<std::int64_t>(
                                                  whole.size())))
                          .is_ok());
          ok = true;
        }(file, *client, view, memtype, count, image, read_back, file_back,
          done));
    cluster.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(file_back, want_file);
    expect_typed_equal(memtype, count, image, read_back);
    // Requests shipped runs, yet the client counted one piece per region
    // and strip, as before: the pieces of the write, of the read, and the
    // 4 strips of the contiguous read.
    EXPECT_EQ(client->stats().regions_client, 2 * want_pieces + 4);
  }
}

// ---- Joint walker ------------------------------------------------------------------

TEST(Joint, PairsBothSidesAtMinGranularity) {
  // Memory: 4 x 8B blocks every 16; file: 2 x 16B blocks every 64.
  auto memtype = types::hvector(4, 8, 16, types::byte_t());
  auto filetype = types::hvector(2, 16, 64, types::byte_t());
  io::FileView view{0, types::byte_t(), filetype};
  const io::StreamWindow window = io::make_window(view, 0, 32);
  io::JointWalker walker(io::make_mem_cursor(memtype, 1),
                         io::make_file_cursor(view, window));
  std::vector<io::JointWalker::Piece> pieces;
  io::JointWalker::Piece p;
  while (walker.next(p)) pieces.push_back(p);
  // Joint granularity = 8 bytes (memory side): 4 pieces.
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0].mem_offset, 0);
  EXPECT_EQ(pieces[0].file_offset, 0);
  EXPECT_EQ(pieces[1].mem_offset, 16);
  EXPECT_EQ(pieces[1].file_offset, 8);
  EXPECT_EQ(pieces[2].mem_offset, 32);
  EXPECT_EQ(pieces[2].file_offset, 64);
  EXPECT_EQ(pieces[3].mem_offset, 48);
  EXPECT_EQ(pieces[3].file_offset, 72);
  for (const auto& piece : pieces) EXPECT_EQ(piece.length, 8);
}

TEST(Joint, WindowSeekAlignsFileSide) {
  auto filetype = types::hvector(4, 8, 32, types::byte_t());
  io::FileView view{100, types::byte_t(), filetype};
  // Start 12 bytes into the stream: mid-second-block.
  const io::StreamWindow window = io::make_window(view, 12, 8);
  auto memtype = types::contiguous(8, types::byte_t());
  io::JointWalker walker(io::make_mem_cursor(memtype, 1),
                         io::make_file_cursor(view, window));
  std::vector<io::JointWalker::Piece> pieces;
  io::JointWalker::Piece p;
  while (walker.next(p)) pieces.push_back(p);
  ASSERT_EQ(pieces.size(), 2u);
  // Stream byte 12 = block 1 (bytes 8..16) at displacement 100+32, +4.
  EXPECT_EQ(pieces[0].file_offset, 100 + 32 + 4);
  EXPECT_EQ(pieces[0].length, 4);
  EXPECT_EQ(pieces[1].file_offset, 100 + 64);
  EXPECT_EQ(pieces[1].length, 4);
}

// ---- JointWalker::fill ----------------------------------------------------------

using PieceTuple = std::tuple<std::int64_t, std::int64_t, std::int64_t>;
using Batches = std::vector<std::vector<PieceTuple>>;

/// List I/O's batching before fill(): `cap` pieces per batch from
/// repeated next().
Batches batches_by_next(io::JointWalker walker, std::size_t cap) {
  Batches out;
  io::JointWalker::Piece p;
  while (walker.next(p)) {
    if (out.empty() || out.back().size() == cap) out.emplace_back();
    out.back().emplace_back(p.mem_offset, p.file_offset, p.length);
  }
  return out;
}

/// fill()'s batches with their file and memory runs expanded back into
/// pieces.
Batches batches_by_fill(io::JointWalker walker, std::size_t cap) {
  Batches out;
  std::vector<RegionRun> file;
  std::vector<io::JointWalker::MemRun> mem;
  while (true) {
    file.clear();
    mem.clear();
    std::int64_t pieces = 0;
    std::int64_t bytes = 0;
    walker.fill(file, mem, static_cast<std::int64_t>(cap), pieces, bytes);
    if (pieces == 0) break;
    std::vector<Region> file_pieces;
    for (const RegionRun& r : file) {
      for (std::int64_t i = 0; i < r.count; ++i) {
        file_pieces.push_back(Region{r.offset + i * r.length, r.length});
      }
    }
    std::vector<Region> mem_pieces;
    for (const io::JointWalker::MemRun& r : mem) {
      for (std::int64_t i = 0; i < r.count; ++i) {
        mem_pieces.push_back(Region{r.offset + i * r.stride, r.length});
      }
    }
    EXPECT_EQ(static_cast<std::int64_t>(file_pieces.size()), pieces);
    EXPECT_EQ(mem_pieces.size(), file_pieces.size());
    if (mem_pieces.size() != file_pieces.size()) break;
    std::vector<PieceTuple> batch;
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < file_pieces.size(); ++i) {
      EXPECT_EQ(mem_pieces[i].length, file_pieces[i].length);
      batch.emplace_back(mem_pieces[i].offset, file_pieces[i].offset,
                         file_pieces[i].length);
      sum += file_pieces[i].length;
    }
    EXPECT_EQ(bytes, sum);
    out.push_back(std::move(batch));
  }
  return out;
}

/// fill() at caps 1, 7 and 64 against next(); returns the piece count.
std::size_t expect_fill_matches_next(const dl::Cursor& mem,
                                     const dl::Cursor& file) {
  std::size_t pieces = 0;
  for (const std::size_t cap : {1u, 7u, 64u}) {
    SCOPED_TRACE(::testing::Message() << "cap " << cap);
    const Batches want = batches_by_next(io::JointWalker(mem, file), cap);
    const Batches got = batches_by_fill(io::JointWalker(mem, file), cap);
    EXPECT_EQ(got, want);
    pieces = 0;
    for (const auto& b : want) pieces += b.size();
  }
  return pieces;
}

/// Cursors for `count` memtypes through `view` at view offset `offset`.
std::pair<dl::Cursor, dl::Cursor> joint_cursors(const io::FileView& view,
                                                const types::Datatype& memtype,
                                                std::int64_t count,
                                                std::int64_t offset) {
  const io::StreamWindow window =
      io::make_window(view, offset, count * memtype.size());
  return {io::make_mem_cursor(memtype, count),
          io::make_file_cursor(view, window)};
}

TEST(JointFill, FlashPiecesAndBatchesMatchNext) {
  workloads::FlashConfig flash;
  flash.blocks_per_proc = 2;
  const io::FileView view{flash.displacement(1), types::byte_t(),
                          flash.filetype(4)};
  const auto [mem, file] = joint_cursors(view, flash.memtype(), 1, 0);
  EXPECT_EQ(expect_fill_matches_next(mem, file),
            static_cast<std::size_t>(flash.joint_pieces()));
}

TEST(JointFill, TilePiecesAndBatchesMatchNext) {
  workloads::TileConfig tile;
  tile.tile_width = 40;
  tile.tile_height = 12;
  tile.overlap_x = 6;
  tile.overlap_y = 4;
  for (int rank = 0; rank < tile.num_clients(); ++rank) {
    const io::FileView view{0, types::byte_t(), tile.tile_filetype(rank)};
    // Two frames, starting one frame in.
    const auto [mem, file] =
        joint_cursors(view, tile.memtype(), 2, tile.tile_bytes());
    EXPECT_EQ(expect_fill_matches_next(mem, file),
              static_cast<std::size_t>(2 * tile.rows_per_tile()));
  }
}

TEST(JointFill, Block3dPiecesAndBatchesMatchNext) {
  workloads::Block3dConfig block;
  block.dim = 12;
  for (int rank = 0; rank < block.num_clients(); ++rank) {
    const io::FileView view{0, types::byte_t(), block.block_filetype(rank)};
    const auto [mem, file] = joint_cursors(view, block.memtype(), 1, 0);
    EXPECT_EQ(expect_fill_matches_next(mem, file),
              static_cast<std::size_t>(block.rows_per_block()));
  }
}

/// A side of a random joint pair: runs of spaced-out leaves, sometimes
/// under a vector, or plain strided blocks.
dl::DataloopPtr random_joint_side(Rng& rng) {
  if (rng.next_below(3) == 0) {
    const std::int64_t len = rng.next_range(1, 64);
    return dl::make_vector(rng.next_range(2, 8), 1, len + rng.next_range(1, 64),
                           dl::make_leaf(len));
  }
  auto solid = dl::make_leaf(rng.next_range(1, 8));
  solid = dl::make_resized(solid, 0, solid->size + rng.next_range(0, 24));
  auto loop = dl::make_contig(rng.next_range(1, 12), solid);
  if (rng.next_below(2) == 0) {
    const std::int64_t bl = rng.next_range(1, 3);
    loop = dl::make_vector(rng.next_range(2, 6), bl,
                           bl * loop->extent + rng.next_range(0, 64), loop);
  }
  return loop;
}

TEST(JointFill, RandomPairsMatchNext) {
  Rng rng(1618);
  std::size_t pieces = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const dl::DataloopPtr mem_loop = random_joint_side(rng);
    const dl::DataloopPtr file_loop = random_joint_side(rng);
    const std::int64_t mem_count = rng.next_range(1, 4);
    const std::int64_t bytes = mem_count * mem_loop->size;
    // The file side starts anywhere in its stream and covers the bytes.
    const std::int64_t start = rng.next_range(0, 2 * file_loop->size);
    dl::Cursor file(file_loop, rng.next_range(0, 100),
                    (start + bytes + file_loop->size - 1) / file_loop->size);
    file.seek(start);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << "\nmem x" << mem_count << "\n"
                 << mem_loop->to_string() << "file from " << start << "\n"
                 << file_loop->to_string());
    pieces += expect_fill_matches_next(dl::Cursor(mem_loop, 0, mem_count),
                                       file);
  }
  EXPECT_GT(pieces, 10000u);
}

}  // namespace
}  // namespace dtio
