// Tests for the collective substrate: communicator primitives (allgather,
// barrier, exchange), two-phase hole handling (read-modify-write), file
// locks under contention, and server robustness against malformed
// datatype requests.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "collective/comm.h"
#include "collective/two_phase.h"
#include "common/rng.h"
#include "dataloop/serialize.h"
#include "mpiio/file.h"
#include "pfs/cluster.h"

namespace dtio {
namespace {

using coll::Communicator;
using sim::Task;

net::ClusterConfig small_config(int clients) {
  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = clients;
  cfg.strip_size = 1024;
  return cfg;
}

// ---- Communicator primitives -------------------------------------------------

TEST(Comm, Allgather64CollectsRankOrdered) {
  constexpr int kRanks = 5;
  pfs::Cluster cluster(small_config(kRanks));
  Communicator comm(cluster.scheduler(), cluster.network(), cluster.config(),
                    kRanks);
  std::vector<std::vector<std::int64_t>> results(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    cluster.scheduler().spawn(
        [](Communicator& c, int rank,
           std::vector<std::int64_t>& out) -> Task<void> {
          std::vector<std::int64_t> mine{rank * 10, rank * 10 + 1};
          out = co_await c.allgather64(
              rank, Box<std::vector<std::int64_t>>(std::move(mine)));
        }(comm, r, results[static_cast<std::size_t>(r)]));
  }
  cluster.run();
  const std::vector<std::int64_t> expect{0,  1,  10, 11, 20,
                                         21, 30, 31, 40, 41};
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], expect) << "rank " << r;
  }
}

TEST(Comm, AllgatherTwiceKeepsTagDisciplineAligned) {
  constexpr int kRanks = 3;
  pfs::Cluster cluster(small_config(kRanks));
  Communicator comm(cluster.scheduler(), cluster.network(), cluster.config(),
                    kRanks);
  int mismatches = 0;
  for (int r = 0; r < kRanks; ++r) {
    cluster.scheduler().spawn(
        [](Communicator& c, int rank, int& bad) -> Task<void> {
          for (int round = 0; round < 4; ++round) {
            std::vector<std::int64_t> mine{rank + round * 100};
            auto all = co_await c.allgather64(
                rank, Box<std::vector<std::int64_t>>(std::move(mine)));
            for (int i = 0; i < 3; ++i) {
              if (all[static_cast<std::size_t>(i)] != i + round * 100) ++bad;
            }
          }
        }(comm, r, mismatches));
  }
  cluster.run();
  EXPECT_EQ(mismatches, 0);
}

TEST(Comm, BarrierSynchronises) {
  constexpr int kRanks = 4;
  pfs::Cluster cluster(small_config(kRanks));
  Communicator comm(cluster.scheduler(), cluster.network(), cluster.config(),
                    kRanks);
  std::vector<SimTime> after(kRanks, -1);
  for (int r = 0; r < kRanks; ++r) {
    cluster.scheduler().spawn(
        [](Communicator& c, sim::Scheduler& s, int rank,
           std::vector<SimTime>& out) -> Task<void> {
          co_await s.delay(rank * 10 * kMillisecond);  // stagger arrival
          co_await c.barrier(rank);
          out[static_cast<std::size_t>(rank)] = s.now();
        }(comm, cluster.scheduler(), r, after));
  }
  cluster.run();
  // Nobody may pass before the last arrival at 30 ms.
  for (const SimTime t : after) EXPECT_GE(t, 30 * kMillisecond);
}

TEST(Comm, ExchangeCarriesRegionsAndData) {
  pfs::Cluster cluster(small_config(2));
  Communicator comm(cluster.scheduler(), cluster.network(), cluster.config(),
                    2);
  coll::ExchangePayload received;
  cluster.scheduler().spawn([](Communicator& c) -> Task<void> {
    coll::ExchangePayload payload;
    payload.regions = {{100, 4}, {200, 4}};
    payload.data = std::make_shared<std::vector<std::uint8_t>>(
        std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8});
    co_await c.send_exchange(0, 1, 42,
                             Box<coll::ExchangePayload>(std::move(payload)),
                             8 + 32);
  }(comm));
  cluster.scheduler().spawn(
      [](Communicator& c, coll::ExchangePayload& out) -> Task<void> {
        out = co_await c.recv_exchange(1, 0, 42);
      }(comm, received));
  cluster.run();
  ASSERT_EQ(received.regions.size(), 2u);
  EXPECT_EQ(received.regions[1], (Region{200, 4}));
  ASSERT_NE(received.data, nullptr);
  EXPECT_EQ((*received.data)[7], 8);
}

// ---- Two-phase hole handling ----------------------------------------------------

class TwoPhaseHoles : public ::testing::TestWithParam<net::CbWriteMode> {};

TEST_P(TwoPhaseHoles, SparseCollectiveWritePreservesGapBytes) {
  // Pre-fill the file, then collectively write a SPARSE pattern (holes
  // between contributions): the aggregator must read-modify-write so the
  // prefill survives in the gaps.
  constexpr int kRanks = 2;
  auto cfg = small_config(kRanks);
  cfg.cb_write_noncontig = GetParam();  // RMW, list, or datatype write-back
  pfs::Cluster cluster(cfg);
  Communicator comm(cluster.scheduler(), cluster.network(), cluster.config(),
                    kRanks);
  auto client0 = cluster.make_client(0);
  auto client1 = cluster.make_client(1);
  io::Context ctx0{cluster.scheduler(), *client0, cluster.config()};
  io::Context ctx1{cluster.scheduler(), *client1, cluster.config()};
  mpiio::File f0(ctx0);
  mpiio::File f1(ctx1);

  std::vector<std::uint8_t> prefill(4096, 0xAB);
  cluster.scheduler().spawn(
      [](mpiio::File& f, const std::vector<std::uint8_t>& fill) -> Task<void> {
        EXPECT_TRUE((co_await f.open("/holes", true)).is_ok());
        f.set_view(0, types::byte_t(), types::byte_t());
        auto memtype = types::contiguous(4096, types::byte_t());
        EXPECT_TRUE((co_await f.write_at(0, fill.data(), 1, memtype,
                                         mpiio::Method::kDatatype))
                        .is_ok());
      }(f0, prefill));
  cluster.run();

  // Rank r writes 16-byte pieces at offsets r*64 + k*128: half the file
  // stays untouched.
  std::vector<std::uint8_t> payload(16 * 32, 0xCD);
  int done = 0;
  auto writer = [](mpiio::File& f, Communicator& c, int rank,
                   const std::vector<std::uint8_t>& src,
                   int& finished) -> Task<void> {
    if (rank != 0) {
      EXPECT_TRUE((co_await f.open("/holes", false)).is_ok());
    }
    auto piece = types::contiguous(16, types::byte_t());
    auto strided = types::resized(piece, 0, 128);
    f.set_view(rank * 64, types::byte_t(), strided);
    auto memtype = types::contiguous(16 * 32, types::byte_t());
    Status s = co_await f.write_at_all(c, rank, 0, src.data(), 1, memtype,
                                       mpiio::Method::kTwoPhase);
    EXPECT_TRUE(s.is_ok()) << s.to_string();
    ++finished;
  };
  cluster.scheduler().spawn(writer(f0, comm, 0, payload, done));
  cluster.scheduler().spawn(writer(f1, comm, 1, payload, done));
  cluster.run();
  EXPECT_EQ(done, 2);

  bool verified = false;
  cluster.scheduler().spawn(
      [](mpiio::File& f, bool& ok) -> Task<void> {
        std::vector<std::uint8_t> back(4096);
        f.set_view(0, types::byte_t(), types::byte_t());
        auto memtype = types::contiguous(4096, types::byte_t());
        EXPECT_TRUE((co_await f.read_at(0, back.data(), 1, memtype,
                                        mpiio::Method::kDatatype))
                        .is_ok());
        ok = true;
        for (std::int64_t i = 0; i < 4096; ++i) {
          const std::int64_t in_window = i % 128;
          const bool written =
              (in_window < 16) || (in_window >= 64 && in_window < 80);
          const std::uint8_t expect = written ? 0xCD : 0xAB;
          if (back[static_cast<std::size_t>(i)] != expect) {
            ADD_FAILURE() << "byte " << i << " = " << int{back[
                static_cast<std::size_t>(i)]};
            ok = false;
            break;
          }
        }
      }(f0, verified));
  cluster.run();
  EXPECT_TRUE(verified);
}

INSTANTIATE_TEST_SUITE_P(
    WriteBackModes, TwoPhaseHoles,
    ::testing::Values(net::CbWriteMode::kRmw, net::CbWriteMode::kList,
                      net::CbWriteMode::kDatatype),
    [](const auto& info) {
      switch (info.param) {
        case net::CbWriteMode::kRmw: return "Rmw";
        case net::CbWriteMode::kList: return "List";
        case net::CbWriteMode::kDatatype: return "Datatype";
      }
      return "Unknown";
    });

TEST(TwoPhaseWriteBack, NoncontigModesSkipTheRmwRead) {
  // With list/datatype write-back the aggregators never issue the hull
  // read, so server bytes_read stays zero for the collective write.
  for (const auto mode :
       {net::CbWriteMode::kRmw, net::CbWriteMode::kDatatype}) {
    auto cfg = small_config(2);
    cfg.cb_write_noncontig = mode;
    pfs::Cluster cluster(cfg);
    Communicator comm(cluster.scheduler(), cluster.network(),
                      cluster.config(), 2);
    std::vector<std::unique_ptr<pfs::Client>> clients;
    std::vector<std::unique_ptr<io::Context>> ctxs;
    std::vector<std::unique_ptr<mpiio::File>> files;
    for (int r = 0; r < 2; ++r) {
      clients.push_back(cluster.make_client(r));
      ctxs.push_back(std::make_unique<io::Context>(io::Context{
          cluster.scheduler(), *clients.back(), cluster.config()}));
      files.push_back(std::make_unique<mpiio::File>(*ctxs.back()));
    }
    std::vector<std::uint8_t> payload(16 * 16, 0xEE);
    for (int r = 0; r < 2; ++r) {
      cluster.scheduler().spawn(
          [](mpiio::File& f, Communicator& c, int rank,
             const std::vector<std::uint8_t>& src) -> Task<void> {
            EXPECT_TRUE((co_await f.open("/nb", rank == 0)).is_ok());
            auto piece = types::contiguous(16, types::byte_t());
            // Sparse: only the first 16 of every 256 bytes, per rank.
            auto strided = types::resized(piece, 0, 256);
            f.set_view(rank * 128, types::byte_t(), strided);
            auto memtype = types::contiguous(16 * 16, types::byte_t());
            EXPECT_TRUE((co_await f.write_at_all(c, rank, 0, src.data(), 1,
                                                 memtype,
                                                 mpiio::Method::kTwoPhase))
                            .is_ok());
          }(*files[r], comm, r, payload));
    }
    cluster.run();
    std::uint64_t reads = 0;
    for (int s = 0; s < cfg.num_servers; ++s) {
      reads += cluster.server(s).stats().bytes_read;
    }
    if (mode == net::CbWriteMode::kRmw) {
      EXPECT_GT(reads, 0u) << "RMW must read the hull";
    } else {
      EXPECT_EQ(reads, 0u) << "noncontig write-back must not read";
    }
  }
}

// ---- Locks ------------------------------------------------------------------------

TEST(Locks, FifoContentionSerialisesHolders) {
  pfs::Cluster cluster(small_config(3));
  std::vector<std::unique_ptr<pfs::Client>> clients;
  for (int r = 0; r < 3; ++r) clients.push_back(cluster.make_client(r));
  std::vector<int> grant_order;
  int concurrent = 0;
  int max_concurrent = 0;
  for (int r = 0; r < 3; ++r) {
    cluster.scheduler().spawn(
        [](pfs::Client& c, sim::Scheduler& s, int rank, std::vector<int>& order,
           int& inside, int& peak) -> Task<void> {
          co_await s.delay(rank * kMicrosecond);  // deterministic arrival
          (void)co_await c.lock(7);
          order.push_back(rank);
          ++inside;
          peak = std::max(peak, inside);
          co_await s.delay(10 * kMillisecond);
          --inside;
          (void)co_await c.unlock(7);
        }(*clients[static_cast<std::size_t>(r)], cluster.scheduler(), r,
          grant_order, concurrent, max_concurrent));
  }
  cluster.run();
  EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(max_concurrent, 1);
}

TEST(Locks, IndependentHandlesDoNotContend) {
  pfs::Cluster cluster(small_config(2));
  auto c0 = cluster.make_client(0);
  auto c1 = cluster.make_client(1);
  SimTime t0 = -1, t1 = -1;
  cluster.scheduler().spawn(
      [](pfs::Client& c, sim::Scheduler& s, SimTime& out) -> Task<void> {
        (void)co_await c.lock(1);
        co_await s.delay(50 * kMillisecond);
        (void)co_await c.unlock(1);
        out = s.now();
      }(*c0, cluster.scheduler(), t0));
  cluster.scheduler().spawn(
      [](pfs::Client& c, sim::Scheduler& s, SimTime& out) -> Task<void> {
        (void)co_await c.lock(2);
        co_await s.delay(50 * kMillisecond);
        (void)co_await c.unlock(2);
        out = s.now();
      }(*c1, cluster.scheduler(), t1));
  cluster.run();
  // Both finish around 50 ms: no serialisation across handles.
  EXPECT_LT(t0, 60 * kMillisecond);
  EXPECT_LT(t1, 60 * kMillisecond);
}

// ---- Server robustness ---------------------------------------------------------------

TEST(ServerRobustness, MalformedDataloopGetsErrorReply) {
  pfs::Cluster cluster(small_config(1));
  auto client = cluster.make_client(0);
  Status status;
  cluster.scheduler().spawn(
      [](pfs::Client& c, net::Network& net, int node,
         Status& out) -> Task<void> {
        pfs::Request request;
        request.op = pfs::OpKind::kDatatypeRead;
        request.handle = 1;
        request.client_node = node;
        request.reply_tag = pfs::kTagReplyBase + 999;
        pfs::DatatypePayload p;
        p.encoded_loop = std::make_shared<std::vector<std::uint8_t>>(
            std::vector<std::uint8_t>{0xFF, 0x00, 0x13});
        p.count = 1;
        p.stream_length = 8;
        request.payload = std::move(p);
        // A requester claims its reply tag before sending; an unclaimed
        // reply is dropped at delivery.
        net.mailbox(node).claim(pfs::kTagReplyBase + 999);
        co_await net.send(node, 0,
                          sim::Message(node, pfs::kTagRequest, 64,
                                       std::move(request)));
        sim::Message msg =
            *co_await net.mailbox(node).recv(0, pfs::kTagReplyBase + 999);
        net.mailbox(node).retire(pfs::kTagReplyBase + 999);
        pfs::Reply reply = msg.take<pfs::Reply>();
        out = reply.ok ? Status::ok() : internal_error(reply.error);
        (void)c;
      }(*client, cluster.network(), cluster.config().client_node(0), status));
  cluster.run();
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(cluster.server(0).stats().bad_requests, 1u);
}

TEST(ServerRobustness, OutOfRangeStreamWindowRejected) {
  pfs::Cluster cluster(small_config(1));
  auto client = cluster.make_client(0);
  bool rejected = false;
  cluster.scheduler().spawn(
      [](pfs::Client& c, bool& out) -> Task<void> {
        auto loop = dl::make_vector(4, 8, 32, dl::make_leaf(1));  // 32 B
        // Window claims 64 bytes of a 32-byte stream.
        Status s = co_await c.read_datatype(5, loop, 0, 1, 0, 64, nullptr);
        out = !s.is_ok();
      }(*client, rejected));
  cluster.run();
  EXPECT_TRUE(rejected);
}

TEST(ServerRobustness, MalformedListRequestsRejectedThenServed) {
  pfs::Cluster cluster(small_config(1));
  auto client = cluster.make_client(0);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // A null region list, a run with a negative count, a run whose end
  // overflows, a negative length, two runs whose bytes overflow only
  // together, and runs that are not back to back (a negative stride, a
  // stride past INT64_MAX's reach). Each must get the typed error and
  // touch nothing.
  using Runs = std::shared_ptr<const std::vector<RegionRun>>;
  std::vector<Runs> bad = {
      nullptr,
      std::make_shared<const std::vector<RegionRun>>(
          std::vector<RegionRun>{{0, 8, -3}}),
      std::make_shared<const std::vector<RegionRun>>(
          std::vector<RegionRun>{{kMax - 64, 16, 8}}),
      std::make_shared<const std::vector<RegionRun>>(
          std::vector<RegionRun>{{0, 8, 4}, {100, -8, 1}}),
      std::make_shared<const std::vector<RegionRun>>(
          std::vector<RegionRun>{{0, kMax / 2, 1}, {0, kMax / 2 + 2, 1}}),
      std::make_shared<const std::vector<RegionRun>>(
          std::vector<RegionRun>{{64, 8, 4, -32}}),
      std::make_shared<const std::vector<RegionRun>>(
          std::vector<RegionRun>{{0, 8, 2, kMax - 4}}),
  };
  std::vector<pfs::Reply> replies;
  bool served = false;
  cluster.scheduler().spawn(
      [](pfs::Client& c, net::Network& net, int node,
         const std::vector<Runs>& lists,
         std::vector<pfs::Reply>& out, bool& ok) -> Task<void> {
        pfs::MetaResult f = co_await c.create("/bad_list");
        EXPECT_TRUE(f.status.is_ok());
        for (std::size_t i = 0; i < lists.size(); ++i) {
          const std::uint64_t tag = pfs::kTagReplyBase + 900 + i;
          pfs::Request request;
          request.op = pfs::OpKind::kListWrite;
          request.handle = f.handle;
          request.client_node = node;
          request.reply_tag = tag;
          request.carry_data = false;
          request.payload = pfs::ListPayload{lists[i], nullptr};
          net.mailbox(node).claim(tag);
          co_await net.send(node, 0,
                            sim::Message(node, pfs::kTagRequest, 64,
                                         std::move(request)));
          sim::Message msg = *co_await net.mailbox(node).recv(0, tag);
          net.mailbox(node).retire(tag);
          out.push_back(msg.take<pfs::Reply>());
        }
        // The next well-formed list request is served normally.
        const std::vector<std::uint8_t> data(64, 7);
        const std::vector<Region> regions{{0, 32}, {100, 32}};
        EXPECT_TRUE((co_await c.write_list(f.handle, regions, data.data()))
                        .is_ok());
        std::vector<std::uint8_t> back(64, 0);
        EXPECT_TRUE(
            (co_await c.read_list(f.handle, regions, back.data())).is_ok());
        ok = back == data;
      }(*client, cluster.network(), cluster.config().client_node(0), bad,
        replies, served));
  cluster.run();
  ASSERT_EQ(replies.size(), bad.size());
  for (const pfs::Reply& r : replies) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, StatusCode::kInvalidArgument) << r.error;
    EXPECT_EQ(r.bytes, 0);
  }
  EXPECT_EQ(cluster.server(0).stats().bad_requests, bad.size());
  EXPECT_EQ(cluster.server(0).stats().bytes_written, 64u);
  EXPECT_TRUE(served);
}

TEST(ServerRobustness, OutOfRangeContigAndDatatypeWindowsRejectedThenServed) {
  pfs::Cluster cluster(small_config(1));
  auto client = cluster.make_client(0);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // A contig write at a negative offset (it would map to a negative
  // physical offset), a contig write whose end passes INT64_MAX, a
  // datatype read whose count makes the stream size overflow int64, and
  // contig reads whose echoed per-file layout or replica_of is none of
  // this 4-server cluster: a zero strip (the layout arithmetic would
  // divide by it), a negative strip, more servers than the cluster has, a
  // negative server count, a start outside the cluster, stripes past
  // kMaxFileBytes / 4, and replicas of servers that do not exist.
  auto loop = dl::make_vector(4, 8, 32, dl::make_leaf(1));  // 32 B
  auto encoded = std::make_shared<std::vector<std::uint8_t>>();
  dl::encode(*loop, *encoded);
  std::vector<pfs::Request> bad(3);
  const auto data = std::make_shared<std::vector<std::uint8_t>>(16, 9);
  bad[0].op = pfs::OpKind::kContigWrite;
  bad[0].payload = pfs::ContigPayload{-4096, 16, data};
  bad[1].op = pfs::OpKind::kContigWrite;
  bad[1].payload = pfs::ContigPayload{kMax - 8, 16, data};
  bad[2].op = pfs::OpKind::kDatatypeRead;
  pfs::DatatypePayload dt;
  dt.encoded_loop = encoded;
  dt.count = kMax / 2;
  dt.stream_length = 32;
  bad[2].payload = std::move(dt);
  struct Echo {
    int servers;
    std::int64_t strip;
    int start;
    int replica_of;
  };
  for (const Echo& e : {Echo{1, 0, 0, -1}, Echo{2, -1024, 0, -1},
                        Echo{5, 1024, 0, -1}, Echo{-2, 1024, 0, -1},
                        Echo{2, 1024, 4, -1}, Echo{2, 1024, -1, -1},
                        Echo{4, kMax / 4, 0, -1}, Echo{1, kMax / 2, 0, -1},
                        Echo{0, 0, 0, 4}, Echo{0, 0, 0, -2}}) {
    pfs::Request& r = bad.emplace_back();
    r.op = pfs::OpKind::kContigRead;
    r.payload = pfs::ContigPayload{0, 64, nullptr};
    r.layout_servers = e.servers;
    r.layout_strip = e.strip;
    r.layout_start = e.start;
    r.replica_of = e.replica_of;
  }
  for (const pfs::Request& r : bad) {
    EXPECT_FALSE(pfs::check_request(r, nullptr, 4).ok()) << pfs::op_name(r.op);
  }
  std::vector<pfs::Reply> replies;
  bool served = false;
  cluster.scheduler().spawn(
      [](pfs::Client& c, net::Network& net, int node,
         std::vector<pfs::Request>& requests, std::vector<pfs::Reply>& out,
         bool& ok) -> Task<void> {
        pfs::MetaResult f = co_await c.create("/bad_window");
        EXPECT_TRUE(f.status.is_ok());
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const std::uint64_t tag = pfs::kTagReplyBase + 950 + i;
          pfs::Request request = std::move(requests[i]);
          request.handle = f.handle;
          request.client_node = node;
          request.reply_tag = tag;
          net.mailbox(node).claim(tag);
          co_await net.send(node, 0,
                            sim::Message(node, pfs::kTagRequest, 64,
                                         std::move(request)));
          sim::Message msg = *co_await net.mailbox(node).recv(0, tag);
          net.mailbox(node).retire(tag);
          out.push_back(msg.take<pfs::Reply>());
        }
        // The next well-formed contig and datatype requests are served.
        const std::vector<std::uint8_t> src(32, 7);
        EXPECT_TRUE(
            (co_await c.write_contig(f.handle, 0, src.data(), 32)).is_ok());
        std::vector<std::uint8_t> back(32, 0);
        auto loop = dl::make_vector(4, 8, 8, dl::make_leaf(1));
        EXPECT_TRUE((co_await c.read_datatype(f.handle, loop, 0, 1, 0, 32,
                                              back.data()))
                        .is_ok());
        ok = back == src;
      }(*client, cluster.network(), cluster.config().client_node(0), bad,
        replies, served));
  cluster.run();
  ASSERT_EQ(replies.size(), bad.size());
  for (const pfs::Reply& r : replies) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, StatusCode::kInvalidArgument) << r.error;
    EXPECT_EQ(r.bytes, 0);
  }
  EXPECT_EQ(cluster.server(0).stats().bad_requests, bad.size());
  EXPECT_EQ(cluster.server(0).stats().bytes_written, 32u);
  EXPECT_TRUE(served);
}

TEST(ServerRobustness, DatatypeFileSpanOutOfRangeRejectedThenServed) {
  // Datatype requests whose window's file span leaves [0, INT64_MAX]: a
  // write at displacement -100 with carried data (it would map to a
  // negative physical offset and copy out of bounds), a read of a
  // hindexed type with a negative lb, and a read whose span runs past
  // INT64_MAX. Each is answered kInvalidArgument and counted once; the
  // same server then serves a valid write and read. The client refuses
  // the negative displacement itself, sending nothing.
  pfs::Cluster cluster(small_config(1));
  auto client = cluster.make_client(0);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto row = dl::make_contig(32, dl::make_leaf(1));  // 32 B
  const std::int64_t offs[] = {-64, 0};
  const std::int64_t lens[] = {8, 8};
  const auto hindexed = dl::make_indexed(lens, offs, dl::make_leaf(1));
  ASSERT_LT(hindexed->lb, 0);
  const auto encode = [](const dl::DataloopPtr& loop) {
    auto encoded = std::make_shared<std::vector<std::uint8_t>>();
    dl::encode(*loop, *encoded);
    return encoded;
  };
  const auto data = std::make_shared<std::vector<std::uint8_t>>(32, 9);
  std::vector<pfs::Request> bad(3);
  pfs::DatatypePayload dt;
  dt.encoded_loop = encode(row);
  dt.displacement = -100;
  dt.count = 1;
  dt.stream_length = 32;
  dt.data = data;
  bad[0].op = pfs::OpKind::kDatatypeWrite;
  bad[0].carry_data = true;
  bad[0].payload = dt;
  dt.data = nullptr;
  dt.encoded_loop = encode(hindexed);
  dt.displacement = 0;
  dt.stream_length = 16;
  bad[1].op = pfs::OpKind::kDatatypeRead;
  bad[1].payload = dt;
  dt.encoded_loop = encode(row);
  dt.displacement = kMax - 16;
  dt.stream_length = 32;
  bad[2].op = pfs::OpKind::kDatatypeRead;
  bad[2].payload = dt;
  std::vector<pfs::Reply> replies;
  bool served = false;
  cluster.scheduler().spawn(
      [](pfs::Client& c, net::Network& net, int node,
         std::vector<pfs::Request>& requests, std::vector<pfs::Reply>& out,
         dl::DataloopPtr loop, bool& ok) -> Task<void> {
        pfs::MetaResult f = co_await c.create("/bad_span");
        EXPECT_TRUE(f.status.is_ok());
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const std::uint64_t tag = pfs::kTagReplyBase + 970 + i;
          pfs::Request request = std::move(requests[i]);
          request.handle = f.handle;
          request.client_node = node;
          request.reply_tag = tag;
          net.mailbox(node).claim(tag);
          co_await net.send(node, 0,
                            sim::Message(node, pfs::kTagRequest, 64,
                                         std::move(request)));
          sim::Message msg = *co_await net.mailbox(node).recv(0, tag);
          net.mailbox(node).retire(tag);
          out.push_back(msg.take<pfs::Reply>());
        }
        const std::vector<std::uint8_t> src(32, 7);
        const std::uint64_t sent = c.stats().requests_sent;
        const Status refused =
            co_await c.write_datatype(f.handle, loop, -100, 1, 0, 32,
                                      src.data());
        EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(c.stats().requests_sent, sent);
        // The next well-formed datatype requests are served.
        EXPECT_TRUE((co_await c.write_datatype(f.handle, loop, 100, 1, 0, 32,
                                               src.data()))
                        .is_ok());
        std::vector<std::uint8_t> back(32, 0);
        EXPECT_TRUE((co_await c.read_datatype(f.handle, loop, 100, 1, 0, 32,
                                              back.data()))
                        .is_ok());
        ok = back == src;
      }(*client, cluster.network(), cluster.config().client_node(0), bad,
        replies, row, served));
  cluster.run();
  ASSERT_EQ(replies.size(), bad.size());
  for (const pfs::Reply& r : replies) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, StatusCode::kInvalidArgument) << r.error;
    EXPECT_EQ(r.bytes, 0);
  }
  EXPECT_EQ(cluster.server(0).stats().bad_requests, bad.size());
  EXPECT_EQ(cluster.server(0).stats().bytes_written, 32u);
  EXPECT_TRUE(served);
}

/// Send `boxed` raw from client node `node` to server 0 and await the
/// reply (claiming its reply tag first, as a requester does).
Task<pfs::Reply> exchange(net::Network& net, int node,
                          Box<pfs::Request> boxed) {
  pfs::Request request = boxed.take();
  const std::uint64_t tag = request.reply_tag;
  net.mailbox(node).claim(tag);
  co_await net.send(node, 0,
                    sim::Message(node, pfs::kTagRequest, 64,
                                 std::move(request)));
  sim::Message msg = *co_await net.mailbox(node).recv(0, tag);
  net.mailbox(node).retire(tag);
  co_return msg.take<pfs::Reply>();
}

/// Send each of `requests` raw to server 0 for a fresh file, then check
/// that a contig write and read through the client are served normally
/// (`served`).
Task<void> send_bad_then_serve(pfs::Client& c, net::Network& net, int node,
                               std::vector<pfs::Request>& requests,
                               std::vector<pfs::Reply>& out, bool& served) {
  pfs::MetaResult f = co_await c.create("/bad");
  EXPECT_TRUE(f.status.is_ok());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    pfs::Request request = std::move(requests[i]);
    request.handle = f.handle;
    if (auto* batch = std::get_if<pfs::BatchPayload>(&request.payload)) {
      for (pfs::BatchSubOp& sub : batch->sub_ops) sub.handle = f.handle;
    }
    request.client_node = node;
    request.reply_tag = pfs::kTagReplyBase + 990 + i;
    out.push_back(
        co_await exchange(net, node, Box<pfs::Request>(std::move(request))));
  }
  const std::vector<std::uint8_t> src(32, 7);
  EXPECT_TRUE((co_await c.write_contig(f.handle, 0, src.data(), 32)).is_ok());
  std::vector<std::uint8_t> back(32, 0);
  EXPECT_TRUE((co_await c.read_contig(f.handle, 0, back.data(), 32)).is_ok());
  served = back == src;
}

void expect_each_rejected_once(pfs::Cluster& cluster,
                               const std::vector<pfs::Reply>& replies,
                               std::size_t sent) {
  ASSERT_EQ(replies.size(), sent);
  for (const pfs::Reply& r : replies) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, StatusCode::kInvalidArgument) << r.error;
    EXPECT_EQ(r.bytes, 0);
  }
  EXPECT_EQ(cluster.server(0).stats().bad_requests, sent);
}

TEST(ServerRobustness, BatchSubOpsAreCheckedAtTheDoor) {
  // Write-behind envelopes carry physical sub-ops the server applies
  // unwalked: one at offset -100 (it would copy below the bstream's
  // pages), and one whose data is shorter than its length (the copy would
  // read past the data). Each envelope is refused whole, counted once.
  pfs::Cluster cluster(small_config(1));
  auto client = cluster.make_client(0);
  const auto data = std::make_shared<std::vector<std::uint8_t>>(16, 9);
  std::vector<pfs::Request> bad(2);
  for (pfs::Request& r : bad) r.op = pfs::OpKind::kBatchWrite;
  pfs::BatchPayload negative;
  negative.sub_ops.push_back({.offset = 0, .length = 16, .data = data});
  negative.sub_ops.push_back({.offset = -100, .length = 16, .data = data});
  bad[0].payload = std::move(negative);
  pfs::BatchPayload short_data;
  short_data.sub_ops.push_back({.offset = 64, .length = 32, .data = data});
  bad[1].payload = std::move(short_data);
  std::vector<pfs::Reply> replies;
  bool served = false;
  cluster.scheduler().spawn(send_bad_then_serve(
      *client, cluster.network(), cluster.config().client_node(0), bad,
      replies, served));
  cluster.run();
  expect_each_rejected_once(cluster, replies, 2);
  EXPECT_EQ(cluster.server(0).stats().bytes_written, 32u);
  EXPECT_TRUE(served);
}

TEST(ServerRobustness, WriteDataMustMatchTheMappedBytes) {
  // Carried write data shorter or longer than the bytes the request maps
  // to this server (all of them lie in server 0's first strip): a contig
  // write of 512 bytes carrying 16 (the copy would read past the data),
  // one of 16 carrying 32, a list write of 128 bytes carrying 100, and
  // datatype writes of a 32-byte row carrying 40 and 8. Each is answered
  // kInvalidArgument and counted once; nothing is read past the data.
  pfs::Cluster cluster(small_config(1));
  auto client = cluster.make_client(0);
  const auto bytes = [](std::size_t n) {
    return std::make_shared<std::vector<std::uint8_t>>(n, 9);
  };
  const auto row = dl::make_contig(32, dl::make_leaf(1));
  auto encoded = std::make_shared<std::vector<std::uint8_t>>();
  dl::encode(*row, *encoded);
  std::vector<pfs::Request> bad(5);
  bad[0].op = bad[1].op = pfs::OpKind::kContigWrite;
  bad[0].payload = pfs::ContigPayload{0, 512, bytes(16)};
  bad[1].payload = pfs::ContigPayload{0, 16, bytes(32)};
  bad[2].op = pfs::OpKind::kListWrite;
  bad[2].payload = pfs::ListPayload{
      std::make_shared<const std::vector<RegionRun>>(
          std::vector<RegionRun>{{0, 64, 1}, {200, 64, 1}}),
      bytes(100)};
  for (int i : {3, 4}) {
    pfs::DatatypePayload dt;
    dt.encoded_loop = encoded;
    dt.count = 1;
    dt.stream_length = 32;
    dt.data = bytes(i == 3 ? 40 : 8);
    bad[static_cast<std::size_t>(i)].op = pfs::OpKind::kDatatypeWrite;
    bad[static_cast<std::size_t>(i)].payload = std::move(dt);
  }
  std::vector<pfs::Reply> replies;
  bool served = false;
  cluster.scheduler().spawn(send_bad_then_serve(
      *client, cluster.network(), cluster.config().client_node(0), bad,
      replies, served));
  cluster.run();
  expect_each_rejected_once(cluster, replies, bad.size());
  EXPECT_EQ(cluster.server(0).stats().bytes_written, 32u);
  EXPECT_TRUE(served);
}

TEST(ServerRobustness, ClientRefusesOutOfRangeContigAndListOps) {
  // Offset -2000 at 4 servers and 1 KiB strips lands in strip -2, whose
  // server index is negative: the client must refuse it before mapping,
  // as it must a negative length and an end past INT64_MAX. Each op
  // returns kInvalidArgument and sends nothing.
  pfs::Cluster cluster(small_config(1));
  auto client = cluster.make_client(0);
  std::vector<StatusCode> codes;
  std::uint64_t sent_before = 0;
  std::uint64_t sent_after = 0;
  cluster.scheduler().spawn(
      [](pfs::Client& c, std::vector<StatusCode>& out, std::uint64_t& before,
         std::uint64_t& after) -> Task<void> {
        constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
        pfs::MetaResult f = co_await c.create("/refused");
        EXPECT_TRUE(f.status.is_ok());
        std::vector<std::uint8_t> buf(64, 5);
        const std::vector<Region> negative{{-2000, 16}};
        const std::vector<Region> past_end{{0, 16}, {kMax - 8, 16}};
        before = c.stats().requests_sent;
        out.push_back(
            (co_await c.write_contig(f.handle, -2000, buf.data(), 16)).code());
        out.push_back(
            (co_await c.read_contig(f.handle, -2000, buf.data(), 16)).code());
        out.push_back(
            (co_await c.write_contig(f.handle, 0, buf.data(), -16)).code());
        out.push_back(
            (co_await c.read_contig(f.handle, kMax - 8, buf.data(), 16))
                .code());
        out.push_back(
            (co_await c.write_list(f.handle, negative, buf.data())).code());
        out.push_back(
            (co_await c.read_list(f.handle, negative, buf.data())).code());
        out.push_back(
            (co_await c.write_list(f.handle, past_end, buf.data())).code());
        after = c.stats().requests_sent;
      }(*client, codes, sent_before, sent_after));
  cluster.run();
  ASSERT_EQ(codes.size(), 7u);
  for (const StatusCode code : codes) {
    EXPECT_EQ(code, StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(sent_after, sent_before);
  EXPECT_EQ(client->stats().io_ops, 0u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.server(s).stats().bad_requests, 0u);
  }
}

// ---- Utilization report ----------------------------------------------------------------

TEST(Utilization, ReportShowsBusyResources) {
  pfs::Cluster cluster(small_config(1));
  auto client = cluster.make_client(0);
  cluster.scheduler().spawn([](pfs::Client& c) -> Task<void> {
    pfs::MetaResult f = co_await c.create("/u");
    std::vector<std::uint8_t> data(200000, 3);
    (void)co_await c.write_contig(f.handle, 0, data.data(), 200000);
  }(*client));
  cluster.run();
  const std::string report = cluster.utilization_report();
  EXPECT_NE(report.find("servers:"), std::string::npos);
  EXPECT_NE(report.find("clients:"), std::string::npos);
  EXPECT_NE(report.find("fabric:"), std::string::npos);
  // The client pushed 200 KB; its tx must show nonzero utilization.
  EXPECT_EQ(report.find("clients: tx 0%"), std::string::npos) << report;
}

// ---- Datatype cache --------------------------------------------------------------------

TEST(DataloopCache, RepeatedTypesHitTheCache) {
  auto cfg = small_config(1);
  cfg.server.dataloop_cache = true;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  cluster.scheduler().spawn([](pfs::Client& c) -> Task<void> {
    auto loop = dl::make_vector(16, 64, 256, dl::make_leaf(1));
    std::vector<std::uint8_t> data(static_cast<std::size_t>(loop->size), 9);
    for (int round = 0; round < 5; ++round) {
      (void)co_await c.write_datatype(3, loop, 0, 1, 0, loop->size,
                                      data.data());
    }
  }(*client));
  cluster.run();
  std::uint64_t decoded = 0, hits = 0;
  for (int s = 0; s < cluster.config().num_servers; ++s) {
    decoded += cluster.server(s).stats().dataloops_decoded;
    hits += cluster.server(s).stats().dataloop_cache_hits;
  }
  EXPECT_EQ(decoded, 4u);   // once per involved server
  EXPECT_EQ(hits, 16u);     // 4 repeat rounds x 4 servers
}

TEST(DataloopCache, CacheSpeedsUpRepeatedAccess) {
  auto run_once = [&](bool cache) {
    auto cfg = small_config(1);
    cfg.server.dataloop_cache = cache;
    pfs::Cluster cluster(cfg);
    auto client = cluster.make_client(0);
    client->set_transfer_data(false);
    cluster.scheduler().spawn([](pfs::Client& c) -> Task<void> {
      // A deliberately deep type so decode costs are visible.
      dl::DataloopPtr loop = dl::make_leaf(1);
      for (int d = 0; d < 10; ++d) loop = dl::make_vector(2, 1, 64 << d, loop);
      for (int round = 0; round < 50; ++round) {
        (void)co_await c.write_datatype(3, loop, 0, 1, 0, loop->size, nullptr);
      }
    }(*client));
    cluster.run();
    return cluster.scheduler().now();
  };
  EXPECT_LT(run_once(true), run_once(false));
}

}  // namespace
}  // namespace dtio
