// Tests for the PVFS-like file system: striping math, sparse bstreams,
// metadata operations, and end-to-end data round trips through all three
// interfaces (contiguous, list, datatype) including cross-interface
// write-with-one/read-with-another oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "dataloop/dataloop.h"
#include "pfs/bstream.h"
#include "pfs/cluster.h"
#include "pfs/layout.h"

namespace dtio::pfs {
namespace {

using sim::Task;

// ---- Layout -------------------------------------------------------------------

TEST(Layout, PlaceRoundRobin) {
  FileLayout layout(4, 100);
  EXPECT_EQ(layout.place(0).server, 0);
  EXPECT_EQ(layout.place(99).server, 0);
  EXPECT_EQ(layout.place(100).server, 1);
  EXPECT_EQ(layout.place(399).server, 3);
  EXPECT_EQ(layout.place(400).server, 0);    // second stripe
  EXPECT_EQ(layout.place(400).physical, 100);
  EXPECT_EQ(layout.place(50).physical, 50);
  EXPECT_EQ(layout.place(150).physical, 50);
}

TEST(Layout, LogicalInvertsPlace) {
  FileLayout layout(16, 64 * 1024);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto offset = static_cast<std::int64_t>(rng.next_below(1u << 30));
    const auto p = layout.place(offset);
    EXPECT_EQ(layout.logical(p.server, p.physical), offset);
  }
}

TEST(Layout, MapRegionSplitsAtStripBoundaries) {
  FileLayout layout(2, 10);
  std::vector<std::tuple<int, Region, std::int64_t>> pieces;
  layout.map_region(Region{5, 20}, [&](int s, Region r, std::int64_t pos) {
    pieces.emplace_back(s, r, pos);
  });
  // [5,10) srv0 phys[5,10); [10,20) srv1 phys[0,10); [20,25) srv0 phys[10,15)
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], std::make_tuple(0, Region{5, 5}, std::int64_t{0}));
  EXPECT_EQ(pieces[1], std::make_tuple(1, Region{0, 10}, std::int64_t{5}));
  EXPECT_EQ(pieces[2], std::make_tuple(0, Region{10, 5}, std::int64_t{15}));
}

TEST(Layout, MapRegionsTracksStreamAcrossRegions) {
  FileLayout layout(2, 10);
  const std::vector<Region> regions{{0, 4}, {30, 4}};
  std::vector<std::int64_t> stream_positions;
  layout.map_regions(regions, [&](int, Region, std::int64_t pos) {
    stream_positions.push_back(pos);
  });
  EXPECT_EQ(stream_positions, (std::vector<std::int64_t>{0, 4}));
}

TEST(Layout, StripMapperMatchesPlacePerPiece) {
  // One mapper fed a region list one region at a time must yield exactly
  // the pieces place() gives when asked afresh for every piece: regions
  // that cross strips, revisit earlier strips (unsorted order) or start
  // inside the previous piece's strip, under wide and narrow layouts.
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    const int total = static_cast<int>(rng.next_range(1, 16));
    const int servers = static_cast<int>(rng.next_range(1, total));
    const int start = static_cast<int>(rng.next_range(0, total - 1));
    const FileLayout layout(servers, rng.next_range(1, 100), start, total);
    std::vector<Region> regions;
    for (std::int64_t i = rng.next_range(1, 40); i > 0; --i) {
      regions.push_back(Region{rng.next_range(0, 5000), rng.next_range(0, 300)});
    }

    using Piece = std::tuple<int, Region, std::int64_t>;
    std::vector<Piece> want;
    std::int64_t stream_pos = 0;
    for (const Region& r : regions) {
      for (std::int64_t off = r.offset; off < r.end();) {
        const auto p = layout.place(off);
        const std::int64_t run =
            std::min(r.end() - off, layout.strip_size() - off % layout.strip_size());
        want.emplace_back(p.server, Region{p.physical, run}, stream_pos);
        off += run;
        stream_pos += run;
      }
    }

    std::vector<Piece> got;
    StripMapper mapper(layout);
    for (const Region& r : regions) {
      mapper.map(r, [&](int s, Region phys, std::int64_t pos) {
        got.emplace_back(s, phys, pos);
      });
    }
    ASSERT_EQ(got, want) << "trial " << trial;

    std::vector<Piece> batch;
    layout.map_regions(regions, [&](int s, Region phys, std::int64_t pos) {
      batch.emplace_back(s, phys, pos);
    });
    ASSERT_EQ(batch, want) << "trial " << trial;
  }
}

TEST(Layout, ServersTouched) {
  FileLayout layout(4, 10);
  EXPECT_EQ(layout.servers_touched({0, 5}), 1);
  EXPECT_EQ(layout.servers_touched({0, 11}), 2);
  EXPECT_EQ(layout.servers_touched({0, 1000}), 4);  // capped at server count
  EXPECT_EQ(layout.servers_touched({0, 0}), 0);
}

TEST(Layout, IntersectsServerEdges) {
  FileLayout layout(4, 10);  // stripe 40; server 1 owns [10,20), [50,60), ...
  EXPECT_TRUE(layout.intersects_server({10, 1}, 1));
  EXPECT_TRUE(layout.intersects_server({19, 1}, 1));
  EXPECT_FALSE(layout.intersects_server({20, 1}, 1));   // first byte after
  EXPECT_FALSE(layout.intersects_server({0, 10}, 1));   // ends exactly at strip
  EXPECT_TRUE(layout.intersects_server({0, 11}, 1));    // one byte inside
  EXPECT_TRUE(layout.intersects_server({15, 100}, 1));  // starts mid-strip
  EXPECT_FALSE(layout.intersects_server({10, 0}, 1));   // empty region
  EXPECT_TRUE(layout.intersects_server({20, 31}, 1));   // reaches next stripe
  EXPECT_FALSE(layout.intersects_server({20, 30}, 1));  // stops one short
  // Negative offsets (exotic resized types): floor-division stripe math.
  EXPECT_TRUE(layout.intersects_server({-25, 10}, 1));   // [-25,-15) in [-30,-20)
  EXPECT_FALSE(layout.intersects_server({-20, 10}, 1));  // [-20,-10) is server 2
  EXPECT_TRUE(layout.intersects_server({-5, 20}, 1));    // crosses into [10,20)
}

TEST(Layout, IntersectsServerMatchesBruteForce) {
  Rng rng(17);
  for (const auto& [servers, strip] :
       {std::pair{3, std::int64_t{7}}, {16, std::int64_t{64}},
        {1, std::int64_t{10}}}) {
    FileLayout layout(servers, strip);
    for (int trial = 0; trial < 2000; ++trial) {
      const auto offset =
          static_cast<std::int64_t>(rng.next_below(4096)) - 2048;
      const auto length = static_cast<std::int64_t>(rng.next_below(300));
      for (int s = 0; s < servers; ++s) {
        bool expected = false;
        for (std::int64_t b = offset; b < offset + length; ++b) {
          // place() uses truncating division; derive the owner via
          // explicit floor math so negative offsets are handled too.
          const std::int64_t S = layout.stripe_size();
          std::int64_t within = b % S;
          if (within < 0) within += S;
          if (static_cast<int>(within / strip) == s) {
            expected = true;
            break;
          }
        }
        EXPECT_EQ(layout.intersects_server({offset, length}, s), expected)
            << "servers=" << servers << " strip=" << strip
            << " region=[" << offset << "," << offset + length << ") s=" << s;
      }
    }
  }
}

TEST(Layout, MaxServerBytesBoundsAnyWindow) {
  FileLayout layout(4, 10);
  EXPECT_EQ(layout.max_server_bytes(0), 0);
  EXPECT_EQ(layout.max_server_bytes(5), 5);     // clipped to the window
  EXPECT_EQ(layout.max_server_bytes(400), 120); // 10 full stripes + 2 strips
  // Property: no placement of a window can put more than the bound on one
  // server — worst case is a window aligned to maximise partial strips.
  for (std::int64_t window : {1, 9, 10, 11, 39, 40, 41, 100, 399}) {
    std::int64_t worst = 0;
    for (std::int64_t start = 0; start < layout.stripe_size(); ++start) {
      std::int64_t per_server[4] = {0, 0, 0, 0};
      layout.map_region({start, window}, [&](int s, Region r, std::int64_t) {
        per_server[s] += r.length;
      });
      for (const std::int64_t b : per_server) worst = std::max(worst, b);
    }
    EXPECT_GE(layout.max_server_bytes(window), worst) << "window " << window;
  }
}

// ---- Bstream -------------------------------------------------------------------

TEST(BstreamStore, ReadBackAndZeroFill) {
  Bstream bs;
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  bs.write(100, data);
  std::vector<std::uint8_t> out(9, 0xFF);
  bs.read(98, out);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0, 0, 1, 2, 3, 4, 5, 0, 0}));
  EXPECT_EQ(bs.size(), 105);
}

TEST(BstreamStore, CrossPageWrites) {
  Bstream bs;
  std::vector<std::uint8_t> data(3 * Bstream::kPageSize);
  Rng rng(5);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const std::int64_t at = Bstream::kPageSize / 2;
  bs.write(at, data);
  std::vector<std::uint8_t> out(data.size());
  bs.read(at, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(bs.resident_pages(), 4u);
}

TEST(BstreamStore, SparseFilesStaySparse) {
  Bstream bs;
  bs.write(1000LL * Bstream::kPageSize, std::vector<std::uint8_t>{1});
  EXPECT_EQ(bs.resident_pages(), 1u);
  EXPECT_EQ(bs.size(), 1000LL * Bstream::kPageSize + 1);
}

TEST(BstreamStore, NoteWriteOnlyAdvancesSize) {
  Bstream bs;
  bs.note_write(500, 100);
  EXPECT_EQ(bs.size(), 600);
  EXPECT_EQ(bs.resident_pages(), 0u);
}

// ---- End-to-end fixture -----------------------------------------------------------

net::ClusterConfig small_config(int servers = 4, int clients = 2) {
  net::ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.num_clients = clients;
  cfg.strip_size = 1024;  // small strips exercise splitting
  return cfg;
}

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> data(n);
  Rng rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

TEST(EndToEnd, CreateOpenRemove) {
  Cluster cluster(small_config());
  auto client = cluster.make_client(0);
  bool finished = false;
  cluster.scheduler().spawn([](Client& c, bool& done) -> Task<void> {
    MetaResult created = co_await c.create("/a");
    EXPECT_TRUE(created.status.is_ok());
    EXPECT_NE(created.handle, 0u);

    MetaResult duplicate = co_await c.create("/a");
    EXPECT_FALSE(duplicate.status.is_ok());

    MetaResult opened = co_await c.open("/a");
    EXPECT_TRUE(opened.status.is_ok());
    EXPECT_EQ(opened.handle, created.handle);

    MetaResult missing = co_await c.open("/nope");
    EXPECT_FALSE(missing.status.is_ok());

    MetaResult removed = co_await c.remove("/a");
    EXPECT_TRUE(removed.status.is_ok());
    MetaResult gone = co_await c.open("/a");
    EXPECT_FALSE(gone.status.is_ok());
    done = true;
  }(*client, finished));
  cluster.run();
  EXPECT_TRUE(finished);
}

TEST(EndToEnd, ContigWriteReadAcrossStripes) {
  Cluster cluster(small_config());
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(10000, 42);  // spans several stripes
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/contig");
        EXPECT_TRUE(f.status.is_ok());
        Status w = co_await c.write_contig(f.handle, 500, src.data(),
                                           static_cast<std::int64_t>(src.size()));
        EXPECT_TRUE(w.is_ok());

        std::vector<std::uint8_t> back(src.size());
        Status r = co_await c.read_contig(f.handle, 500, back.data(),
                                          static_cast<std::int64_t>(back.size()));
        EXPECT_TRUE(r.is_ok());
        EXPECT_EQ(back, src);

        MetaResult st = co_await c.stat("/contig");
        EXPECT_TRUE(st.status.is_ok());
        EXPECT_EQ(st.size, 500 + static_cast<std::int64_t>(src.size()));
        done = true;
      }(*client, data, finished));
  cluster.run();
  EXPECT_TRUE(finished);
}

TEST(EndToEnd, ListWriteReadRoundTrip) {
  Cluster cluster(small_config());
  auto client = cluster.make_client(0);
  const std::vector<Region> regions{{0, 100}, {2000, 50}, {5000, 300}};
  const auto stream = pattern_bytes(450, 7);
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<Region>& regs,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/list");
        EXPECT_TRUE(f.status.is_ok());
        EXPECT_TRUE((co_await c.write_list(f.handle, regs, src.data())).is_ok());
        std::vector<std::uint8_t> back(src.size(), 0);
        EXPECT_TRUE((co_await c.read_list(f.handle, regs, back.data())).is_ok());
        EXPECT_EQ(back, src);
        done = true;
      }(*client, regions, stream, finished));
  cluster.run();
  EXPECT_TRUE(finished);
}

TEST(EndToEnd, DatatypeWriteReadRoundTrip) {
  Cluster cluster(small_config());
  auto client = cluster.make_client(0);
  // Strided file pattern crossing strip boundaries: 40 blocks of 96 bytes
  // every 250.
  auto filetype = dl::make_vector(40, 96, 250, dl::make_leaf(1));
  const auto stream = pattern_bytes(static_cast<std::size_t>(filetype->size),
                                    11);
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, dl::DataloopPtr* type,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/dt");
        EXPECT_TRUE(f.status.is_ok());
        EXPECT_TRUE((co_await c.write_datatype(f.handle, *type, 123, 1, 0,
                                              (*type)->size, src.data())).is_ok());
        std::vector<std::uint8_t> back(src.size(), 0);
        EXPECT_TRUE((co_await c.read_datatype(f.handle, *type, 123, 1, 0,
                                             (*type)->size, back.data())).is_ok());
        EXPECT_EQ(back, src);
        done = true;
      }(*client, &filetype, stream, finished));
  cluster.run();
  EXPECT_TRUE(finished);
}

TEST(EndToEnd, DatatypeStreamWindowIsRespected) {
  Cluster cluster(small_config());
  auto client = cluster.make_client(0);
  auto filetype = dl::make_vector(10, 8, 64, dl::make_leaf(1));  // 80 bytes
  const auto stream = pattern_bytes(80, 13);
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, dl::DataloopPtr* type,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/win");
        EXPECT_TRUE(f.status.is_ok());
        // Write the whole stream, then read back only window [24, 56).
        EXPECT_TRUE((co_await c.write_datatype(f.handle, *type, 0, 1, 0, 80,
                                              src.data())).is_ok());
        std::vector<std::uint8_t> part(32, 0);
        EXPECT_TRUE((co_await c.read_datatype(f.handle, *type, 0, 1, 24, 32,
                                             part.data())).is_ok());
        EXPECT_TRUE(std::equal(part.begin(), part.end(), src.begin() + 24));
        done = true;
      }(*client, &filetype, stream, finished));
  cluster.run();
  EXPECT_TRUE(finished);
}

TEST(EndToEnd, CrossInterfaceOracle) {
  // Write with the datatype interface, read back with list and contig:
  // all three views of the file must agree byte-for-byte.
  Cluster cluster(small_config());
  auto client = cluster.make_client(0);
  auto filetype = dl::make_vector(8, 32, 200, dl::make_leaf(1));  // 256 B
  const auto stream = pattern_bytes(256, 17);
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, dl::DataloopPtr* type,
         const std::vector<std::uint8_t>& src, bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/oracle");
        EXPECT_TRUE(f.status.is_ok());
        EXPECT_TRUE((co_await c.write_datatype(f.handle, *type, 0, 1, 0, 256,
                                              src.data())).is_ok());

        // The same regions, described explicitly.
        std::vector<Region> regions;
        for (int b = 0; b < 8; ++b) regions.push_back({b * 200, 32});
        std::vector<std::uint8_t> via_list(256, 0);
        EXPECT_TRUE((co_await c.read_list(f.handle, regions, via_list.data())).is_ok());
        EXPECT_EQ(via_list, src);

        // Contig read of one block plus its gap.
        std::vector<std::uint8_t> via_contig(200, 0);
        EXPECT_TRUE((co_await c.read_contig(f.handle, 200, via_contig.data(),
                                           200)).is_ok());
        EXPECT_TRUE(std::equal(via_contig.begin(), via_contig.begin() + 32,
                               src.begin() + 32));
        // Gap bytes were never written: zero-filled.
        for (std::size_t i = 32; i < 200; ++i) EXPECT_EQ(via_contig[i], 0);
        done = true;
      }(*client, &filetype, stream, finished));
  cluster.run();
  EXPECT_TRUE(finished);
}

TEST(EndToEnd, MultipleClientsDisjointWrites) {
  auto cfg = small_config(4, 4);
  Cluster cluster(cfg);
  std::vector<std::unique_ptr<Client>> clients;
  for (int r = 0; r < 4; ++r) clients.push_back(cluster.make_client(r));
  std::vector<std::vector<std::uint8_t>> data;
  for (int r = 0; r < 4; ++r) {
    data.push_back(pattern_bytes(5000, 100 + static_cast<std::uint64_t>(r)));
  }
  int finished = 0;

  // Rank 0 creates; all ranks write disjoint 5000-byte segments.
  cluster.scheduler().spawn([](Cluster& cl, Client& c) -> Task<void> {
    (void)co_await c.create("/shared");
    (void)cl;
  }(cluster, *clients[0]));
  cluster.run();  // settle create first

  for (int r = 0; r < 4; ++r) {
    cluster.scheduler().spawn(
        [](Client& c, const std::vector<std::uint8_t>& src, int rank,
           int& done) -> Task<void> {
          MetaResult f = co_await c.open("/shared");
          EXPECT_TRUE(f.status.is_ok());
          EXPECT_TRUE((co_await c.write_contig(
              f.handle, rank * 5000, src.data(),
              static_cast<std::int64_t>(src.size()))).is_ok());
          ++done;
        }(*clients[static_cast<std::size_t>(r)],
          data[static_cast<std::size_t>(r)], r, finished));
  }
  cluster.run();
  EXPECT_EQ(finished, 4);

  bool verified = false;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::vector<std::uint8_t>>& all,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.open("/shared");
        std::vector<std::uint8_t> back(20000);
        EXPECT_TRUE((co_await c.read_contig(f.handle, 0, back.data(), 20000)).is_ok());
        for (int r = 0; r < 4; ++r) {
          EXPECT_TRUE(std::equal(all[static_cast<std::size_t>(r)].begin(),
                                 all[static_cast<std::size_t>(r)].end(),
                                 back.begin() + r * 5000))
              << "rank " << r;
        }
        done = true;
      }(*clients[0], data, verified));
  cluster.run();
  EXPECT_TRUE(verified);
}

TEST(EndToEnd, OverlappingWritesResolveDeterministically) {
  // Two clients write the same range; the simulated-time order decides,
  // and repeated runs agree byte for byte.
  auto run_once = []() {
    Cluster cluster(small_config(2, 2));
    auto c0 = cluster.make_client(0);
    auto c1 = cluster.make_client(1);
    const auto a = pattern_bytes(4096, 111);
    const auto b = pattern_bytes(4096, 222);
    cluster.scheduler().spawn([](Client& c) -> Task<void> {
      (void)co_await c.create("/ow");
    }(*c0));
    cluster.run();
    for (int r = 0; r < 2; ++r) {
      cluster.scheduler().spawn(
          [](Client& c, const std::vector<std::uint8_t>& src,
             int rank) -> Task<void> {
            MetaResult f = co_await c.open("/ow");
            (void)co_await c.write_contig(f.handle, 0, src.data(),
                                          4096 - rank);  // overlap
          }(r == 0 ? *c0 : *c1, r == 0 ? a : b, r));
    }
    cluster.run();
    std::vector<std::uint8_t> back(4096);
    cluster.scheduler().spawn(
        [](Client& c, std::vector<std::uint8_t>& out) -> Task<void> {
          MetaResult f = co_await c.open("/ow");
          (void)co_await c.read_contig(f.handle, 0, out.data(), 4096);
        }(*c0, back));
    cluster.run();
    return back;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EndToEnd, TimingOnlyModeMatchesTimingOfRealTransfer) {
  // The whole point of timing-only mode: identical simulated time and
  // counters, no data movement.
  auto run_once = [](bool transfer) {
    Cluster cluster(small_config());
    auto client = cluster.make_client(0);
    client->set_transfer_data(transfer);
    const auto data = pattern_bytes(50000, 1);
    cluster.scheduler().spawn(
        [](Client& c, const std::vector<std::uint8_t>& src) -> Task<void> {
          MetaResult f = co_await c.create("/t");
          (void)co_await c.write_contig(f.handle, 0, src.data(),
                                        static_cast<std::int64_t>(src.size()));
          std::vector<std::uint8_t> back(src.size());
          (void)co_await c.read_contig(f.handle, 0, back.data(),
                                       static_cast<std::int64_t>(back.size()));
        }(*client, data));
    cluster.run();
    return std::make_tuple(cluster.scheduler().now(), client->stats().io_ops,
                           client->stats().accessed_bytes,
                           cluster.server(0).stats().bytes_written);
  };
  EXPECT_EQ(run_once(true), run_once(false));
}

TEST(EndToEnd, StatsCountOpsAndBytes) {
  Cluster cluster(small_config());
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(3000, 2);
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src) -> Task<void> {
        MetaResult f = co_await c.create("/s");
        (void)co_await c.write_contig(f.handle, 0, src.data(), 3000);
        (void)co_await c.read_contig(f.handle, 0,
                                     const_cast<std::uint8_t*>(src.data()),
                                     3000);
      }(*client, data));
  cluster.run();
  const IoStats& stats = client->stats();
  EXPECT_EQ(stats.io_ops, 2u);
  // desired_bytes is owned by the I/O-method layer (data sieving reads
  // more than desired); the raw client counts only accessed bytes.
  EXPECT_EQ(stats.desired_bytes, 0u);
  EXPECT_EQ(stats.accessed_bytes, 6000u);
  // 3000 B with 1024 B strips: pieces 0..1023, 1024..2047, 2048..2999 on
  // three servers; same for the read.
  EXPECT_EQ(stats.regions_client, 6u);
  EXPECT_EQ(stats.requests_sent, 6u);
}

TEST(EndToEnd, ServerStatsTrackProcessing) {
  Cluster cluster(small_config());
  auto client = cluster.make_client(0);
  const auto data = pattern_bytes(2048, 3);
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src) -> Task<void> {
        MetaResult f = co_await c.create("/sv");
        (void)co_await c.write_contig(f.handle, 0, src.data(), 2048);
      }(*client, data));
  cluster.run();
  // Strips are 1024 B: servers 0 and 1 each received one request of 1024 B.
  EXPECT_EQ(cluster.server(0).stats().bytes_written, 1024u);
  EXPECT_EQ(cluster.server(1).stats().bytes_written, 1024u);
  EXPECT_EQ(cluster.server(2).stats().bytes_written, 0u);
  // Metadata + its data request.
  EXPECT_GE(cluster.server(0).stats().requests, 2u);
  // The fleet total sums every field; max_backlog is the deepest backlog.
  const ServerStats total = cluster.cache_stats_total();
  EXPECT_EQ(total.bytes_written, 2048u);
  std::uint64_t requests = 0;
  std::uint64_t max_backlog = 0;
  for (int s = 0; s < cluster.config().num_servers; ++s) {
    requests += cluster.server(s).stats().requests;
    max_backlog = std::max(max_backlog, cluster.server(s).stats().max_backlog);
  }
  EXPECT_EQ(total.requests, requests);
  EXPECT_EQ(total.max_backlog, max_backlog);
}

// ---- Pruned dataloop expansion ------------------------------------------------

/// Round-trip a datatype write+read on a fresh cluster with the given
/// pruned_expansion setting; returns the read-back payload and the
/// server-side counters the pruning must (and must not) change.
struct DatatypeRunResult {
  std::vector<std::uint8_t> back;
  std::uint64_t regions_walked = 0;
  std::uint64_t subtrees_skipped = 0;
  std::uint64_t pieces_pruned = 0;
  /// Per-server (my_pieces, bytes_read, bytes_written): identical with
  /// pruning on and off — pruning may only skip work, never data.
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>>
      per_server;
};

DatatypeRunResult run_datatype_roundtrip(dl::DataloopPtr filetype,
                                         std::int64_t displacement,
                                         std::int64_t count,
                                         const std::vector<std::uint8_t>& stream,
                                         bool pruned) {
  net::ClusterConfig cfg = small_config();
  cfg.server.pruned_expansion = pruned;
  Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  DatatypeRunResult result;
  result.back.assign(stream.size(), 0);
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, dl::DataloopPtr type, std::int64_t disp, std::int64_t n,
         const std::vector<std::uint8_t>& src, std::vector<std::uint8_t>& back,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/pruned");
        EXPECT_TRUE(f.status.is_ok());
        const auto len = static_cast<std::int64_t>(src.size());
        EXPECT_TRUE((co_await c.write_datatype(f.handle, type, disp, n, 0, len,
                                               src.data())).is_ok());
        EXPECT_TRUE((co_await c.read_datatype(f.handle, type, disp, n, 0, len,
                                              back.data())).is_ok());
        done = true;
      }(*client, filetype, displacement, count, stream, result.back, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  for (int s = 0; s < cfg.num_servers; ++s) {
    const ServerStats& st = cluster.server(s).stats();
    result.regions_walked += st.regions_walked;
    result.subtrees_skipped += st.subtrees_skipped;
    result.pieces_pruned += st.pieces_pruned;
    result.per_server.emplace_back(st.my_pieces, st.bytes_read,
                                   st.bytes_written);
  }
  return result;
}

TEST(EndToEnd, PrunedExpansionMatchesFullExpansionRandomized) {
  // Property: for random strided/indexed file patterns, servers with
  // subtree pruning on must produce byte-identical payloads and identical
  // per-server piece/byte counts as full expansion — only the number of
  // regions walked may shrink.
  Rng rng(29);
  for (int trial = 0; trial < 8; ++trial) {
    dl::DataloopPtr filetype;
    if (rng.next_below(2) == 0) {
      const std::int64_t bl = rng.next_range(1, 200);
      filetype = dl::make_vector(rng.next_range(4, 40), bl,
                                 bl + rng.next_range(1, 700),
                                 dl::make_leaf(1));
    } else {
      const std::int64_t nblocks = rng.next_range(3, 12);
      std::vector<std::int64_t> lens;
      std::vector<std::int64_t> offs;
      std::int64_t at = 0;
      for (std::int64_t b = 0; b < nblocks; ++b) {
        const std::int64_t bl = rng.next_range(1, 64);
        lens.push_back(bl);
        offs.push_back(at);
        at += bl * 4 + rng.next_range(1, 900);
      }
      filetype = dl::make_indexed(lens, offs, dl::make_leaf(4));
    }
    const std::int64_t count = rng.next_range(1, 3);
    const std::int64_t displacement = rng.next_range(0, 2000);
    const auto stream = pattern_bytes(
        static_cast<std::size_t>(filetype->size * count), 100 + trial);

    const auto pruned =
        run_datatype_roundtrip(filetype, displacement, count, stream, true);
    const auto full =
        run_datatype_roundtrip(filetype, displacement, count, stream, false);

    EXPECT_EQ(pruned.back, stream) << "trial " << trial;
    EXPECT_EQ(full.back, stream) << "trial " << trial;
    EXPECT_EQ(pruned.per_server, full.per_server) << "trial " << trial;
    EXPECT_LE(pruned.regions_walked, full.regions_walked) << "trial " << trial;
    EXPECT_EQ(full.subtrees_skipped, 0u);
    EXPECT_EQ(full.pieces_pruned, 0u);
  }
}

TEST(EndToEnd, PrunedExpansionSkipsOtherServersSubtrees) {
  // Deterministic shape: 64 strip-sized rows, each landing wholly in one
  // strip, with stride 5 strips — row k lands on server k mod 4, so each
  // server owns exactly 16 rows and must probe (not walk) the other 48
  // per request.
  auto filetype = dl::make_vector(64, 1024, 5 * 1024, dl::make_leaf(1));
  const auto stream = pattern_bytes(static_cast<std::size_t>(filetype->size), 5);
  const auto pruned = run_datatype_roundtrip(filetype, 0, 1, stream, true);
  const auto full = run_datatype_roundtrip(filetype, 0, 1, stream, false);
  EXPECT_EQ(pruned.back, stream);
  EXPECT_GT(pruned.subtrees_skipped, 0u);
  EXPECT_GT(pruned.pieces_pruned, 0u);
  // Full expansion walks all 64 pieces on each of the 4 servers (touched
  // by both the write and the read); pruning cuts the aggregate walk at
  // least 2x even counting the unprunable own pieces.
  EXPECT_GE(full.regions_walked, 2 * pruned.regions_walked);
}

TEST(EndToEnd, DataloopCacheEvictsLeastRecentlyUsed) {
  net::ClusterConfig cfg = small_config(1, 1);
  cfg.server.dataloop_cache = true;
  cfg.server.dataloop_cache_entries = 2;
  Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  // Request pattern A B A C A with room for 2 entries. True LRU keeps A
  // hot (B is the eviction victim when C arrives): 3 decodes, 2 hits.
  // FIFO would evict A on C's arrival and re-decode it: 4 decodes, 1 hit.
  auto type_a = dl::make_vector(4, 8, 32, dl::make_leaf(1));
  auto type_b = dl::make_vector(2, 16, 64, dl::make_leaf(1));
  auto type_c = dl::make_vector(8, 4, 16, dl::make_leaf(1));
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, dl::DataloopPtr a, dl::DataloopPtr b, dl::DataloopPtr cc,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/lru");
        EXPECT_TRUE(f.status.is_ok());
        std::vector<std::uint8_t> buf(64, 0);
        for (const dl::DataloopPtr& type : {a, b, a, cc, a}) {
          EXPECT_TRUE((co_await c.read_datatype(f.handle, type, 0, 1, 0,
                                                type->size, buf.data()))
                          .is_ok());
        }
        done = true;
      }(*client, type_a, type_b, type_c, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(cluster.server(0).stats().dataloops_decoded, 3u);
  EXPECT_EQ(cluster.server(0).stats().dataloop_cache_hits, 2u);
}

}  // namespace
}  // namespace dtio::pfs
