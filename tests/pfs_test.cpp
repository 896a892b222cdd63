// Tests for the PVFS-like file system: striping math, sparse bstreams,
// metadata operations, and end-to-end data round trips through all three
// interfaces (contiguous, list, datatype) including cross-interface
// write-with-one/read-with-another oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "dataloop/cursor.h"
#include "dataloop/dataloop.h"
#include "dataloop/serialize.h"
#include "cache/buffer_cache.h"
#include "pfs/applier.h"
#include "pfs/bstream.h"
#include "pfs/cluster.h"
#include "pfs/layout.h"
#include "pfs/replay_window.h"
#include "pfs/protocol.h"

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
  StripMapper mapper(layout);
  mapper.map(Region{5, 20}, [&](int s, Region r, std::int64_t pos) {
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
  StripMapper mapper(layout);
  for (const Region& r : regions) {
    mapper.map(r, [&](int, Region, std::int64_t pos) {
      stream_positions.push_back(pos);
    });
  }
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
  }
}

TEST(Layout, MapRunMatchesPerRegionMap) {
  // map_run of a run against map() of its regions one by one, on one
  // mapper carried across several runs: lengths that divide the strip and
  // lengths that do not, runs straddling strips, narrow per-file layouts,
  // counts 1..200; back-to-back and strided runs (gaps smaller and
  // larger than a strip). Same pieces in total, same bytes per
  // server, and the same extents once each group is expanded into its
  // regions and adjacent pieces are merged, each counting exactly the
  // pieces it merged.
  Rng rng(4711);
  std::int64_t total_pieces = 0;
  std::int64_t strided_groups = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const int total = static_cast<int>(rng.next_range(1, 16));
    const int servers = static_cast<int>(rng.next_range(1, total));
    const int start = static_cast<int>(rng.next_range(0, total - 1));
    const std::int64_t strip = rng.next_below(2) == 0
                                   ? std::int64_t{8} << rng.next_below(5)
                                   : rng.next_range(1, 300);
    const FileLayout layout(servers, strip, start, total);
    std::vector<RegionRun> runs;
    for (std::int64_t i = rng.next_range(1, 3); i > 0; --i) {
      std::int64_t length = 0;
      switch (rng.next_below(3)) {
        case 0: length = strip / (std::int64_t{1} << rng.next_below(3)); break;
        case 1: length = rng.next_range(1, strip + 20); break;
        default: length = rng.next_range(1, 3 * strip); break;
      }
      length = std::max<std::int64_t>(length, 1);
      std::int64_t stride = length;
      switch (rng.next_below(3)) {
        case 0: break;
        case 1: stride = length + rng.next_range(1, 3 * strip); break;
        default: stride = length + rng.next_range(1, 8); break;
      }
      runs.push_back(RegionRun{rng.next_range(0, 20 * strip), length,
                               rng.next_range(1, 200), stride});
    }

    struct Extent {
      int server;
      Region phys;
      std::int64_t stream_pos;
      std::int64_t pieces;
      bool operator==(const Extent&) const = default;
    };
    // Merge a piece or extent onto the last one when it continues it on
    // the same server, in the file and in the stream.
    auto merge_into = [](std::vector<Extent>& out, const Extent& e) {
      if (!out.empty()) {
        Extent& last = out.back();
        if (last.server == e.server && last.phys.end() == e.phys.offset &&
            last.stream_pos + last.phys.length == e.stream_pos) {
          last.phys.length += e.phys.length;
          last.pieces += e.pieces;
          return;
        }
      }
      out.push_back(e);
    };

    std::vector<Extent> want;
    std::vector<std::int64_t> want_bytes(static_cast<std::size_t>(total), 0);
    std::int64_t want_pieces = 0;
    StripMapper per_region(layout);
    for (const RegionRun& run : runs) {
      for (std::int64_t i = 0; i < run.count; ++i) {
        per_region.map(Region{run.offset + i * run.stride, run.length},
                       [&](int srv, Region phys, std::int64_t pos) {
                         ++want_pieces;
                         want_bytes[static_cast<std::size_t>(srv)] +=
                             phys.length;
                         merge_into(want, Extent{srv, phys, pos, 1});
                       });
      }
    }

    std::vector<Extent> got;
    std::vector<std::int64_t> got_bytes(static_cast<std::size_t>(total), 0);
    std::int64_t got_pieces = 0;
    StripMapper by_run(layout);
    for (const RegionRun& run : runs) {
      by_run.map_run(run, [&](int srv, const RegionRun& phys,
                              std::int64_t pos, std::int64_t n) {
        ASSERT_GE(n, 1);
        ASSERT_GE(phys.count, 1);
        got_pieces += n;
        got_bytes[static_cast<std::size_t>(srv)] += phys.length * phys.count;
        if (phys.count == 1) {
          merge_into(got, Extent{srv, {phys.offset, phys.length}, pos, n});
          return;
        }
        // A group of whole regions: one piece each, a stride apart.
        ASSERT_EQ(n, phys.count);
        ASSERT_EQ(phys.stride, run.stride);
        ++strided_groups;
        for (std::int64_t k = 0; k < phys.count; ++k) {
          merge_into(got, Extent{srv,
                                 {phys.offset + k * phys.stride, phys.length},
                                 pos + k * phys.length, 1});
        }
      });
    }
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " strip " << strip);
    EXPECT_EQ(got_pieces, want_pieces);
    EXPECT_EQ(got_bytes, want_bytes);
    ASSERT_EQ(got, want);
    total_pieces += want_pieces;
  }
  EXPECT_GT(total_pieces, 100000);
  EXPECT_GT(strided_groups, 1000);
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
      StripMapper(layout).map({start, window},
                              [&](int s, Region r, std::int64_t) {
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

// ---- Applier: runs against per-region application --------------------------

/// A ByteStore over one Bstream, so a BlockCache can sit in front of it.
struct BstreamStore final : cache::ByteStore {
  Bstream* b = nullptr;
  void read_at(std::uint64_t, std::int64_t offset,
               std::span<std::uint8_t> out) override {
    b->read(offset, out);
  }
  void write_at(std::uint64_t, std::int64_t offset,
                std::span<const std::uint8_t> data) override {
    b->write(offset, data);
  }
  void note_size(std::uint64_t, std::int64_t offset,
                 std::int64_t length) override {
    b->note_write(offset, length);
  }
  std::int64_t size_of(std::uint64_t) override { return b->size(); }
};

struct Applied {
  std::int64_t pieces = 0;
  std::int64_t my_pieces = 0;
  std::int64_t my_bytes = 0;
  std::int64_t size = 0;
  std::vector<std::uint8_t> stored;  ///< the bstream's first `size` bytes
  std::vector<std::uint8_t> reply;
  std::vector<Region> applied;
  std::vector<Region> visited;
  cache::AccessPlan plan;
};

/// Let `feed` drive an Applier as server `me`, on a copy of `store`.
/// `cached` puts a small write-back cache in front; `record` collects the
/// applied/visited regions as replication and media verification do.
template <typename Feed>
Applied apply_with(const FileLayout& layout, int me, bool is_write, bool carry,
                   bool cached, bool record, const Bstream& store,
                   const DataBuffer& data, Feed&& feed) {
  Bstream target = store;
  BstreamStore adapter;
  adapter.b = &target;
  cache::CacheConfig cc;
  cc.block_bytes = 64;
  cc.capacity_bytes = 64 * 8;
  cache::BlockCache block_cache(cc, adapter);
  Applied out;
  Applier applier{layout,
                  me,
                  Store{cached ? &block_cache : nullptr, out.plan, target, 7},
                  is_write,
                  carry,
                  data,
                  (!is_write && carry)
                      ? std::make_shared<std::vector<std::uint8_t>>()
                      : nullptr,
                  record && is_write ? &out.applied : nullptr,
                  record && !is_write ? &out.visited : nullptr};
  feed(applier);
  if (cached) block_cache.flush_all(nullptr);
  out.pieces = applier.pieces;
  out.my_pieces = applier.my_pieces;
  out.my_bytes = applier.my_bytes;
  out.size = target.size();
  out.stored.resize(static_cast<std::size_t>(target.size()));
  target.read(0, out.stored);
  if (applier.reply_data) out.reply = *applier.reply_data;
  return out;
}

/// Apply `runs` as server `me` sees them, either a run at a time or a
/// region at a time (each region a count-1 run).
Applied apply_runs(const FileLayout& layout, int me,
                   const std::vector<RegionRun>& runs, bool is_write,
                   bool carry, bool by_run, bool cached, bool record,
                   const Bstream& store, const DataBuffer& data) {
  return apply_with(layout, me, is_write, carry, cached, record, store, data,
                    [&](Applier& applier) {
                      for (const RegionRun& run : runs) {
                        if (by_run) {
                          applier.apply_run(run);
                          continue;
                        }
                        for (std::int64_t i = 0; i < run.count; ++i) {
                          applier.apply_run(RegionRun{
                              run.offset + i * run.stride, run.length});
                        }
                      }
                    });
}

/// `regions` with each region that starts where the one before it ends
/// folded into that one.
std::vector<Region> merge_adjacent(const std::vector<Region>& regions) {
  std::vector<Region> out;
  for (const Region& r : regions) {
    if (!out.empty() && out.back().end() == r.offset) {
      out.back().length += r.length;
    } else {
      out.push_back(r);
    }
  }
  return out;
}

/// `exact`: the same store accesses on both sides, so the same recorded
/// regions and cache plan. Otherwise (a back-to-back run of several
/// regions is one access per strip, its regions one access each) the
/// recorded regions agree once adjacent ones are merged, and the cache,
/// which saw different accesses, may plan differently.
void expect_same(const Applied& got, const Applied& want, bool exact = true) {
  EXPECT_EQ(got.pieces, want.pieces);
  EXPECT_EQ(got.my_pieces, want.my_pieces);
  EXPECT_EQ(got.my_bytes, want.my_bytes);
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.stored, want.stored);
  EXPECT_EQ(got.reply, want.reply);
  if (!exact) {
    EXPECT_EQ(merge_adjacent(got.applied), merge_adjacent(want.applied));
    EXPECT_EQ(merge_adjacent(got.visited), merge_adjacent(want.visited));
    return;
  }
  EXPECT_EQ(got.applied, want.applied);
  EXPECT_EQ(got.visited, want.visited);
  EXPECT_EQ(got.plan.sync_reads, want.plan.sync_reads);
  EXPECT_EQ(got.plan.sync_writes, want.plan.sync_writes);
  EXPECT_EQ(got.plan.async_reads, want.plan.async_reads);
  EXPECT_EQ(got.plan.async_writes, want.plan.async_writes);
  EXPECT_EQ(got.plan.hits, want.plan.hits);
  EXPECT_EQ(got.plan.misses, want.plan.misses);
  EXPECT_EQ(got.plan.readahead_blocks, want.plan.readahead_blocks);
  EXPECT_EQ(got.plan.evictions, want.plan.evictions);
}

TEST(Applier, RunsMatchPerRegionApply) {
  // Reads and writes, with data and timing-only, direct to the bstream,
  // through a cache, and recording regions: applying whole runs must leave
  // the same counts, bytes and reply as applying their regions one by one
  // (count-1 runs), and, unless a back-to-back run of several regions
  // merged them, the same recorded regions and cache plan.
  Rng rng(90210);
  for (int trial = 0; trial < 400; ++trial) {
    const int total = static_cast<int>(rng.next_range(1, 8));
    const int servers = static_cast<int>(rng.next_range(1, total));
    const FileLayout layout(servers, rng.next_range(4, 200),
                            static_cast<int>(rng.next_range(0, total - 1)),
                            total);
    const int me = static_cast<int>(rng.next_range(0, total - 1));
    std::vector<RegionRun> runs;
    std::int64_t bytes = 0;
    for (std::int64_t i = rng.next_range(1, 4); i > 0; --i) {
      const std::int64_t length = rng.next_range(1, 90);
      std::int64_t stride = length;  // back to back or strided
      if (rng.next_below(2) == 1) stride += rng.next_range(1, 300);
      runs.push_back(
          RegionRun{rng.next_range(0, 3000), length, rng.next_range(1, 60),
                    stride});
      bytes += runs.back().length * runs.back().count;
    }
    const bool exact =
        std::none_of(runs.begin(), runs.end(), [](const RegionRun& r) {
          return r.count > 1 && r.back_to_back();
        });
    Bstream store;
    const auto prefill = pattern_bytes(4000, static_cast<std::uint64_t>(trial));
    store.write(0, prefill);
    const DataBuffer data = std::make_shared<std::vector<std::uint8_t>>(
        pattern_bytes(static_cast<std::size_t>(bytes),
                      static_cast<std::uint64_t>(trial) + 1));
    for (const bool is_write : {true, false}) {
      for (const bool carry : {true, false}) {
        for (const int mode : {0, 1, 2}) {  // direct, cached, recording
          SCOPED_TRACE(::testing::Message()
                       << "trial " << trial << " write " << is_write
                       << " carry " << carry << " mode " << mode);
          const Applied want =
              apply_runs(layout, me, runs, is_write, carry, false, mode == 1,
                         mode == 2, store, data);
          const Applied got =
              apply_runs(layout, me, runs, is_write, carry, true, mode == 1,
                         mode == 2, store, data);
          expect_same(got, want, exact);
        }
      }
    }
  }
}

// ---- Strided datatype walk against the per-region walk ---------------------
//
// The datatype path walks a dataloop window as cursor runs mapped a strip
// at a time (client: Cursor::process_runs + StripMapper::map_run, as
// Client::build_access does; server: the same with the pruning filter and
// its run filter, into Applier::apply_run, as IOServer::handle_data does). The oracle is the per-region walk it
// replaced: Cursor::process() regions, each mapped with StripMapper::map()
// (client) or applied as a count-1 run (server) under the span filter
// alone.

struct PruneCtx {
  const FileLayout* layout;
  int server;
};

bool prune_span(const void* ctx, std::int64_t lo, std::int64_t hi) {
  const auto* c = static_cast<const PruneCtx*>(ctx);
  return c->layout->intersects_server(Region{lo, hi - lo}, c->server);
}

std::int64_t prune_run(const void* ctx, const RegionRun& run, bool keep) {
  const auto* c = static_cast<const PruneCtx*>(ctx);
  return c->layout->leading_regions(run, c->server, keep);
}

/// Packed rows of 1..48 bytes (a contig of 1..4-byte leaves).
dl::DataloopPtr random_row(Rng& rng) {
  return dl::make_contig(rng.next_range(1, 12),
                         dl::make_leaf(rng.next_range(1, 4)));
}

/// A random file type whose leaf level is strided rows: (h)vectors with
/// gaps smaller and larger than a strip and negative strides,
/// blockindexed with a nonzero anchor (uniform, broken or touching
/// steps), contigs of spaced-out rows, 2-D and 3-D subarrays, and nestings
/// of them, often resized so one instance's last row touches the next
/// instance's first (neighbours process() coalesces).
dl::DataloopPtr random_strided_type(Rng& rng, int depth = 0) {
  dl::DataloopPtr row = random_row(rng);
  dl::DataloopPtr loop;
  const auto gap = [&] {
    return rng.next_below(3) == 0 ? std::int64_t{0} : rng.next_range(1, 700);
  };
  switch (rng.next_below(depth < 1 ? 7 : 5)) {
    case 0: {  // (h)vector
      const std::int64_t bl = rng.next_range(1, 3);
      loop = dl::make_vector(rng.next_range(2, 40), bl,
                             bl * row->extent + gap(), row);
      break;
    }
    case 1: {  // negative stride
      const std::int64_t bl = rng.next_range(1, 2);
      loop = dl::make_vector(rng.next_range(2, 20), bl,
                             -(bl * row->extent + rng.next_range(0, 300)), row);
      break;
    }
    case 2: {  // blockindexed, anchored away from zero
      const std::int64_t n = rng.next_range(2, 30);
      const std::int64_t step = row->extent + gap();
      std::vector<std::int64_t> offs;
      std::int64_t at = rng.next_range(1, 500);
      for (std::int64_t i = 0; i < n; ++i) {
        offs.push_back(at);
        at += rng.next_below(6) == 0 ? row->extent + gap() : step;
      }
      loop = dl::make_blockindexed(n, 1, offs, row);
      break;
    }
    case 3: {  // contig of spaced-out rows (FLASH cells)
      loop = dl::make_contig(
          rng.next_range(2, 30),
          dl::make_resized(row, 0, row->extent + rng.next_range(1, 300)));
      break;
    }
    case 4: {  // 2-D or 3-D subarray of bytes
      const int dims = static_cast<int>(rng.next_range(2, 3));
      std::int64_t size[3];
      std::int64_t sub[3];
      std::int64_t start[3];
      for (int d = 0; d < dims; ++d) {
        size[d] = rng.next_range(2, d == dims - 1 ? 400 : 24);
        sub[d] = rng.next_range(1, size[d]);
        start[d] = rng.next_range(0, size[d] - sub[d]);
      }
      // As types::subarray builds it (C order): innermost contig, then
      // vectors outward, anchored at the start, extent the whole array.
      loop = dl::make_contig(sub[dims - 1], dl::make_leaf(1));
      std::int64_t stride = size[dims - 1];
      std::int64_t anchor = start[dims - 1];
      for (int d = dims - 2; d >= 0; --d) {
        anchor += start[d] * stride;
        loop = dl::make_vector(sub[d], 1, stride, loop);
        stride *= size[d];
      }
      if (anchor != 0) {
        const std::int64_t offs[] = {anchor};
        loop = dl::make_blockindexed(1, 1, offs, loop);
      }
      return dl::make_resized(loop, 0, stride);
    }
    default: {  // nested: an outer vector or contig of an inner strided type
      const dl::DataloopPtr inner = random_strided_type(rng, depth + 1);
      if (inner->extent <= 0) return inner;
      loop = rng.next_below(2) == 0
                 ? dl::make_contig(rng.next_range(2, 4), inner)
                 : dl::make_vector(rng.next_range(2, 4), 1,
                                   inner->extent + rng.next_range(0, 64),
                                   inner);
      break;
    }
  }
  switch (rng.next_below(3)) {
    case 0:  // instances touch: the next one's first row ends this one's last
      return dl::make_resized(loop, loop->lb, loop->data_ub - loop->data_lb);
    case 1:
      return dl::make_resized(loop, loop->lb,
                              loop->extent + rng.next_range(1, 200));
    default:
      return loop;
  }
}

struct Piece {
  int server;
  Region phys;
  std::int64_t stream_pos;
  bool operator==(const Piece&) const = default;
};

TEST(Layout, LeadingRegionsMatchIntersectsServer) {
  Rng rng(8088);
  std::int64_t long_answers = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const int total = static_cast<int>(rng.next_range(1, 16));
    const FileLayout layout(static_cast<int>(rng.next_range(1, total)),
                            rng.next_range(1, 300),
                            static_cast<int>(rng.next_range(0, total - 1)),
                            total);
    const std::int64_t length = rng.next_range(1, 400);
    const RegionRun run{rng.next_range(0, 5000), length, rng.next_range(1, 80),
                        length + rng.next_range(1, rng.next_below(2) == 0
                                                           ? 40
                                                           : 4000)};
    const int server = static_cast<int>(rng.next_range(0, total - 1));
    for (const bool keep : {true, false}) {
      std::int64_t want = 0;
      while (want < run.count &&
             layout.intersects_server(
                 Region{run.offset + want * run.stride, run.length}, server) ==
                 keep) {
        ++want;
      }
      ASSERT_EQ(layout.leading_regions(run, server, keep), want)
          << "trial " << trial << " keep " << keep;
      if (want > 2) ++long_answers;
    }
  }
  EXPECT_GT(long_answers, 1000);
}

TEST(StridedWalk, MatchesPerRegionWalkOnClientAndServer) {
  // Random strided types, layouts (1-16 servers, strips smaller than a
  // row, any start server), windows and seeks. Client: the same pieces,
  // in the same order, with the same stream positions. Server, for a
  // random server with pruning on and off, reads and writes with and
  // without data, direct, through a cache and recording regions: the same
  // pieces, my_pieces, my_bytes, reply bytes, stored bytes, recorded
  // regions and cache plan (a strided group touches the store once per
  // row), and the same skip counters.
  Rng rng(20260);
  std::int64_t strided_groups = 0;
  std::int64_t skipped = 0;
  std::int64_t coalesced = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const dl::DataloopPtr loop = random_strided_type(rng);
    if (loop->size == 0) continue;
    const int total = static_cast<int>(rng.next_range(1, 16));
    // A third of the layouts have strips no longer than a row (<= 48 B).
    const std::int64_t strip = rng.next_below(3) == 0
                                   ? rng.next_range(1, 48)
                                   : rng.next_range(16, 2048);
    const FileLayout layout(static_cast<int>(rng.next_range(1, total)), strip,
                            static_cast<int>(rng.next_range(0, total - 1)),
                            total);
    const std::int64_t count = rng.next_range(1, 3);
    const std::int64_t stream = count * loop->size;
    std::int64_t offset = 0;
    std::int64_t length = stream;
    if (rng.next_below(2) == 0) {
      offset = rng.next_range(0, stream);
      length = rng.next_range(0, stream - offset);
    }
    // Anchor the instances so every byte they can touch is at or past 0.
    Region whole;
    ASSERT_TRUE(dl::window_span(*loop, 0, 0, stream, whole));
    const std::int64_t base = rng.next_range(0, 4000) - std::min<std::int64_t>(
                                                           whole.offset, 0);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << "\n" << loop->to_string()
                 << "base " << base << " count " << count << " window ["
                 << offset << ", +" << length << ") strip " << strip
                 << " servers " << layout.num_servers() << "/" << total
                 << " start " << layout.start_server());

    // Client: per-region oracle against runs mapped a strip at a time.
    std::vector<Piece> want;
    {
      dl::Cursor c(loop, base, count);
      c.seek(offset);
      StripMapper mapper(layout);
      std::int64_t regions = 0;
      c.process(std::numeric_limits<std::int64_t>::max(), length,
                [&](std::int64_t off, std::int64_t len) {
                  ++regions;
                  mapper.map(Region{off, len},
                             [&](int srv, Region phys, std::int64_t pos) {
                               want.push_back({srv, phys, pos});
                             });
                });
      dl::Cursor raw(loop, base, count);
      raw.seek(offset);
      const dl::ProcessResult uncoalesced =
          raw.process(std::numeric_limits<std::int64_t>::max(), length,
                      [](std::int64_t, std::int64_t) {}, false);
      if (regions < uncoalesced.regions) ++coalesced;
    }
    std::vector<Piece> got;
    std::int64_t got_pieces = 0;
    std::vector<RegionRun> runs;
    {
      dl::Cursor c(loop, base, count);
      c.seek(offset);
      c.set_stream_limit(offset + length);
      c.process_runs([&](const RegionRun& run) { runs.push_back(run); });
      StripMapper mapper(layout);
      for (const RegionRun& run : runs) {
        mapper.map_run(run, [&](int srv, const RegionRun& phys,
                                std::int64_t pos, std::int64_t n) {
          got_pieces += n;
          if (phys.count > 1) {
            ++strided_groups;
            ASSERT_EQ(n, phys.count);
          } else {
            ASSERT_EQ(n, 1);  // datatype runs are never back to back
          }
          for (std::int64_t k = 0; k < phys.count; ++k) {
            got.push_back({srv,
                           Region{phys.offset + k * phys.stride, phys.length},
                           pos + k * phys.length});
          }
        });
      }
    }
    ASSERT_EQ(got, want);
    ASSERT_EQ(got_pieces, static_cast<std::int64_t>(want.size()));

    // Server.
    const int me = static_cast<int>(rng.next_range(0, total - 1));
    Bstream store;
    const auto prefill = pattern_bytes(
        static_cast<std::size_t>(std::min<std::int64_t>(
            layout.max_server_bytes(whole.end() + base) + 64, 1 << 16)),
        static_cast<std::uint64_t>(trial));
    store.write(0, prefill);
    const DataBuffer data = std::make_shared<std::vector<std::uint8_t>>(
        pattern_bytes(static_cast<std::size_t>(length),
                      static_cast<std::uint64_t>(trial) + 1));
    for (const bool prune : {true, false}) {
      struct Counters {
        std::int64_t skipped, regions_pruned, bytes_pruned, position;
        bool operator==(const Counters&) const = default;
      };
      const auto walk = [&](bool by_run, bool is_write, bool carry, int mode,
                            Counters& counters) {
        return apply_with(
            layout, me, is_write, carry, mode == 1, mode == 2, store, data,
            [&](Applier& applier) {
              const PruneCtx ctx{&layout, me};
              dl::Cursor c(loop, base, count);
              c.seek(offset);
              c.set_stream_limit(offset + length);
              if (prune) {
                c.set_filter(prune_span, &ctx, by_run ? prune_run : nullptr);
              }
              if (by_run) {
                c.process_runs(
                    [&](const RegionRun& run) { applier.apply_run(run); });
              } else {
                c.process(std::numeric_limits<std::int64_t>::max(),
                          std::numeric_limits<std::int64_t>::max(),
                          [&](std::int64_t off, std::int64_t len) {
                            applier.apply_run(RegionRun{off, len});
                          });
              }
              counters = {c.subtrees_skipped(), c.regions_pruned(),
                          c.bytes_pruned(), c.position()};
            });
      };
      for (const bool is_write : {true, false}) {
        for (const bool carry : {true, false}) {
          for (const int mode : {0, 1, 2}) {  // direct, cached, recording
            SCOPED_TRACE(::testing::Message()
                         << "server " << me << " prune " << prune << " write "
                         << is_write << " carry " << carry << " mode "
                         << mode);
            Counters want_counters{};
            Counters got_counters{};
            const Applied want_applied =
                walk(false, is_write, carry, mode, want_counters);
            const Applied got_applied =
                walk(true, is_write, carry, mode, got_counters);
            expect_same(got_applied, want_applied);
            ASSERT_EQ(got_counters, want_counters);
            skipped += got_counters.skipped;
          }
        }
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(strided_groups, 5000);
  EXPECT_GT(skipped, 5000);
  EXPECT_GT(coalesced, 50);
}

// ---- Replay window ---------------------------------------------------------

Reply ack(std::int64_t bytes) {
  Reply r;
  r.bytes = bytes;
  return r;
}

TEST(ReplayRing, EvictsOldestFirstAcrossWraps) {
  // Limit 5 on a ring that grows to 8: the head wraps many times, and the
  // window is always exactly the newest five keys.
  ReplayWindow w(5);
  EXPECT_EQ(w.capacity(), 0u);  // nothing allocated before the first ack
  for (std::uint64_t k = 1; k <= 40; ++k) {
    w.insert(k, static_cast<SimTime>(k), ack(static_cast<std::int64_t>(k)));
    EXPECT_EQ(w.size(), std::min<std::uint64_t>(k, 5));
    for (std::uint64_t j = 1; j <= k; ++j) {
      const Reply* r = w.find(j);
      if (j + 5 > k) {
        ASSERT_NE(r, nullptr) << "key " << j << " after " << k;
        EXPECT_EQ(r->bytes, static_cast<std::int64_t>(j));
      } else {
        EXPECT_EQ(r, nullptr) << "key " << j << " after " << k;
      }
    }
  }
  EXPECT_EQ(w.capacity(), 8u);
}

TEST(ReplayRing, GrowsOnDemandUpToTheLimit) {
  ReplayWindow w(1024);
  w.insert(1, 0, ack(1));
  EXPECT_EQ(w.capacity(), 8u);
  for (std::uint64_t k = 2; k <= 9; ++k) w.insert(k, 0, ack(1));
  EXPECT_EQ(w.capacity(), 16u);
  for (std::uint64_t k = 10; k <= 5000; ++k) w.insert(k, 0, ack(1));
  EXPECT_EQ(w.capacity(), 1024u);
  EXPECT_EQ(w.size(), 1024u);
  EXPECT_EQ(w.find(3976), nullptr);
  EXPECT_NE(w.find(3977), nullptr);
}

TEST(ReplayRing, ExpiresStrictlyOlderThanMaxAge) {
  ReplayWindow w(16);
  for (std::uint64_t k = 0; k < 4; ++k) {
    w.insert(k + 1, static_cast<SimTime>(10 * k), ack(1));  // t = 0..30
  }
  EXPECT_EQ(w.expire(25, 10), 2u);  // t = 0 and 10 are older than 15
  EXPECT_EQ(w.find(1), nullptr);
  EXPECT_EQ(w.find(2), nullptr);
  EXPECT_NE(w.find(3), nullptr);    // t = 20: exactly 5 old
  EXPECT_EQ(w.expire(30, 10), 0u);  // t = 20 is exactly max_age old
  EXPECT_EQ(w.expire(31, 10), 1u);
  EXPECT_EQ(w.size(), 1u);
}

TEST(ReplayRing, DuplicateInsertKeepsTheFirstAck) {
  ReplayWindow w(4);
  w.insert(9, 0, ack(100));
  w.insert(9, 50, ack(200));
  EXPECT_EQ(w.size(), 1u);
  ASSERT_NE(w.find(9), nullptr);
  EXPECT_EQ(w.find(9)->bytes, 100);
  EXPECT_EQ(w.expire(20, 10), 1u);  // aged from the first insert, t = 0
}

TEST(ReplayRing, ZeroEntriesStoresNothing) {
  ReplayWindow w(0);
  w.insert(1, 0, ack(1));
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.find(1), nullptr);
  EXPECT_EQ(w.capacity(), 0u);
}

TEST(ReplayRing, ClearForgetsEveryAck) {
  ReplayWindow w(8);
  for (std::uint64_t k = 1; k <= 6; ++k) w.insert(k, 0, ack(1));
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  for (std::uint64_t k = 1; k <= 6; ++k) EXPECT_EQ(w.find(k), nullptr);
  w.insert(3, 0, ack(3));
  ASSERT_NE(w.find(3), nullptr);
  EXPECT_EQ(w.find(3)->bytes, 3);
}

TEST(ReplayRing, MatchesMapAndQueueModelUnderChurn) {
  // Keys from a few clients' dense sequences and random collisions, with
  // inserts, duplicate inserts, expiry and clears, against a plain
  // map-plus-FIFO model of the window.
  Rng rng(77);
  for (const std::size_t limit : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{300}}) {
    ReplayWindow w(limit);
    std::map<std::uint64_t, std::int64_t> model;
    std::deque<std::pair<std::uint64_t, SimTime>> order;
    SimTime now = 0;
    for (int op = 0; op < 20000; ++op) {
      now += static_cast<SimTime>(rng.next_below(3));
      const std::uint64_t r = rng.next_below(100);
      if (r < 80) {
        const std::uint64_t key =
            (rng.next_below(4) << 48) ^ rng.next_below(limit * 3 + 5);
        const auto bytes = static_cast<std::int64_t>(rng.next_below(1000));
        w.insert(key, now, ack(bytes));
        if (model.emplace(key, bytes).second) {
          order.emplace_back(key, now);
          if (order.size() > limit) {
            model.erase(order.front().first);
            order.pop_front();
          }
        }
      } else if (r < 98) {
        const SimTime age = static_cast<SimTime>(rng.next_below(200));
        std::size_t n = 0;
        while (!order.empty() && now - order.front().second > age) {
          model.erase(order.front().first);
          order.pop_front();
          ++n;
        }
        ASSERT_EQ(w.expire(now, age), n);
      } else {
        w.clear();
        model.clear();
        order.clear();
      }
      ASSERT_EQ(w.size(), model.size());
      for (int probe = 0; probe < 4; ++probe) {
        const std::uint64_t key =
            (rng.next_below(4) << 48) ^ rng.next_below(limit * 3 + 5);
        const Reply* got = w.find(key);
        const auto it = model.find(key);
        ASSERT_EQ(got != nullptr, it != model.end()) << "key " << key;
        if (got != nullptr) {
          ASSERT_EQ(got->bytes, it->second);
        }
      }
    }
  }
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

// One list write, then one list read, of 6 back-to-back 24-byte regions
// from offset 1000 (the first ends strip 0, the rest share strip 1),
// sent either as one run or as 6 single-region runs. A server touches its
// store once per physical region of a mapped group: the one run is one
// extent per strip (server 0's 24 bytes, server 1's 120), the six runs
// are six regions.
struct ListRunOutcome {
  /// Per server: regions_walked, my_pieces, bytes_written, bytes_read.
  std::vector<std::uint64_t> counters;
  std::vector<std::uint64_t> writes_gen;  ///< per server
  int servers = 0;
  std::vector<std::uint64_t> epochs;  ///< by server, primary, strip 0..1
  /// Server s's write epoch of primary p's strip.
  [[nodiscard]] std::uint64_t epoch(int s, int p, int strip) const {
    return epochs[static_cast<std::size_t>((s * servers + p) * 2 + strip)];
  }
  std::vector<std::uint8_t> back;
  bool read_ok = false;
};

ListRunOutcome run_list_runs(const net::ClusterConfig& cfg, bool one_run) {
  Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  constexpr RegionRun kRun{1000, 24, 6};
  auto runs = std::make_shared<std::vector<RegionRun>>();
  if (one_run) {
    runs->push_back(kRun);
  } else {
    for (std::int64_t i = 0; i < kRun.count; ++i) {
      runs->push_back(RegionRun{kRun.offset + i * kRun.length, kRun.length, 1});
    }
  }
  const auto data = pattern_bytes(24 * 6, 5);
  ListRunOutcome out;
  out.back.assign(data.size(), 0);
  std::uint64_t handle = 0;
  cluster.scheduler().spawn(
      [](Client& c, ListRuns r, const std::vector<std::uint8_t>& src,
         std::vector<std::uint8_t>& dst, std::uint64_t& h,
         bool& read_ok) -> Task<void> {
        MetaResult f = co_await c.create("/runs");
        EXPECT_TRUE(f.status.is_ok());
        h = f.handle;
        EXPECT_TRUE((co_await c.write_list(f.handle, r, src.data())).is_ok());
        read_ok = (co_await c.read_list(f.handle, r, dst.data())).is_ok();
      }(*client, runs, data, out.back, handle, out.read_ok));
  cluster.run();
  out.servers = cfg.num_servers;
  for (int s = 0; s < cfg.num_servers; ++s) {
    const ServerStats& st = cluster.server(s).stats();
    out.counters.insert(out.counters.end(),
                        {st.regions_walked, st.my_pieces, st.bytes_written,
                         st.bytes_read});
    out.writes_gen.push_back(cluster.server(s).media().writes_gen);
    for (int primary = 0; primary < cfg.num_servers; ++primary) {
      for (std::int64_t strip = 0; strip < 2; ++strip) {
        out.epochs.push_back(
            cluster.server(s).strip_epoch(handle, primary, strip));
      }
    }
  }
  EXPECT_TRUE(out.read_ok);
  EXPECT_EQ(out.back, data);
  return out;
}

TEST(EndToEnd, ListRunsTouchTheStoreOncePerStripExtent) {
  for (int mode = 0; mode < 4; ++mode) {
    SCOPED_TRACE(::testing::Message() << "mode " << mode);
    net::ClusterConfig cfg = small_config();
    switch (mode) {
      case 0:  // write-back cache
        cfg.server.cache_block_bytes = 16;
        cfg.server.cache_capacity_bytes = 16 * 64;
        break;
      case 1:  // write-through cache
        cfg.server.cache_block_bytes = 16;
        cfg.server.cache_capacity_bytes = 16 * 64;
        cfg.server.cache_write_through = true;
        break;
      case 2:  // replication: strip epochs per applied region
        cfg.replication = 2;
        cfg.client.rpc_timeout = 50 * kMillisecond;
        break;
      default:  // media checksums: each store write re-CRCs its pages
        cfg.server.block_checksums = true;
        break;
    }
    const ListRunOutcome by_run = run_list_runs(cfg, true);
    const ListRunOutcome by_region = run_list_runs(cfg, false);
    // The model charges and counts regions, not store accesses.
    EXPECT_EQ(by_run.counters, by_region.counters);
    EXPECT_EQ(by_run.back, by_region.back);
    EXPECT_EQ(by_run.read_ok, by_region.read_ok);
    if (mode == 2) {
      // Primary p's strips are written on p and on its replica p + 1, with
      // the same request shape, so both hold the same epochs; the written
      // strips (strip 0 of servers 0 and 1) are past epoch 0.
      for (const ListRunOutcome* o : {&by_run, &by_region}) {
        for (int p = 0; p < cfg.num_servers; ++p) {
          const int replica = (p + 1) % cfg.num_servers;
          for (int strip = 0; strip < 2; ++strip) {
            EXPECT_EQ(o->epoch(p, p, strip), o->epoch(replica, p, strip))
                << "primary " << p << " strip " << strip;
          }
          if (p < 2) {
            EXPECT_GT(o->epoch(p, p, 0), 0u) << "primary " << p;
          }
        }
      }
    }
    if (mode == 3) {
      // One data-carrying bstream write per strip group for the one run,
      // one per region for the six.
      EXPECT_EQ(by_run.writes_gen, (std::vector<std::uint64_t>{1, 1, 0, 0}));
      EXPECT_EQ(by_region.writes_gen,
                (std::vector<std::uint64_t>{1, 5, 0, 0}));
    }
  }
}

TEST(EndToEnd, WriteBehindCountsStagedPiecesNotExtents) {
  // Staging an extent of k back-to-back pieces counts the k - 1 runs that
  // staging them one by one would merge away, so the write-behind
  // counters do not depend on how the list was encoded.
  auto run = [](bool one_run) {
    net::ClusterConfig cfg = small_config();
    cfg.client.write_behind_bytes = 1 << 20;
    Cluster cluster(cfg);
    auto client = cluster.make_client(0);
    auto runs = std::make_shared<std::vector<RegionRun>>();
    for (const RegionRun& r : {RegionRun{1000, 24, 6}, RegionRun{200, 8, 3}}) {
      if (one_run) {
        runs->push_back(r);
        continue;
      }
      for (std::int64_t i = 0; i < r.count; ++i) {
        runs->push_back(RegionRun{r.offset + i * r.length, r.length, 1});
      }
    }
    const auto data = pattern_bytes(24 * 6 + 8 * 3, 9);
    cluster.scheduler().spawn(
        [](Client& c, ListRuns r,
           const std::vector<std::uint8_t>& src) -> Task<void> {
          MetaResult f = co_await c.create("/wb_runs");
          EXPECT_TRUE((co_await c.write_list(f.handle, r, src.data())).is_ok());
          EXPECT_TRUE((co_await c.write_list(f.handle, r, src.data())).is_ok());
          EXPECT_TRUE((co_await c.flush_write_behind()).is_ok());
        }(*client, runs, data));
    cluster.run();
    return std::vector<std::uint64_t>{
        client->wb_coalesced_ops(), client->wb_staged_ops(),
        client->wb_staged_bytes(), client->wb_batches(),
        static_cast<std::uint64_t>(cluster.scheduler().now())};
  };
  const std::vector<std::uint64_t> by_run = run(true);
  EXPECT_EQ(by_run, run(false));
  // First write: 6 pieces merge into their predecessors (of the 6 at
  // 1000, one ends server 0's strip and five share server 1's: 4; the 3
  // at 200: 2). Second write: the same 6 plus the 3 staged runs it lands
  // on.
  EXPECT_EQ(by_run[0], 6u + 9u);
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


TEST(EndToEnd, DataloopTableWithTheKnobOffChargesEveryDecode) {
  // The same A B A C A pattern with the knob off: the host reuses its
  // decoded loops, but every request is charged a decode, so the counts
  // and the end time are what decoding every request gives.
  net::ClusterConfig cfg = small_config(1, 1);
  cfg.server.dataloop_cache_entries = 2;
  Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  auto type_a = dl::make_vector(4, 8, 32, dl::make_leaf(1));
  auto type_b = dl::make_vector(2, 16, 64, dl::make_leaf(1));
  auto type_c = dl::make_vector(8, 4, 16, dl::make_leaf(1));
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, dl::DataloopPtr a, dl::DataloopPtr b, dl::DataloopPtr cc,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/lru_off");
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
  const ServerStats& stats = cluster.server(0).stats();
  EXPECT_EQ(stats.dataloops_decoded, 5u);
  EXPECT_EQ(stats.dataloop_cache_hits, 0u);
  EXPECT_EQ(stats.dataloop_cache_misses, 0u);
  // The end time of the code that decoded every request on the host.
  EXPECT_EQ(cluster.scheduler().now(), 8262894);
}

TEST(EndToEnd, DataloopTableKeysByTheEncodedBytes) {
  // Pairs of same-length descriptors read alternately; each read must map
  // its own type, whatever the knob. The first pair differs in a single
  // byte. The second differs by the CRC-32 generator polynomial (reflected,
  // 33 bits) XORed into one offset, so both share one CRC32: only the byte
  // comparison tells them apart.
  constexpr std::int64_t kHigh = std::int64_t{3} << 32;
  constexpr std::int64_t kCrcPoly = 0x1DB710641;
  const std::vector<std::pair<std::vector<std::int64_t>,
                              std::vector<std::int64_t>>>
      pairs{{{0, 40, 96, 120}, {0, 40, 104, 120}},
            {{0, 100, kHigh}, {0, 100 ^ kCrcPoly, kHigh}}};
  for (std::size_t pair = 0; pair < pairs.size(); ++pair) {
    const auto& [offs_a, offs_b] = pairs[pair];
    const auto type_a = dl::make_blockindexed(
        static_cast<std::int64_t>(offs_a.size()), 8, offs_a,
        dl::make_leaf(1));
    const auto type_b = dl::make_blockindexed(
        static_cast<std::int64_t>(offs_b.size()), 8, offs_b,
        dl::make_leaf(1));
    std::vector<std::uint8_t> enc_a;
    std::vector<std::uint8_t> enc_b;
    dl::encode(*type_a, enc_a);
    dl::encode(*type_b, enc_b);
    ASSERT_EQ(enc_a.size(), enc_b.size());
    ASSERT_NE(enc_a, enc_b);
    if (pair == 0) {
      std::size_t differing = 0;
      for (std::size_t i = 0; i < enc_a.size(); ++i) {
        differing += enc_a[i] != enc_b[i] ? 1 : 0;
      }
      ASSERT_EQ(differing, 1u);
    } else {
      ASSERT_EQ(crc32(enc_a), crc32(enc_b));
    }
    // List reads of the same blocks are the oracle.
    auto runs_of_offsets = [](const std::vector<std::int64_t>& offs) {
      auto runs = std::make_shared<std::vector<RegionRun>>();
      for (const std::int64_t off : offs) runs->push_back(RegionRun{off, 8, 1});
      return ListRuns(std::move(runs));
    };
    for (const bool cache : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "pair " << pair << " dataloop_cache " << cache);
      net::ClusterConfig cfg = small_config(1, 1);
      cfg.server.dataloop_cache = cache;
      Cluster cluster(cfg);
      auto client = cluster.make_client(0);
      std::vector<std::vector<std::uint8_t>> got;
      std::vector<std::vector<std::uint8_t>> want;
      cluster.scheduler().spawn(
          [](Client& c, std::vector<dl::DataloopPtr> types,
             std::vector<ListRuns> oracle,
             std::vector<std::vector<std::uint8_t>>& out,
             std::vector<std::vector<std::uint8_t>>& expect) -> Task<void> {
            MetaResult f = co_await c.create("/same_length");
            const auto src = pattern_bytes(256, 31);
            EXPECT_TRUE((co_await c.write_contig(f.handle, 0, src.data(), 256))
                            .is_ok());
            for (int i = 0; i < 6; ++i) {
              const dl::DataloopPtr& t = types[static_cast<std::size_t>(i % 2)];
              std::vector<std::uint8_t> buf(static_cast<std::size_t>(t->size));
              EXPECT_TRUE((co_await c.read_datatype(f.handle, t, 0, 1, 0,
                                                    t->size, buf.data()))
                              .is_ok());
              out.push_back(std::move(buf));
            }
            for (const ListRuns& r : oracle) {
              std::vector<std::uint8_t> buf(8 * r->size());
              EXPECT_TRUE(
                  (co_await c.read_list(f.handle, r, buf.data())).is_ok());
              expect.push_back(std::move(buf));
            }
          }(*client, {type_a, type_b},
            {runs_of_offsets(offs_a), runs_of_offsets(offs_b)}, got, want));
      cluster.run();
      ASSERT_EQ(got.size(), 6u);
      ASSERT_EQ(want.size(), 2u);
      EXPECT_NE(want[0], want[1]);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i % 2]) << "read " << i;
      }
      const ServerStats& stats = cluster.server(0).stats();
      EXPECT_EQ(stats.dataloops_decoded, cache ? 2u : 6u);
      EXPECT_EQ(stats.dataloop_cache_hits, cache ? 4u : 0u);
    }
  }
}

TEST(EndToEnd, DataloopTableIsColdAfterACrash) {
  // With the knob on, a type decoded before a crash is a miss after the
  // restart: decoded loops are process state.
  net::ClusterConfig cfg = small_config(1, 1);
  cfg.server.dataloop_cache = true;
  Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  cluster.schedule_server_crash(0, kSecond, kMillisecond);
  auto type = dl::make_vector(4, 8, 32, dl::make_leaf(1));
  bool finished = false;
  cluster.scheduler().spawn(
      [](Client& c, sim::Scheduler& sched, dl::DataloopPtr t,
         bool& done) -> Task<void> {
        MetaResult f = co_await c.create("/crash");
        EXPECT_TRUE(f.status.is_ok());
        std::vector<std::uint8_t> buf(static_cast<std::size_t>(t->size));
        EXPECT_TRUE(
            (co_await c.read_datatype(f.handle, t, 0, 1, 0, t->size, buf.data()))
                .is_ok());
        EXPECT_LT(sched.now(), kSecond);
        co_await sched.delay(2 * kSecond - sched.now());  // past the restart
        for (int i = 0; i < 2; ++i) {
          EXPECT_TRUE((co_await c.read_datatype(f.handle, t, 0, 1, 0, t->size,
                                                buf.data()))
                          .is_ok());
        }
        done = true;
      }(*client, cluster.scheduler(), type, finished));
  cluster.run();
  EXPECT_TRUE(finished);
  const ServerStats& stats = cluster.server(0).stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.dataloops_decoded, 2u);
  EXPECT_EQ(stats.dataloop_cache_misses, 2u);
  EXPECT_EQ(stats.dataloop_cache_hits, 1u);
}

TEST(EndToEnd, CorruptedDescriptorNeverEntersTheDataloopTable) {
  // The first datatype request has a byte of its descriptor flipped in
  // flight, so its loop_crc no longer matches: the server refuses it
  // before decoding, and the clean retry is the first decode, a miss.
  net::ClusterConfig cfg = small_config(1, 1);
  cfg.server.dataloop_cache = true;
  Cluster cluster(cfg);
  net::FaultPlan plan(7);
  plan.set_default_spec({.corrupt = 1.0});
  cluster.set_fault_plan(&plan);
  bool corrupted = false;
  plan.set_corruptor([&corrupted](sim::Message& msg, Rng&) {
    auto* request = std::any_cast<Request>(&msg.body);
    if (corrupted || request == nullptr) return false;
    auto* p = std::get_if<DatatypePayload>(&request->payload);
    if (p == nullptr) return false;
    auto bytes = std::make_shared<std::vector<std::uint8_t>>(*p->encoded_loop);
    bytes->back() ^= 0x01;
    p->encoded_loop = std::move(bytes);
    corrupted = true;
    return true;
  });
  auto client = cluster.make_client(0);
  const auto file = pattern_bytes(128, 41);
  auto type = dl::make_vector(4, 8, 32, dl::make_leaf(1));
  std::vector<std::vector<std::uint8_t>> got;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src, dl::DataloopPtr t,
         std::vector<std::vector<std::uint8_t>>& out) -> Task<void> {
        MetaResult f = co_await c.create("/bad_loop");
        EXPECT_TRUE((co_await c.write_contig(
                         f.handle, 0, src.data(),
                         static_cast<std::int64_t>(src.size())))
                        .is_ok());
        for (int i = 0; i < 2; ++i) {
          std::vector<std::uint8_t> buf(static_cast<std::size_t>(t->size));
          EXPECT_TRUE((co_await c.read_datatype(f.handle, t, 0, 1, 0, t->size,
                                                buf.data()))
                          .is_ok());
          out.push_back(std::move(buf));
        }
      }(*client, file, type, got));
  cluster.run();
  EXPECT_TRUE(corrupted);
  std::vector<std::uint8_t> want(32);
  for (int k = 0; k < 4; ++k) {
    std::copy_n(file.begin() + k * 32, 8, want.begin() + k * 8);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], want);
  EXPECT_EQ(got[1], want);
  const ServerStats& stats = cluster.server(0).stats();
  EXPECT_EQ(stats.crc_rejects, 1u);
  EXPECT_EQ(stats.dataloops_decoded, 1u);
  EXPECT_EQ(stats.dataloop_cache_misses, 1u);
  EXPECT_EQ(stats.dataloop_cache_hits, 1u);
}

TEST(EndToEnd, ShortReadReplyDataIsRefused) {
  // A hostile read reply cuts its data short and restamps payload_crc, so
  // the CRC check passes: the client must refuse it on the byte count
  // instead of scattering past the end of the data. The corruptor is set
  // before set_fault_plan, which must keep it.
  Cluster cluster(small_config(1, 1));
  net::FaultPlan plan(7);
  plan.set_default_spec({.corrupt = 1.0});
  bool cut = false;
  plan.set_corruptor([&cut](sim::Message& msg, Rng&) {
    auto* reply = std::any_cast<Reply>(&msg.body);
    if (cut || reply == nullptr || !reply->data || reply->data->empty()) {
      return false;
    }
    auto shorter = std::make_shared<std::vector<std::uint8_t>>(
        reply->data->begin(), reply->data->begin() + 1);
    reply->payload_crc = crc32(*shorter);
    reply->data = std::move(shorter);
    cut = true;
    return true;
  });
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto file = pattern_bytes(4096, 23);
  Status read_status;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src,
         Status& out) -> Task<void> {
        MetaResult f = co_await c.create("/short");
        EXPECT_TRUE((co_await c.write_contig(
                         f.handle, 0, src.data(),
                         static_cast<std::int64_t>(src.size())))
                        .is_ok());
        std::vector<std::uint8_t> buf(src.size());
        out = co_await c.read_contig(f.handle, 0, buf.data(),
                                     static_cast<std::int64_t>(buf.size()));
      }(*client, file, read_status));
  cluster.run();
  EXPECT_TRUE(cut);
  EXPECT_EQ(read_status.code(), StatusCode::kInternal)
      << read_status.to_string();
}

/// A fault plan whose corruptor rewrites, once, the first reply that
/// `rewrite` accepts while `*armed` is true; nothing else is corrupted.
template <typename Rewrite>
void rewrite_one_reply(net::FaultPlan& plan, const bool* armed,
                       bool* rewritten, Rewrite rewrite) {
  plan.set_default_spec({.corrupt = 1.0});
  plan.set_corruptor([=](sim::Message& msg, Rng&) {
    auto* reply = std::any_cast<Reply>(&msg.body);
    if (!*armed || *rewritten || reply == nullptr || !rewrite(*reply)) {
      return false;
    }
    *rewritten = true;
    return true;
  });
}

TEST(EndToEnd, ZeroStripOpenReplyIsRefused) {
  // An open reply echoing a layout with a 0-byte strip. Cached as given,
  // it made the reader's stat divide by zero once another client had
  // written the file; the reply check refuses it instead.
  Cluster cluster(small_config(4, 2));
  net::FaultPlan plan(7);
  bool armed = false;
  bool rewritten = false;
  rewrite_one_reply(plan, &armed, &rewritten, [](Reply& reply) {
    reply.layout_servers = 2;
    reply.layout_strip = 0;
    return true;
  });
  cluster.set_fault_plan(&plan);
  auto writer = cluster.make_client(0);
  auto reader = cluster.make_client(1);
  const auto file = pattern_bytes(4096, 29);
  MetaResult first;
  MetaResult second;
  cluster.scheduler().spawn(
      [](Client& w, Client& r, const std::vector<std::uint8_t>& src,
         bool& arm, MetaResult& a, MetaResult& b) -> Task<void> {
        const MetaResult f = co_await w.create("/zero_strip");
        EXPECT_TRUE((co_await w.write_contig(
                         f.handle, 0, src.data(),
                         static_cast<std::int64_t>(src.size())))
                        .is_ok());
        arm = true;  // the next reply is the reader's open
        a = co_await r.stat("/zero_strip");
        b = co_await r.stat("/zero_strip");
      }(*writer, *reader, file, armed, first, second));
  cluster.run();
  EXPECT_TRUE(rewritten);
  EXPECT_EQ(first.status.code(), StatusCode::kInternal)
      << first.status.to_string();
  EXPECT_EQ(reader->bad_replies(), 1u);
  EXPECT_TRUE(second.status.is_ok()) << second.status.to_string();
  EXPECT_EQ(second.size, 4096);
}

TEST(EndToEnd, OverflowingStatSizeIsRefused) {
  // A stat reply whose local size overflows the logical size it maps to:
  // stat used to return OK, with the overflowed size silently dropped.
  Cluster cluster(small_config(4, 1));
  net::FaultPlan plan(7);
  bool armed = false;
  bool rewritten = false;
  rewrite_one_reply(plan, &armed, &rewritten, [](Reply& reply) {
    if (reply.local_size <= 0) return false;
    reply.local_size = std::numeric_limits<std::int64_t>::max();
    return true;
  });
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto file = pattern_bytes(4096, 31);
  MetaResult first;
  MetaResult second;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src, bool& arm,
         MetaResult& a, MetaResult& b) -> Task<void> {
        const MetaResult f = co_await c.create("/huge_stat");
        EXPECT_TRUE((co_await c.write_contig(
                         f.handle, 0, src.data(),
                         static_cast<std::int64_t>(src.size())))
                        .is_ok());
        arm = true;
        a = co_await c.stat_handle(f.handle);
        b = co_await c.stat_handle(f.handle);
      }(*client, file, armed, first, second));
  cluster.run();
  EXPECT_TRUE(rewritten);
  EXPECT_EQ(first.status.code(), StatusCode::kInternal)
      << first.status.to_string() << ", size " << first.size;
  EXPECT_EQ(client->bad_replies(), 1u);
  EXPECT_TRUE(second.status.is_ok()) << second.status.to_string();
  EXPECT_EQ(second.size, 4096);
}

TEST(EndToEnd, OverflowingRetryAfterIsRefused) {
  // A shed reply asking for a wait that overflows the clock: the retry's
  // now + retry_after overflowed in the scheduler's delay.
  Cluster cluster(small_config(4, 1));
  net::FaultPlan plan(7);
  bool armed = false;
  bool rewritten = false;
  rewrite_one_reply(plan, &armed, &rewritten, [](Reply& reply) {
    reply = Reply{};
    reply.ok = false;
    reply.code = StatusCode::kOverloaded;
    reply.error = "shed";
    reply.retry_after = std::numeric_limits<std::int64_t>::max();
    return true;
  });
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto file = pattern_bytes(4096, 37);
  Status read_status;
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src, bool& arm,
         Status& out) -> Task<void> {
        const MetaResult f = co_await c.create("/huge_wait");
        EXPECT_TRUE((co_await c.write_contig(
                         f.handle, 0, src.data(),
                         static_cast<std::int64_t>(src.size())))
                        .is_ok());
        arm = true;
        std::vector<std::uint8_t> buf(src.size());
        out = co_await c.read_contig(f.handle, 0, buf.data(),
                                     static_cast<std::int64_t>(buf.size()));
      }(*client, file, armed, read_status));
  cluster.run();
  EXPECT_TRUE(rewritten);
  EXPECT_EQ(read_status.code(), StatusCode::kInternal)
      << read_status.to_string();
  EXPECT_EQ(client->bad_replies(), 1u);
}

TEST(EndToEnd, SetFaultPlanKeepsAnEarlierCorruptor) {
  // A corruptor that never corrupts, set before set_fault_plan: it is the
  // one asked about every message, so nothing is corrupted and the data
  // round-trips under corrupt = 1.0.
  Cluster cluster(small_config(2, 1));
  net::FaultPlan plan(7);
  plan.set_default_spec({.corrupt = 1.0});
  int asked = 0;
  plan.set_corruptor([&asked](sim::Message&, Rng&) {
    ++asked;
    return false;
  });
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);
  const auto file = pattern_bytes(8192, 31);
  std::vector<std::uint8_t> back(file.size());
  cluster.scheduler().spawn(
      [](Client& c, const std::vector<std::uint8_t>& src,
         std::vector<std::uint8_t>& out) -> Task<void> {
        MetaResult f = co_await c.create("/kept");
        EXPECT_TRUE((co_await c.write_contig(
                         f.handle, 0, src.data(),
                         static_cast<std::int64_t>(src.size())))
                        .is_ok());
        EXPECT_TRUE((co_await c.read_contig(
                         f.handle, 0, out.data(),
                         static_cast<std::int64_t>(out.size())))
                        .is_ok());
      }(*client, file, back));
  cluster.run();
  EXPECT_GT(asked, 0);
  EXPECT_EQ(plan.counters().corrupted, 0u);
  EXPECT_EQ(back, file);
}

TEST(EndToEnd, TimingOnlyOpsCostWhatDataCarryingOpsCost) {
  // A timing-only op builds no client extents unless write-behind needs
  // them; it must still send, count and take exactly what a data-carrying
  // op does, with write-behind on (staging, read-overlap flushes) and off.
  auto filetype = dl::make_vector(24, 40, 100, dl::make_leaf(1));
  auto runs = std::make_shared<const std::vector<RegionRun>>(
      std::vector<RegionRun>{RegionRun{5000, 300, 7}, RegionRun{3000, 64, 1}});
  const auto dt_data = pattern_bytes(static_cast<std::size_t>(filetype->size), 51);
  const auto list_data = pattern_bytes(300 * 7 + 64, 52);
  for (const bool write_behind : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "write_behind " << write_behind);
    auto run = [&](bool transfer) {
      net::ClusterConfig cfg = small_config(4, 1);
      if (write_behind) cfg.client.write_behind_bytes = 1 << 20;
      Cluster cluster(cfg);
      auto client = cluster.make_client(0);
      client->set_transfer_data(transfer);
      std::vector<std::vector<std::uint8_t>> back;
      cluster.scheduler().spawn(
          [](Client& c, dl::DataloopPtr t, ListRuns r,
             const std::vector<std::uint8_t>& dt_src,
             const std::vector<std::uint8_t>& list_src,
             std::vector<std::vector<std::uint8_t>>& out) -> Task<void> {
            MetaResult f = co_await c.create("/timing_only");
            EXPECT_TRUE((co_await c.write_datatype(f.handle, t, 0, 1, 0,
                                                   t->size, dt_src.data()))
                            .is_ok());
            EXPECT_TRUE(
                (co_await c.write_list(f.handle, r, list_src.data())).is_ok());
            // Reads overlap the writes, so staged bytes drain first.
            std::vector<std::uint8_t> dt_back(dt_src.size());
            EXPECT_TRUE((co_await c.read_datatype(f.handle, t, 0, 1, 0,
                                                  t->size, dt_back.data()))
                            .is_ok());
            std::vector<std::uint8_t> list_back(list_src.size());
            EXPECT_TRUE(
                (co_await c.read_list(f.handle, r, list_back.data())).is_ok());
            EXPECT_TRUE((co_await c.flush_write_behind()).is_ok());
            out.push_back(std::move(dt_back));
            out.push_back(std::move(list_back));
          }(*client, filetype, runs, dt_data, list_data, back));
      cluster.run();
      if (transfer) {
        EXPECT_EQ(back.at(0), dt_data);
        EXPECT_EQ(back.at(1), list_data);
      }
      const IoStats& st = client->stats();
      return std::vector<std::uint64_t>{
          st.requests_sent, st.request_bytes, st.regions_client,
          st.accessed_bytes, client->wb_batches(),
          static_cast<std::uint64_t>(cluster.scheduler().now())};
    };
    const std::vector<std::uint64_t> carrying = run(true);
    EXPECT_EQ(carrying, run(false));
    EXPECT_EQ(carrying[4] > 0, write_behind);
  }
}

}  // namespace
}  // namespace dtio::pfs
