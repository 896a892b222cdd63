// Micro-benchmarks of the real (wall-clock) dataloop engine: processing
// throughput of the cursor, flattening, pack/unpack, serialisation, and
// seek — the §3.2 claims that dataloop processing is fast and that the
// concise representation beats offset-length lists on the wire.
//
// These measure actual computation (google-benchmark), unlike the
// figure/table benches which measure simulated time.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/region.h"
#include "common/rng.h"
#include "dataloop/cursor.h"
#include "dataloop/dataloop.h"
#include "dataloop/pack.h"
#include "dataloop/serialize.h"
#include "pfs/layout.h"
#include "types/datatype.h"
#include "workloads/flash.h"

namespace dtio {
namespace {

constexpr std::int64_t kUnlimited = std::numeric_limits<std::int64_t>::max();

// Vector pattern with a parameterised region count.
dl::DataloopPtr make_vector_pattern(std::int64_t regions) {
  return dl::make_vector(regions, 8, 64, dl::make_leaf(1));
}

void BM_CursorProcessVector(benchmark::State& state) {
  const std::int64_t regions = state.range(0);
  auto loop = make_vector_pattern(regions);
  std::int64_t sink = 0;
  for (auto _ : state) {
    dl::Cursor cursor(loop, 0, 1);
    cursor.process(kUnlimited, kUnlimited,
                   [&](std::int64_t off, std::int64_t len) {
                     sink += off + len;
                   });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * regions);
}
BENCHMARK(BM_CursorProcessVector)->Range(16, 1 << 20);

void BM_CursorProcessIrregularIndexed(benchmark::State& state) {
  const std::int64_t count = state.range(0);
  Rng rng(42);
  std::vector<std::int64_t> lens, offs;
  std::int64_t at = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t bl = rng.next_range(1, 3);
    lens.push_back(bl);
    offs.push_back(at);
    at += bl * 4 + rng.next_range(4, 64);
  }
  auto loop = dl::make_indexed(lens, offs, dl::make_leaf(4));
  std::int64_t sink = 0;
  for (auto _ : state) {
    dl::Cursor cursor(loop, 0, 1);
    cursor.process(kUnlimited, kUnlimited,
                   [&](std::int64_t off, std::int64_t len) {
                     sink += off + len;
                   });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_CursorProcessIrregularIndexed)->Range(16, 1 << 18);

void BM_FlattenFlashMemtype(benchmark::State& state) {
  // The paper's stress case: 983 040 8-byte regions.
  workloads::FlashConfig cfg;
  auto memtype = cfg.memtype();
  const auto& loop = memtype.dataloop();
  std::int64_t produced = 0;
  for (auto _ : state) {
    dl::Cursor cursor(loop, 0, 1);
    auto r = cursor.process(kUnlimited, kUnlimited,
                            [](std::int64_t, std::int64_t) {});
    produced += r.regions;
  }
  benchmark::DoNotOptimize(produced);
  state.SetItemsProcessed(state.iterations() * cfg.joint_pieces());
}
BENCHMARK(BM_FlattenFlashMemtype);

void BM_PackVector(benchmark::State& state) {
  const std::int64_t regions = state.range(0);
  auto loop = make_vector_pattern(regions);
  std::vector<std::uint8_t> src(static_cast<std::size_t>(loop->extent));
  std::vector<std::uint8_t> out(static_cast<std::size_t>(loop->size));
  for (auto _ : state) {
    dl::Cursor cursor(loop, 0, 1);
    benchmark::DoNotOptimize(dl::pack(src.data(), cursor, out));
  }
  state.SetBytesProcessed(state.iterations() * loop->size);
}
BENCHMARK(BM_PackVector)->Range(16, 1 << 18);

void BM_SeekVsSkip(benchmark::State& state) {
  // seek() is O(depth log blocks); skipping by processing is O(regions).
  auto inner = dl::make_vector(64, 1, 24, dl::make_leaf(8));
  auto outer = dl::make_vector(1024, 2, 4096, inner);
  const std::int64_t target = outer->size / 2;
  for (auto _ : state) {
    dl::Cursor cursor(outer, 0, 4);
    cursor.seek(target);
    benchmark::DoNotOptimize(cursor.position());
  }
}
BENCHMARK(BM_SeekVsSkip);

void BM_SkipByProcessing(benchmark::State& state) {
  auto inner = dl::make_vector(64, 1, 24, dl::make_leaf(8));
  auto outer = dl::make_vector(1024, 2, 4096, inner);
  const std::int64_t target = outer->size / 2;
  for (auto _ : state) {
    dl::Cursor cursor(outer, 0, 4);
    cursor.process(kUnlimited, target, [](std::int64_t, std::int64_t) {});
    benchmark::DoNotOptimize(cursor.position());
  }
}
BENCHMARK(BM_SkipByProcessing);

void BM_CursorSeek(benchmark::State& state) {
  // Raw seek() cost over a deep nested pattern, cycling through positions
  // so each iteration rebuilds the frame stack (no warm-path shortcut).
  auto level1 = dl::make_vector(32, 2, 256, dl::make_leaf(8));
  auto level2 = dl::make_vector(64, 1, level1->extent + 128, level1);
  auto level3 = dl::make_vector(128, 1, level2->extent + 512, level2);
  const std::int64_t total = 4 * level3->size;
  std::int64_t target = 0;
  dl::Cursor cursor(level3, 0, 4);
  for (auto _ : state) {
    cursor.seek(target);
    benchmark::DoNotOptimize(cursor.position());
    target = (target + total / 7 + 13) % total;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CursorSeek);

// Pruned vs full expansion of the tile-reader row pattern (768 rows of
// 3072 bytes, stride 7596) striped over 16 servers / 64 KiB strips, from
// server 0's point of view. Full expansion walks every row; pruned
// expansion probes the stripe map and only emits the rows that land on
// this server, skipping each run of other servers' rows after a few
// probes of the span covering it. Counters report pieces walked, subtrees
// skipped and filter probes per iteration.
void BM_ExpandFull(benchmark::State& state) {
  auto loop = dl::make_vector(768, 3072, 7596, dl::make_leaf(1));
  std::int64_t pieces = 0;
  for (auto _ : state) {
    dl::Cursor cursor(loop, 0, 16);
    auto r = cursor.process(kUnlimited, kUnlimited,
                            [](std::int64_t, std::int64_t) {});
    pieces = r.regions;
    benchmark::DoNotOptimize(pieces);
  }
  state.counters["pieces_walked"] = static_cast<double>(pieces);
  state.SetItemsProcessed(state.iterations() * pieces);
}
BENCHMARK(BM_ExpandFull);

void BM_ExpandPruned(benchmark::State& state) {
  auto loop = dl::make_vector(768, 3072, 7596, dl::make_leaf(1));
  const pfs::FileLayout layout(16, 64 * 1024);
  struct Ctx {
    const pfs::FileLayout* layout;
    int server;
    mutable std::int64_t probes;
  } ctx{&layout, 0, 0};
  std::int64_t pieces = 0;
  std::int64_t skipped = 0;
  for (auto _ : state) {
    dl::Cursor cursor(loop, 0, 16);
    ctx.probes = 0;
    cursor.set_filter(
        [](const void* c, std::int64_t lo, std::int64_t hi) {
          const auto* x = static_cast<const Ctx*>(c);
          ++x->probes;
          return x->layout->intersects_server(Region{lo, hi - lo}, x->server);
        },
        &ctx);
    auto r = cursor.process(kUnlimited, kUnlimited,
                            [](std::int64_t, std::int64_t) {});
    pieces = r.regions;
    skipped = cursor.subtrees_skipped();
    benchmark::DoNotOptimize(pieces);
  }
  state.counters["pieces_walked"] = static_cast<double>(pieces);
  state.counters["subtrees_skipped"] = static_cast<double>(skipped);
  state.counters["filter_probes"] = static_cast<double>(ctx.probes);
  state.SetItemsProcessed(state.iterations() * (pieces + skipped));
}
BENCHMARK(BM_ExpandPruned);

void BM_EncodeDecodeDataloop(benchmark::State& state) {
  workloads::FlashConfig cfg;
  const auto& loop = cfg.filetype(64).dataloop();
  for (auto _ : state) {
    std::vector<std::uint8_t> wire;
    dl::encode(*loop, wire);
    auto back = dl::decode(wire);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_EncodeDecodeDataloop);

void BM_WireSizeDataloopVsList(benchmark::State& state) {
  // The paper's §4.2 comparison: the tile access as a dataloop vs as an
  // offset-length list (768 x 16 bytes). Reported as custom counters.
  const std::int64_t rows = state.range(0);
  auto loop = dl::make_vector(rows, 3072, 7596, dl::make_leaf(1));
  std::vector<std::uint8_t> wire;
  for (auto _ : state) {
    wire.clear();
    dl::encode(*loop, wire);
    benchmark::DoNotOptimize(wire.data());
  }
  state.counters["dataloop_bytes"] =
      static_cast<double>(dl::encoded_size(*loop));
  state.counters["list_bytes"] = static_cast<double>(rows * 16);
}
BENCHMARK(BM_WireSizeDataloopVsList)->Arg(768);

void BM_TypeToDataloopConversion(benchmark::State& state) {
  // MPI type -> dataloop via envelope/contents, per I/O op (§3.2).
  workloads::FlashConfig cfg;
  for (auto _ : state) {
    auto memtype = cfg.memtype();  // fresh nodes: no cached loop
    benchmark::DoNotOptimize(memtype.dataloop());
  }
}
BENCHMARK(BM_TypeToDataloopConversion);

}  // namespace
}  // namespace dtio

// Custom main instead of BENCHMARK_MAIN(): default to writing the JSON
// results to BENCH_dataloop_micro.json (pass --benchmark_out=... to
// override), matching the machine-readable reports of the figure benches.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_dataloop_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int nargs = static_cast<int>(args.size());
  benchmark::Initialize(&nargs, args.data());
  if (benchmark::ReportUnrecognizedArguments(nargs, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
