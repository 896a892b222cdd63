// List I/O: flatten both datatypes into joint (memory, file) pieces and
// ship them in bounded batches (default 64 regions per file-system
// request, paper §2.4). The batches keep request sizes bounded but leave a
// linear relationship between pieces and requests — the deficiency
// datatype I/O removes.
#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "io/joint.h"
#include "io/methods.h"

namespace dtio::io {

namespace {

sim::Task<Status> list_rw(Context& ctx, bool is_write, std::uint64_t handle,
                          const FileView& view, std::int64_t offset,
                          const void* wbuf, void* rbuf, std::int64_t count,
                          const types::Datatype& memtype) {
  const std::int64_t total = count * memtype.size();
  ctx.client.stats().desired_bytes += static_cast<std::uint64_t>(total);
  const StreamWindow window = make_window(view, offset, total);
  // A batch holds at least one piece, whatever the region limit says.
  const auto cap = static_cast<std::int64_t>(std::clamp<std::uint64_t>(
      ctx.config.list_io_max_regions, 1,
      std::numeric_limits<std::int64_t>::max()));
  const bool transfer = ctx.client.transfer_data();
  const obs::SpanId span = detail::begin_method_span(
      ctx, is_write ? "list_write" : "list_read", total);
  std::int64_t batches = 0;

  JointWalker walker(make_mem_cursor(memtype, count),
                     make_file_cursor(view, window));

  // The file runs ride in the requests, which share them across servers
  // and retry attempts; a batch reuses the list once no request holds it.
  auto file_runs = std::make_shared<std::vector<RegionRun>>();
  std::vector<JointWalker::MemRun> mem_runs;
  std::vector<std::uint8_t> stage;

  while (true) {
    if (file_runs.use_count() > 1) {
      file_runs = std::make_shared<std::vector<RegionRun>>();
    }
    file_runs->clear();
    mem_runs.clear();
    std::int64_t pieces = 0;
    std::int64_t batch_bytes = 0;
    walker.fill(*file_runs, mem_runs, cap, pieces, batch_bytes);
    if (pieces == 0) break;
    ++batches;

    // Flattening both types into this batch of joint pieces is the
    // client-side cost list I/O pays on every request.
    co_await ctx.sched.delay(ctx.config.client.flatten_cost_per_region *
                             pieces);

    // Visit the batch's memory regions in stream order as (memory offset,
    // stream offset, bytes); a run with stride == length is one region.
    auto for_each_mem = [&](auto&& copy) {
      std::size_t at = 0;
      for (const JointWalker::MemRun& r : mem_runs) {
        const std::int64_t step = r.stride == r.length ? r.count : 1;
        const auto n = static_cast<std::size_t>(r.length * step);
        for (std::int64_t i = 0; i < r.count; i += step) {
          copy(r.offset + i * r.stride, at, n);
          at += n;
        }
      }
    };

    Status status;
    if (is_write) {
      const std::uint8_t* stream = nullptr;
      if (transfer && wbuf != nullptr) {
        stage.resize(static_cast<std::size_t>(batch_bytes));
        const auto* src = static_cast<const std::uint8_t*>(wbuf);
        for_each_mem([&](std::int64_t mem, std::size_t at, std::size_t n) {
          std::memcpy(stage.data() + at, src + mem, n);
        });
        stream = stage.data();
      }
      co_await ctx.sched.delay(
          transfer_time(static_cast<std::uint64_t>(batch_bytes),
                        ctx.config.client.memcpy_bandwidth_bytes_per_s));
      status = co_await ctx.client.write_list(handle, file_runs, stream);
    } else {
      std::uint8_t* stream = nullptr;
      if (transfer && rbuf != nullptr) {
        stage.assign(static_cast<std::size_t>(batch_bytes), 0);
        stream = stage.data();
      }
      status = co_await ctx.client.read_list(handle, file_runs, stream);
      if (stream != nullptr) {
        auto* dst = static_cast<std::uint8_t*>(rbuf);
        for_each_mem([&](std::int64_t mem, std::size_t at, std::size_t n) {
          std::memcpy(dst + mem, stage.data() + at, n);
        });
      }
      co_await ctx.sched.delay(
          transfer_time(static_cast<std::uint64_t>(batch_bytes),
                        ctx.config.client.memcpy_bandwidth_bytes_per_s));
    }
    if (!status.is_ok()) {
      detail::count_method_units(ctx, "io_list_batches_total", batches);
      detail::end_method_span(ctx, span);
      co_return status;
    }
  }
  detail::count_method_units(ctx, "io_list_batches_total", batches);
  detail::end_method_span(ctx, span);
  co_return Status::ok();
}

}  // namespace

sim::Task<Status> list_write(Context& ctx, std::uint64_t handle,
                             const FileView& view, std::int64_t offset,
                             const void* buf, std::int64_t count,
                             const types::Datatype& memtype) {
  return list_rw(ctx, true, handle, view, offset, buf, nullptr, count,
                 memtype);
}

sim::Task<Status> list_read(Context& ctx, std::uint64_t handle,
                            const FileView& view, std::int64_t offset,
                            void* buf, std::int64_t count,
                            const types::Datatype& memtype) {
  return list_rw(ctx, false, handle, view, offset, nullptr, buf, count,
                 memtype);
}

}  // namespace dtio::io
