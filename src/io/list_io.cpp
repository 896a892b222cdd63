// List I/O: flatten both datatypes into joint (memory, file) pieces and
// ship them in bounded batches (default 64 regions per file-system
// request, paper §2.4). The batches keep request sizes bounded but leave a
// linear relationship between pieces and requests — the deficiency
// datatype I/O removes.
#include <algorithm>
#include <cstring>
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
  const auto cap = std::max<std::size_t>(
      1, static_cast<std::size_t>(ctx.config.list_io_max_regions));
  const bool transfer = ctx.client.transfer_data();
  const obs::SpanId span = detail::begin_method_span(
      ctx, is_write ? "list_write" : "list_read", total);
  std::int64_t batches = 0;

  JointWalker walker(make_mem_cursor(memtype, count),
                     make_file_cursor(view, window));

  std::vector<Region> file_batch;
  std::vector<std::int64_t> mem_offsets;
  std::vector<std::uint8_t> stage;
  file_batch.reserve(cap);
  mem_offsets.reserve(cap);

  while (true) {
    file_batch.clear();
    mem_offsets.clear();
    std::int64_t batch_bytes = 0;
    walker.fill(file_batch, mem_offsets, cap, batch_bytes);
    if (file_batch.empty()) break;
    ++batches;

    // Flattening both types into this batch of joint pieces is the
    // client-side cost list I/O pays on every request.
    co_await ctx.sched.delay(ctx.config.client.flatten_cost_per_region *
                             static_cast<std::int64_t>(file_batch.size()));

    Status status;
    if (is_write) {
      const std::uint8_t* stream = nullptr;
      if (transfer && wbuf != nullptr) {
        stage.resize(static_cast<std::size_t>(batch_bytes));
        std::size_t at = 0;
        for (std::size_t i = 0; i < file_batch.size(); ++i) {
          const auto len = static_cast<std::size_t>(file_batch[i].length);
          std::memcpy(stage.data() + at,
                      static_cast<const std::uint8_t*>(wbuf) + mem_offsets[i],
                      len);
          at += len;
        }
        stream = stage.data();
      }
      co_await ctx.sched.delay(
          transfer_time(static_cast<std::uint64_t>(batch_bytes),
                        ctx.config.client.memcpy_bandwidth_bytes_per_s));
      status = co_await ctx.client.write_list(handle, file_batch, stream);
    } else {
      std::uint8_t* stream = nullptr;
      if (transfer && rbuf != nullptr) {
        stage.assign(static_cast<std::size_t>(batch_bytes), 0);
        stream = stage.data();
      }
      status = co_await ctx.client.read_list(handle, file_batch, stream);
      if (stream != nullptr) {
        std::size_t at = 0;
        for (std::size_t i = 0; i < file_batch.size(); ++i) {
          const auto len = static_cast<std::size_t>(file_batch[i].length);
          std::memcpy(static_cast<std::uint8_t*>(rbuf) + mem_offsets[i],
                      stage.data() + at, len);
          at += len;
        }
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
