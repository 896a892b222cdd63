#include "pfs/protocol.h"

#include <algorithm>
#include <any>
#include <utility>

#include "common/rng.h"
#include "dataloop/cursor.h"
#include "sim/mailbox.h"

namespace dtio::pfs {

const char* op_name(OpKind op) noexcept {
  switch (op) {
    case OpKind::kContigRead: return "contig_read";
    case OpKind::kContigWrite: return "contig_write";
    case OpKind::kListRead: return "list_read";
    case OpKind::kListWrite: return "list_write";
    case OpKind::kDatatypeRead: return "datatype_read";
    case OpKind::kDatatypeWrite: return "datatype_write";
    case OpKind::kMetaCreate: return "meta_create";
    case OpKind::kMetaOpen: return "meta_open";
    case OpKind::kMetaRemove: return "meta_remove";
    case OpKind::kMetaStat: return "meta_stat";
    case OpKind::kMetaLock: return "meta_lock";
    case OpKind::kMetaUnlock: return "meta_unlock";
    case OpKind::kBatchWrite: return "batch_write";
    case OpKind::kResyncPull: return "resync_pull";
  }
  return "?";
}

std::uint64_t request_descriptor_bytes(const Request& request,
                                       std::uint64_t list_bytes_per_region) {
  constexpr std::uint64_t kHeader = 32;  // op, handle, tags, client id
  struct Visitor {
    std::uint64_t bytes_per_region;
    std::uint64_t operator()(const ContigPayload&) const { return 16; }
    std::uint64_t operator()(const ListPayload& p) const {
      if (!p.runs) return 0;
      return static_cast<std::uint64_t>(region_count(*p.runs)) *
             bytes_per_region;
    }
    std::uint64_t operator()(const DatatypePayload& p) const {
      return 40 + (p.encoded_loop ? p.encoded_loop->size() : 0);
    }
    std::uint64_t operator()(const MetaPayload& p) const {
      // Optional fields cost bytes only when set, so the legacy
      // single-shard wire sizes are untouched.
      return p.path.size() + (p.size_hint > 0 ? 8 : 0) +
             (p.lock_stripe >= 0 ? 8 : 0);
    }
    std::uint64_t operator()(const BatchPayload& p) const {
      // Per sub-op: handle + offset + length + op_seq + crc/flags.
      return p.sub_ops.size() * 36;
    }
    std::uint64_t operator()(const ResyncPayload& p) const {
      // Per strip epoch: handle + primary + strip index + epoch.
      return 8 + p.epochs.size() * 28;
    }
  };
  // A non-global per-file layout echo rides along as three extra fields;
  // the default (global layout) adds nothing.
  const std::uint64_t layout_bytes = request.layout_servers > 0 ? 16 : 0;
  return kHeader + layout_bytes +
         std::visit(Visitor{list_bytes_per_region}, request.payload);
}

Reply error_reply(StatusCode code, std::string error) {
  Reply reply;
  reply.ok = false;
  reply.code = code;
  reply.error = std::move(error);
  return reply;
}

namespace {

/// Whether [offset, offset + length) lies in [0, limit) for a non-negative
/// limit, computed without overflow.
bool fits(std::int64_t offset, std::int64_t length,
          std::int64_t limit = kMaxFileBytes) noexcept {
  return offset >= 0 && length >= 0 && length <= limit - offset;
}

/// Whether an echoed per-file layout is 0 (the global layout) or one of
/// the cluster's. Its servers index the cluster, and its strip divides
/// every offset; with a stripe of at most kMaxFileBytes / 4, any file
/// offset plus a few stripes stays in int64.
template <typename Echo>
bool layout_ok(const Echo& echo, int num_servers) noexcept {
  const int servers = echo.layout_servers;
  return servers == 0 ||
         (servers > 0 && servers <= num_servers && echo.layout_strip > 0 &&
          echo.layout_strip <= kMaxFileBytes / 4 / servers &&
          echo.layout_start >= 0 && echo.layout_start < num_servers);
}

}  // namespace

RequestCheck check_request(const Request& request, const dl::Dataloop* loop,
                           int num_servers) noexcept {
  if (!layout_ok(request, num_servers)) {
    return {0, "request layout out of range"};
  }
  if (request.replica_of < -1 || request.replica_of >= num_servers) {
    return {0, "request replica out of range"};
  }
  struct Visitor {
    const dl::Dataloop* loop;
    RequestCheck operator()(const ContigPayload& p) const {
      if (!fits(p.offset, p.length)) {
        return {0, "contig request window out of range"};
      }
      return {p.length, nullptr};
    }
    RequestCheck operator()(const ListPayload& p) const {
      if (!p.runs) return {0, "list request without a region list"};
      // List I/O carries no strided runs.
      std::int64_t total = 0;
      for (const RegionRun& r : *p.runs) {
        std::int64_t bytes = 0;
        if (!r.back_to_back() || r.count < 1 ||
            __builtin_mul_overflow(r.length, r.count, &bytes) ||
            !fits(r.offset, bytes) || bytes > kMaxFileBytes - total) {
          return {0, "list request region run out of range"};
        }
        total += bytes;
      }
      return {total, nullptr};
    }
    RequestCheck operator()(const DatatypePayload& p) const {
      if (loop == nullptr) return {0, "datatype request without a dataloop"};
      // The window lies in the stream of `count` instances, and the file
      // bytes its instances can touch lie in the file.
      std::int64_t stream = 0;
      if (p.count < 0 ||
          __builtin_mul_overflow(p.count, loop->size, &stream) ||
          !fits(p.stream_offset, p.stream_length, stream)) {
        return {0, "datatype request stream window out of range"};
      }
      Region span;
      if (!dl::window_span(*loop, p.displacement, p.stream_offset,
                           p.stream_length, span) ||
          !fits(span.offset, span.length)) {
        return {0, "datatype request file span out of range"};
      }
      return {p.stream_length, nullptr};
    }
    RequestCheck operator()(const BatchPayload& p) const {
      // Sub-op offsets are physical: the server applies them unwalked.
      for (const BatchSubOp& sub : p.sub_ops) {
        if (!fits(sub.offset, sub.length) ||
            (sub.data && std::cmp_not_equal(sub.data->size(), sub.length))) {
          return {0, "batch sub-op out of range"};
        }
      }
      return {};
    }
    // Metadata and resync requests name no file bytes.
    RequestCheck operator()(const MetaPayload&) const { return {}; }
    RequestCheck operator()(const ResyncPayload&) const { return {}; }
  };
  return std::visit(Visitor{loop}, request.payload);
}

const char* check_reply(const Request& request, const Reply& reply,
                        const ReplyContext& context) noexcept {
  const FileLayout& layout = *context.layout;
  const int servers = layout.total_servers();
  const bool data_op = is_data_read(request.op) || is_data_write(request.op);
  if (!layout_ok(reply, servers)) return "reply layout out of range";
  if (reply.retry_after != 0 &&
      !fits(context.now, reply.retry_after, kMaxRetryAt)) {
    return "reply retry_after out of range";
  }
  if ((reply.data && std::cmp_not_equal(reply.data->size(), reply.bytes)) ||
      (reply.ok && data_op &&
       (reply.bytes != context.mapped_bytes ||
        (is_data_read(request.op) && request.carry_data && !reply.data)))) {
    return "reply bytes differ from the mapped bytes";
  }
  // logical() of the last local byte stays in int64.
  if (!fits(0, reply.local_size) ||
      reply.local_size / layout.strip_size() >
          kMaxFileBytes / layout.stripe_size() + 1) {
    return "stat reply size out of range";
  }
  const auto* batch = std::get_if<BatchPayload>(&request.payload);
  if (batch != nullptr && !reply.sub_acked.empty() &&
      (reply.sub_acked.size() != batch->sub_ops.size() ||
       std::ranges::any_of(reply.sub_acked, [](auto a) { return a > 1; }))) {
    return "batch reply acks out of range";
  }
  const auto* pull = std::get_if<ResyncPayload>(&request.payload);
  const std::int64_t strip = layout.strip_size();
  for (const ResyncExtent& e : reply.resync) {
    // No product a hostile strip index could overflow.
    if (pull == nullptr || e.primary < 0 || e.primary >= servers ||
        !layout.holds_replica_of(pull->requester, e.primary,
                                 std::min(context.replication, servers)) ||
        e.offset < 0 || e.offset % strip != 0 || e.offset / strip != e.strip ||
        !fits(0, e.length, strip) ||
        (e.data && !e.data->empty() &&
         std::cmp_not_equal(e.data->size(), e.length))) {
      return "resync reply extent out of range";
    }
  }
  return nullptr;
}

namespace {

/// Clone `buf` and flip one rng-chosen bit. False when there is no data.
bool flip_bit(DataBuffer& buf, Rng& rng) {
  if (!buf || buf->empty()) return false;
  auto copy = std::make_shared<std::vector<std::uint8_t>>(*buf);
  const std::uint64_t bit = rng.next_below(copy->size() * 8);
  (*copy)[static_cast<std::size_t>(bit / 8)] ^=
      static_cast<std::uint8_t>(1U << (bit % 8));
  buf = std::move(copy);
  return true;
}

}  // namespace

bool corrupt_message_payload(sim::Message& msg, Rng& rng) {
  if (auto* request = std::any_cast<Request>(&msg.body)) {
    return std::visit(
        [&rng](auto& payload) -> bool {
          using P = std::decay_t<decltype(payload)>;
          if constexpr (std::is_same_v<P, MetaPayload> ||
                        std::is_same_v<P, ResyncPayload>) {
            // Control-plane descriptors: nothing corruptible. Resync pulls
            // in particular must stay clean — a poisoned epoch map would
            // silently skip recovery.
            return false;
          } else if constexpr (std::is_same_v<P, BatchPayload>) {
            // Flip a bit in one rng-chosen sub-op carrying data; the
            // per-sub-op CRC rejects exactly that sub-op, not the batch.
            std::vector<std::size_t> with_data;
            for (std::size_t i = 0; i < payload.sub_ops.size(); ++i) {
              const auto& d = payload.sub_ops[i].data;
              if (d && !d->empty()) with_data.push_back(i);
            }
            if (with_data.empty()) return false;
            const std::size_t pick = with_data[static_cast<std::size_t>(
                rng.next_below(with_data.size()))];
            return flip_bit(payload.sub_ops[pick].data, rng);
          } else if constexpr (std::is_same_v<P, DatatypePayload>) {
            // Prefer the bulk data; a timing-only or read request has
            // none, so the encoded descriptor takes the hit instead.
            return flip_bit(payload.data, rng) ||
                   flip_bit(payload.encoded_loop, rng);
          } else {
            return flip_bit(payload.data, rng);
          }
        },
        request->payload);
  }
  if (auto* reply = std::any_cast<Reply>(&msg.body)) {
    return flip_bit(reply->data, rng);
  }
  return false;
}

}  // namespace dtio::pfs
