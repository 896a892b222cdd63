#include "pfs/protocol.h"

#include <any>
#include <utility>

#include "common/rng.h"
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
