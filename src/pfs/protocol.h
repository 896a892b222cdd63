// The PVFS-like request/reply protocol between clients and I/O servers.
//
// Three data interfaces, mirroring the paper's progression:
//   * contiguous (POSIX-style)  — offset + length
//   * list I/O                  — explicit offset-length region list
//   * datatype I/O              — encoded dataloop + displacement + count
// plus metadata operations (create/open/remove/stat) served by the
// metadata server (node 0, which doubles as an I/O server, §4.1).
//
// All structs are carried inside sim::Message bodies (std::any), never as
// raw coroutine parameters, so implicit move constructors are fine here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/region.h"
#include "common/status.h"
#include "common/units.h"
#include "pfs/layout.h"

namespace dtio {
class Rng;
namespace dl {
class Dataloop;
}  // namespace dl
namespace sim {
struct Message;
}  // namespace sim
}  // namespace dtio

namespace dtio::pfs {

/// Mailbox tag for all requests arriving at a server.
inline constexpr std::uint64_t kTagRequest = 0x5046'5301;
/// Reply tags are allocated per client request: kTagReplyBase + sequence.
inline constexpr std::uint64_t kTagReplyBase = 0x5046'5400'0000'0000ULL;
/// Wire bytes of every reply's fixed header; a read reply adds its data.
inline constexpr std::uint64_t kReplyHeaderBytes = 64;

enum class OpKind : std::uint8_t {
  kContigRead,
  kContigWrite,
  kListRead,
  kListWrite,
  kDatatypeRead,
  kDatatypeWrite,
  kMetaCreate,
  kMetaOpen,
  kMetaRemove,
  kMetaStat,
  kMetaLock,    ///< whole-file advisory lock (FIFO); PVFS itself has no
  kMetaUnlock,  ///< locks — the config gates whether methods may use these
  kBatchWrite,  ///< write-behind flush: many coalesced sub-writes, one RPC
  kResyncPull,  ///< server-to-server: restarting replica pulls diverged strips
};

/// Client data reads: contig, list and datatype.
[[nodiscard]] constexpr bool is_data_read(OpKind op) noexcept {
  return op == OpKind::kContigRead || op == OpKind::kListRead ||
         op == OpKind::kDatatypeRead;
}

/// Client data writes: contig, list, datatype and write-behind batches.
[[nodiscard]] constexpr bool is_data_write(OpKind op) noexcept {
  return op == OpKind::kContigWrite || op == OpKind::kListWrite ||
         op == OpKind::kDatatypeWrite || op == OpKind::kBatchWrite;
}

using DataBuffer = std::shared_ptr<std::vector<std::uint8_t>>;

/// Contiguous access: logical [offset, offset+length); the server clips to
/// its own strips. For writes, `data` holds exactly this server's bytes in
/// stream order (nullptr in timing-only mode).
struct ContigPayload {
  std::int64_t offset = 0;
  std::int64_t length = 0;
  DataBuffer data;
};

/// A list request's logical regions, run-length encoded and immutable
/// once shipped: every per-server request and retry attempt shares it.
using ListRuns = std::shared_ptr<const std::vector<RegionRun>>;

/// List access: logical regions in access order (bounded by the list-I/O
/// region cap at the I/O method layer). Every involved server receives the
/// full list — shipping these lists is list I/O's documented overhead, and
/// the wire still pays for every region, however the runs encode them.
struct ListPayload {
  ListRuns runs;
  DataBuffer data;
};

/// Datatype access: `count` instances of the encoded dataloop anchored at
/// byte `displacement`, restricted to the stream window
/// [stream_offset, stream_offset + stream_length). The server expands the
/// dataloop itself — no region list crosses the wire.
struct DatatypePayload {
  std::shared_ptr<std::vector<std::uint8_t>> encoded_loop;
  std::int64_t displacement = 0;
  std::int64_t count = 0;
  std::int64_t stream_offset = 0;
  std::int64_t stream_length = 0;
  DataBuffer data;
  /// CRC32 of *encoded_loop (0 when unset): verified before decode so a
  /// corrupted descriptor is rejected instead of entering the server's
  /// dataloop table or decoding into a wrong-but-valid access pattern.
  /// The table also uses it as its hash.
  std::uint32_t loop_crc = 0;
};

struct MetaPayload {
  std::string path;
  /// For kMetaStat: look up by handle — the handle itself encodes its
  /// owning shard (handle % meta_shards), so any node can route it and
  /// the owning shard validates liveness. 0 = resolve `path` instead.
  std::uint64_t handle = 0;
  /// kMetaCreate: the client's expected file size in bytes (0 = unknown).
  /// Feeds the per-file layout policy on the owning shard when
  /// ClusterConfig::per_file_layouts is on; ignored otherwise.
  std::int64_t size_hint = 0;
  /// kMetaLock/kMetaUnlock with lock_stripe >= 0: a striped byte-range
  /// lock on (handle, lock_stripe), served by shard lock_stripe %
  /// meta_shards with per-stripe FIFO fairness. -1 (default) = the
  /// whole-file lock: the one stripe covering the file, on the handle's
  /// owning shard.
  std::int64_t lock_stripe = -1;
};

/// Per-strip write epoch: a copy's logical-write count for the strip
/// identified by (handle, primary server, primary-physical strip index).
/// Every replica of a strip applies the same multiset of logical writes,
/// so equal epochs imply identical bytes; a copy whose epoch trails a
/// peer's is stale and must be re-pulled.
struct StripEpoch {
  std::uint64_t handle = 0;
  int primary = 0;          ///< primary server of the strip
  std::int64_t strip = 0;   ///< strip index in primary-physical space
  std::uint64_t epoch = 0;
  friend bool operator==(const StripEpoch&, const StripEpoch&) = default;
};

/// kResyncPull request payload: a restarting server ships its own strip
/// epochs; the peer answers with the extents (and epochs) of every strip
/// both servers replicate where the peer's epoch is ahead. Control-plane:
/// carries no client data on the request side, and the fault corruptor
/// leaves it alone (like MetaPayload).
struct ResyncPayload {
  int requester = -1;  ///< server index pulling (also the reply dst node)
  std::vector<StripEpoch> epochs;  ///< requester's current epochs
  /// false (restart resync): the donor walks its own epoch table and
  /// ships every strip it is ahead on. true (verify-and-repair / scrub):
  /// `epochs` lists exactly the corrupt strips the requester wants, and
  /// the donor ships those strips if it holds a *verified-clean* copy —
  /// ignoring epoch comparisons, because the requester's copy is bad at
  /// any epoch.
  bool scoped = false;
};

/// One strip's worth of recovery data in a kResyncPull reply.
struct ResyncExtent {
  std::uint64_t handle = 0;
  int primary = 0;
  std::int64_t strip = 0;        ///< strip index in primary-physical space
  std::uint64_t epoch = 0;       ///< peer's epoch for this strip
  std::int64_t offset = 0;       ///< primary-physical byte offset
  std::int64_t length = 0;       ///< bytes present at the peer
  DataBuffer data;               ///< nullptr in timing-only runs
};

/// One coalesced write run inside a kBatchWrite envelope. Offsets are
/// PHYSICAL (server-local): the client already clipped the logical access
/// to this server's strips while staging, so the server applies the run
/// directly — no layout walk, which is half the batching win. Each sub-op
/// carries its own (client, op_seq) replay identity and payload CRC so the
/// idempotent-replay and integrity machinery applies exactly-once per
/// sub-op even though many share one envelope.
struct BatchSubOp {
  std::uint64_t handle = 0;
  std::int64_t offset = 0;  ///< physical, server-local
  std::int64_t length = 0;
  DataBuffer data;          ///< nullptr in timing-only mode
  std::uint64_t op_seq = 0;
  std::uint32_t payload_crc = 0;
  bool has_payload_crc = false;
};

/// Multi-op batch envelope: the unit a client's write-behind buffer
/// flushes. The envelope itself is unsequenced (Request::op_seq == 0);
/// replay protection lives per sub-op. Sub-ops are applied independently
/// and atomically-per-sub-op; the reply's `sub_acked` bitmap tells a
/// retrying client which sub-ops to strip before resending.
struct BatchPayload {
  std::vector<BatchSubOp> sub_ops;
};

struct Request {
  OpKind op = OpKind::kContigRead;
  std::uint64_t handle = 0;
  int client_node = -1;
  std::uint64_t reply_tag = 0;
  /// false = timing-only mode: sizes and wire costs are simulated exactly,
  /// but no real bytes are stored or returned (large benchmark sweeps).
  bool carry_data = true;
  /// Observability context (0 = untraced): the trace id of the client op
  /// this request belongs to and the client-side span to parent server
  /// work under. Pure annotations — no effect on simulated behavior.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  /// Host-side copy of Message::delivered_at, filled by the server's run
  /// loop when it pulls the carrying message from its mailbox; -1 when
  /// unknown. Feeds the retroactive server_queue span. No sim effect.
  SimTime delivered_at = -1;
  /// Logical-operation sequence number for idempotent replay (0 = replay
  /// protection off). Identical across retry attempts of the same logical
  /// op — only the reply_tag is fresh per attempt — so the server can
  /// recognise a retried write and re-acknowledge without re-applying.
  std::uint64_t op_seq = 0;
  /// CRC32 of the write payload (`payload.data`), set when has_payload_crc
  /// is true; the server rejects mismatches with kDataLoss.
  std::uint32_t payload_crc = 0;
  bool has_payload_crc = false;
  /// Replication: -1 (default) targets the receiving server's own primary
  /// strips — the single-copy legacy meaning. >= 0 names the PRIMARY whose
  /// replica the receiving server holds: the server clips/prunes as that
  /// primary and applies bytes to the (handle, primary) replica bstream
  /// instead of its own store. Set by replica write fan-out and by read
  /// fail-over; never set at replication factor 1.
  int replica_of = -1;
  /// Per-file layout of `handle`'s file, echoed from the create/open
  /// reply: data servers rebuild the file's striping from these three
  /// fields statelessly (nothing to lose in a crash). layout_servers == 0
  /// (default) = the global cluster layout.
  int layout_servers = 0;
  std::int64_t layout_strip = 0;
  int layout_start = 0;
  std::variant<ContigPayload, ListPayload, DatatypePayload, MetaPayload,
               BatchPayload, ResyncPayload>
      payload;
};

struct Reply {
  bool ok = true;
  /// Machine-readable error class when !ok (kOk here means "unclassified";
  /// the client maps it to kInternal). kDataLoss marks transient
  /// corruption rejections, which are the retryable class.
  StatusCode code = StatusCode::kOk;
  std::string error;
  std::int64_t bytes = 0;       ///< data bytes this server moved
  DataBuffer data;              ///< read replies (nullptr in timing-only mode)
  std::uint64_t handle = 0;     ///< metadata create/open
  std::int64_t local_size = 0;  ///< metadata stat: this server's bstream size
  /// Metadata create/open replies: the file's recorded per-file layout
  /// (see Request::layout_servers; 0 = global). Clients cache this per
  /// handle and echo it on every data request for the file.
  int layout_servers = 0;
  std::int64_t layout_strip = 0;
  int layout_start = 0;
  /// CRC32 of `data` for read replies, mirroring Request::payload_crc.
  std::uint32_t payload_crc = 0;
  bool has_payload_crc = false;
  /// kOverloaded replies only: the server's cost-model estimate of its
  /// backlog drain time — the client waits at least this long (instead of
  /// its own blind backoff) before retrying a shed request.
  std::int64_t retry_after = 0;  ///< simulated ns; 0 = no hint
  /// kBatchWrite replies: parallel to the request's sub_ops; 1 = applied
  /// (or replay-suppressed — effects stand either way). A retrying client
  /// strips acked sub-ops so only the unacked remainder is resent. Empty
  /// for every other op (and for shed replies, which saw no sub-ops).
  std::vector<std::uint8_t> sub_acked;
  /// kResyncPull replies: the strips the peer is ahead on, with their
  /// bytes. Empty for every other op.
  std::vector<ResyncExtent> resync;
};

/// A reply refusing its request with `code` and `error`.
[[nodiscard]] Reply error_reply(StatusCode code, std::string error);

/// Largest file, in bytes: 2^62 leaves int64 headroom for the layout's
/// strip and stripe arithmetic on any byte of a file.
inline constexpr std::int64_t kMaxFileBytes = std::int64_t{1} << 62;

/// check_request's verdict: the logical bytes a valid request's walk can
/// cover (the read reply is sized by it), or why the request is invalid.
struct RequestCheck {
  std::int64_t window = 0;
  const char* error = nullptr;  ///< null when the request is valid
  [[nodiscard]] bool ok() const noexcept { return error == nullptr; }
};

/// The one validity rule for requests, applied by the I/O server before
/// dispatch and by the client before it maps an access. An echoed layout
/// stripes 1..num_servers servers from a start in the cluster, with a
/// strip of at least one byte and a stripe of at most kMaxFileBytes / 4;
/// replica_of is -1 or a server. Every span (contig; each back-to-back
/// list run and the list total; the file span of a datatype window of
/// `count` instances of `loop`, the decoded dataloop, null being invalid;
/// each batch sub-op, whose data is null or exactly `length` bytes) lies
/// in [0, kMaxFileBytes], computed without overflow. Other requests pass
/// with window 0. Only a server's walk knows whether carried write data
/// matches the bytes mapped to it.
[[nodiscard]] RequestCheck check_request(const Request& request,
                                         const dl::Dataloop* loop,
                                         int num_servers) noexcept;

/// Latest simulated time a reply may ask a retry to wait for: now +
/// retry_after stays at or below it, so every later deadline still fits
/// in int64.
inline constexpr SimTime kMaxRetryAt = SimTime{1} << 62;

/// What check_reply holds a reply to besides its request.
struct ReplyContext {
  /// The layout of the request's file; for a metadata op by path or a
  /// resync pull, the cluster's global layout. It names the cluster's
  /// servers, the stripe a stat size maps through, and the resync strip.
  const FileLayout* layout = nullptr;
  int replication = 1;            ///< copies of each strip (resync pulls)
  std::int64_t mapped_bytes = 0;  ///< data ops: bytes mapped to the target
  SimTime now = 0;                ///< when the reply arrived
};

/// The one validity rule for replies, applied by the client to every RPC
/// reply and by a server to every resync pull reply: null when `reply`
/// is one an honest server could send for `request`, else why not. Any
/// reply's echoed layout is 0 or a layout of the cluster (the rule
/// check_request applies), its retry_after is 0 or a wait that ends by
/// kMaxRetryAt, its data is null or exactly `bytes` long, and its
/// local_size lies in [0, kMaxFileBytes] and maps through the file's
/// stripe without overflow. An OK data reply moved exactly the mapped
/// bytes, and an OK read that carries data has its data. A batch reply's
/// sub_acked is empty or one 0/1 per sub-op. Only a resync pull reply
/// carries extents, each of a strip the requester replicates: its
/// primary is a server whose strips the requester holds, its offset is
/// its strip times the strip size, its length lies in [0, strip size],
/// and its data is null, empty or exactly `length` long.
[[nodiscard]] const char* check_reply(const Request& request,
                                      const Reply& reply,
                                      const ReplyContext& context) noexcept;

/// Human-readable operation name ("contig_read", "meta_stat", ...), used
/// by logging, tracing, and metric labels.
[[nodiscard]] const char* op_name(OpKind op) noexcept;

/// Wire-size accounting for the request descriptor (excludes bulk data,
/// which is added separately). These sizes drive the cost model: list I/O
/// pays per-region descriptor bytes, datatype I/O pays the encoded loop.
[[nodiscard]] std::uint64_t request_descriptor_bytes(const Request& request,
                                                     std::uint64_t list_bytes_per_region);

/// Fault-injection corruptor for protocol messages (installed into a
/// net::FaultPlan by Cluster::set_fault_plan): flips one random bit in the
/// message's corruptible payload — write data, read-reply data, or a
/// datatype request's encoded dataloop. Copy-on-write: the shared buffer
/// is cloned before the flip, so the sender's copy (which a retry resends)
/// stays clean. Returns false when the message carries nothing to corrupt.
bool corrupt_message_payload(sim::Message& msg, Rng& rng);

}  // namespace dtio::pfs
