// The cost model describing the simulated cluster.
//
// Defaults are calibrated to the paper's testbed (Argonne Chiba City,
// §4.1): 100 Mbit/s full-duplex fast ethernet per node, one SCSI disk per
// I/O server, dual-PIII nodes. The paper's results are driven by ratios —
// request count x latency, bytes of I/O description on the wire, per-region
// processing cost, doubled data movement in two-phase — all of which appear
// here as explicit parameters, so sensitivity studies are one knob away.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.h"

namespace dtio::net {

struct NetConfig {
  /// Payload bandwidth per link direction. 100 Mbit/s ethernet delivers
  /// ~11.5 MiB/s of TCP payload after framing/protocol overhead.
  double bandwidth_bytes_per_s = 11.5 * 1024 * 1024;

  /// One-way wire+stack latency per packet.
  dtio::SimTime latency = 80 * dtio::kMicrosecond;

  /// Store-and-forward segment size. Large transfers are pipelined in
  /// MTU-sized packets so single-flow throughput approaches link bandwidth.
  std::uint64_t mtu = 64 * dtio::kKiB;

  /// Fixed header bytes charged per message (request framing).
  std::uint64_t per_message_overhead_bytes = 64;

  /// Cost of an intra-node "send" (aggregator to itself in two-phase).
  dtio::SimTime loopback_latency = 5 * dtio::kMicrosecond;

  /// Aggregate switch-fabric (bisection) bandwidth shared by ALL
  /// inter-node traffic; 0 disables the stage. Chiba City's fast-ethernet
  /// edge fed shared uplinks, so cluster-wide throughput plateaued well
  /// below num_nodes x link speed — this is what makes two-phase's double
  /// data movement expensive at scale (paper §4.4) and what the aggregate
  /// bandwidth curves flatten against.
  double fabric_bandwidth_bytes_per_s = 60.0 * 1024 * 1024;
};

struct ServerConfig {
  /// Effective storage bandwidth (buffered SCSI disk behind the VFS).
  double disk_bandwidth_bytes_per_s = 30.0 * 1024 * 1024;

  /// Per-storage-access setup (request dispatch into the storage layer).
  dtio::SimTime disk_access_overhead = 400 * dtio::kMicrosecond;

  /// Per-request CPU: decode, job construction, response setup. PVFS1
  /// handled each request on a fresh TCP interaction through a
  /// single-threaded iod; small-request handling cost ~1 ms.
  dtio::SimTime request_overhead = 700 * dtio::kMicrosecond;

  /// CPU cost per offset-length access region handled by the server
  /// (building the PVFS job/access structures and walking them). This is
  /// the term behind the paper's §4.3 observation that server-side list
  /// processing depresses read performance at scale.
  dtio::SimTime per_region_cost = 4 * dtio::kMicrosecond;

  /// Per-region cost on the WRITE path. Writes scatter an already-ordered
  /// incoming stream and ack once data is queued behind the buffer cache,
  /// so the per-region work the client waits on is much smaller — the
  /// asymmetry behind §4.3's "reads dip, writes don't (TCP buffering)".
  dtio::SimTime per_region_cost_write = 300;  // ns

  /// CPU cost per offset-length region when the region is produced by the
  /// dataloop engine on the server (datatype I/O). The paper's PROTOTYPE
  /// still builds the traditional PVFS job/access lists on the server
  /// (§3.1/§3.2), so this matches per_region_cost by default — which is
  /// exactly what produces the read-side performance dip at high client
  /// counts in §4.3. A full-featured implementation operating directly on
  /// the dataloop would push this toward zero (see the ablation bench).
  dtio::SimTime per_dataloop_region_cost = 2 * dtio::kMicrosecond;  // reads
  dtio::SimTime per_dataloop_region_cost_write = 300;  // ns

  /// Cost to decode a shipped dataloop (per dataloop node).
  dtio::SimTime dataloop_decode_cost_per_node = 2 * dtio::kMicrosecond;

  /// Server-side datatype cache (the paper's S5 future-work item, after
  /// the RMA datatype caching of Traff et al.): a request whose dataloop
  /// is in the server's decoded-loop table skips the decode charge -- e.g.
  /// the tile reader ships the same filetype 100 frames in a row. Off,
  /// every request is charged its decode. The table, bounded by
  /// dataloop_cache_entries, is kept either way; the knob sets only the
  /// charge.
  bool dataloop_cache = false;
  std::size_t dataloop_cache_entries = 64;

  /// Stripe-aware pruned dataloop expansion: while walking a shipped
  /// datatype, the server skips whole subtrees whose file-offset span
  /// misses its own strips (Cursor::set_filter +
  /// FileLayout::intersects_server) instead of generating and discarding
  /// every other server's regions. Turns per-server expansion cost from
  /// O(total regions) into O(own regions + subtrees probed). Off = legacy
  /// full-expansion behaviour, kept for ablation.
  bool pruned_expansion = true;

  /// CPU cost per pruned subtree: one span/stripe intersection probe
  /// (a handful of integer ops) charged for each subtree skipped, even
  /// where the host cursor skips a run of rejected vector blocks with a
  /// few probes of the span covering them.
  dtio::SimTime subtree_probe_cost = 50;  // ns

  /// Idempotent-replay window: how many recent write/create acks the
  /// server remembers per (client, sequence) key. A retried request whose
  /// ack is still in the window is re-acknowledged without re-applying.
  std::size_t replay_window_entries = 1024;

  /// Age bound on replay-window entries (simulated time; 0 = count-only
  /// eviction, the default — scenarios opt in like the other robustness
  /// gates). Long-lived clients with sparse retries would otherwise pin
  /// stale acks until the FIFO wraps; entries older than this are expired
  /// on insert/lookup, so a replay arriving after expiry re-executes.
  /// Host-side state only — expiry never changes the event sequence of a
  /// run without retries.
  dtio::SimTime replay_window_max_age = 0;

  /// Admission control: bound on the request backlog (mailbox queue) a
  /// server tolerates before shedding data requests with kOverloaded
  /// instead of letting queues grow without bound. 0 (default) = unbounded
  /// legacy behaviour; everything below is dormant and the event sequence
  /// is bit-identical.
  std::size_t max_queue_depth = 0;

  /// Companion byte bound on the queued backlog (wire bytes of queued
  /// requests). 0 = no byte bound. Either bound tripping sheds.
  std::uint64_t max_queued_bytes = 0;

  /// CPU charged to fast-reject one shed request (header decode + reply
  /// setup — far below request_overhead, which is the point of shedding).
  dtio::SimTime shed_cost = 50 * dtio::kMicrosecond;

  // ---- Server buffer cache (src/cache/; all default-off — both knobs
  // below must be nonzero to enable, and the disabled event sequence is
  // bit-identical to the legacy charge-per-access path).

  /// Cache block size in bytes. 0 = cache off.
  std::int64_t cache_block_bytes = 0;

  /// Cache capacity in bytes. 0 = cache off.
  std::int64_t cache_capacity_bytes = 0;

  /// Write-through: stores hit the bstream and charge the disk
  /// synchronously (durable immediately). Default is write-back: dirty
  /// blocks stage in the cache and flush in the background, coalesced —
  /// faster, but a crash loses unflushed dirty data.
  bool cache_write_through = false;

  /// Max blocks prefetched per detected-stream trigger; 0 disables
  /// readahead.
  int cache_readahead_blocks = 8;

  /// Consecutive equal strides on a handle before readahead arms.
  int cache_readahead_min_run = 2;

  /// Dirty fraction of capacity that triggers a background flush of the
  /// oldest dirty blocks (write-back only).
  double cache_dirty_watermark = 0.5;

  // ---- Restart resync (ClusterConfig::replication > 1 only; dormant —
  // and the event sequence bit-identical — at replication 1).

  /// Reply deadline per kResyncPull RPC issued during the restart resync
  /// phase, and the retry_after hint attached to writes refused while the
  /// phase runs.
  dtio::SimTime resync_pull_timeout = 50 * dtio::kMillisecond;

  /// Attempts per replica peer before the peer is skipped (bounds the
  /// resync phase under an adversarial fault plan; skips are counted in
  /// ServerStats::resync_peers_skipped and the next restart retries).
  int resync_pull_attempts = 3;

  // ---- Storage integrity (all default-off; see docs/fault-model.md).

  /// Maintain per-page CRC32 checksums on the server's byte streams:
  /// every write path (contig/list/datatype, kBatchWrite sub-ops, replica
  /// fan-out writes, cache write-back flushes, resync pulls) updates
  /// them, and every data read verifies the pages it touches. A mismatch
  /// or latent sector error is surfaced as kDataLoss at replication 1 and
  /// repaired in-line from a ring peer at replication > 1. false (the
  /// default) keeps the legacy trust-the-disk behaviour bit-identical.
  bool block_checksums = false;

  /// Background scrubber period. 0 (default) = no scrubber. Nonzero
  /// (requires block_checksums): every scrub_interval of simulated time
  /// the server walks a slice of its stores (primary and replica),
  /// verifies page checksums on the async disk-drain path, repairs bad
  /// pages from ring peers at replication > 1, and counts typed losses at
  /// replication 1. The loop parks while the store is quiescent (no
  /// writes since the last clean pass) so an idle simulation still
  /// drains.
  dtio::SimTime scrub_interval = 0;

  /// Bytes verified per scrub pass. 0 = the whole store in one pass;
  /// nonzero bounds per-pass disk time, with a cursor carrying progress
  /// across passes.
  std::int64_t scrub_bytes_per_pass = 0;
};

struct ClientConfig {
  /// CPU cost per offset-length pair produced while flattening an MPI
  /// datatype into a list (list I/O, POSIX I/O, data sieving).
  dtio::SimTime flatten_cost_per_region = 1000;  // ns

  /// CPU cost per region emitted by local dataloop processing (memory-side
  /// packing/unpacking in datatype I/O). The prototype converts the MPI
  /// type and builds job/access structures on every call (§3.1-3.2), so
  /// this exceeds ROMIO's tight flatten loop — the reason list AND
  /// datatype I/O "underperform at small numbers of clients" on FLASH's
  /// million-region memory type (§4.4).
  dtio::SimTime dataloop_cost_per_region = 2500;  // ns

  /// Cost to build a dataloop from an MPI datatype (per datatype node,
  /// charged on every MPI-IO call; the paper notes this makes datatype I/O
  /// locally slightly more expensive than list I/O, §3.2).
  dtio::SimTime dataloop_build_cost_per_node = 3 * dtio::kMicrosecond;

  /// memcpy bandwidth for buffer packing/extraction (data sieving extract,
  /// two-phase staging, datatype pack/unpack).
  double memcpy_bandwidth_bytes_per_s = 400.0 * 1024 * 1024;

  /// Fixed CPU cost to issue one file-system operation.
  dtio::SimTime issue_overhead = 100 * dtio::kMicrosecond;

  /// Client write-behind: per-server staging-buffer high watermark in
  /// bytes. 0 (default) = off — every write is a synchronous RPC round
  /// and the legacy event sequence is bit-identical. Nonzero: write-class
  /// ops are absorbed into per-server buffers (coalescing adjacent and
  /// overlapping runs in arrival order) and flushed as one kBatchWrite
  /// envelope per server when the buffer reaches this watermark, at an
  /// explicit flush/close/barrier, at a lock boundary, or when a read
  /// overlaps staged bytes (the read drains that server's buffer first,
  /// preserving the byte-identical-vs-oracle contract). Write errors
  /// surface at the flush that carries them.
  std::int64_t write_behind_bytes = 0;

  /// Per-attempt reply deadline in simulated time, on top of the reply
  /// allowance: each receive waits rpc_timeout plus the wire time, at
  /// NetConfig::bandwidth_bytes_per_s, of the expected reply bytes of
  /// every RPC the client has in flight, since those replies drain
  /// through its one link. So rpc_timeout covers request, queue and
  /// service time only, not the reply's drain. 0 (the default) means no
  /// deadline: an attempt waits for its reply however long it takes, the
  /// behaviour PVFS offers — a lost reply hangs the client. Set nonzero
  /// to time out and retry lost attempts; it must comfortably exceed the
  /// worst-case service time or false timeouts will inflate traffic
  /// (retries stay correct either way, via fresh reply tags and the
  /// server replay window). Replication needs a deadline (failover must
  /// detect a dead primary); lock/unlock never use one.
  dtio::SimTime rpc_timeout = 0;

  /// Total attempts per request (1 = no retries). Error replies
  /// (kDataLoss, kOverloaded, read-reply CRC mismatches) retry at any
  /// rpc_timeout; timeouts only happen when rpc_timeout > 0.
  int rpc_max_attempts = 5;

  /// Backoff before retry k (attempt k+1): base * multiplier^(k-1), plus
  /// a deterministic jitter drawn from the client's seeded RNG, uniform in
  /// [0, jitter * backoff).
  dtio::SimTime rpc_backoff_base = 2 * dtio::kMillisecond;
  double rpc_backoff_multiplier = 2.0;
  double rpc_backoff_jitter = 0.25;

  // ---- Overload protection (all default-off; see docs/fault-model.md).
  // The three mechanisms below act per server ("lane") inside the one RPC
  // path (Client::rpc_attempts), each gated only by its own knob.

  /// AIMD outstanding-request window cap per server. 0 = no flow control.
  /// When set, at most floor(window) RPCs to one server are in flight per
  /// client; the window starts at the cap, halves (floor 1) on
  /// kOverloaded or timeout, and creeps back by 1/window per success —
  /// TCP-style backpressure that reaches the issuer instead of piling
  /// into the server's mailbox.
  int flow_window = 0;

  /// Circuit breaker: consecutive attempt failures (timeouts, unreachable)
  /// on one server before the breaker opens. 0 = breaker off. While open,
  /// RPCs to that server fail fast with kUnavailable (no wire traffic);
  /// after breaker_open_duration one half-open probe is let through —
  /// success closes the breaker, failure re-opens it.
  int breaker_failures = 0;
  dtio::SimTime breaker_open_duration = 50 * dtio::kMillisecond;

  /// Hedged reads: percentile of the per-server attempt-latency
  /// distribution after which a read-class RPC issues one hedge to the
  /// same server on a fresh reply tag (first reply wins; the loser is
  /// dropped at delivery and counted, exactly like a stale retry reply).
  /// 0 = hedging off. Latency is size-normalised: each sample is the
  /// attempt's latency minus its reply allowance (see rpc_timeout), and
  /// the hedge fires at the quantile plus the current attempt's
  /// allowance, so a large healthy reply is not taken for a straggler.
  /// The hedge extends the attempt's wait by a fresh deadline (none at
  /// rpc_timeout 0), so a slow-but-alive primary still counts — the
  /// mechanism that beats timeout-and-discard under a degraded server.
  double hedge_quantile = 0;
  /// Successful samples required on a lane before hedging arms (a
  /// quantile of nothing is noise).
  int hedge_min_samples = 16;

  /// Write quorum under replication (ClusterConfig::replication > 1): how
  /// many replica acks a write needs before it completes. 0 (default) =
  /// all replicas (w = r, strongest); values in [1, r) complete the write
  /// early while the remaining replica RPCs drain in the background.
  /// Ignored when replication is off.
  int write_quorum = 0;

  /// Fast-fail on deterministic data corruption: after this many
  /// *consecutive identical* kDataLoss rejections of one RPC (same typed
  /// error string — a media error or checksum mismatch reproduces
  /// byte-for-byte, while random wire corruption yields distinct
  /// messages), surface kDataLoss immediately instead of burning the
  /// remaining retry budget against the same bad bytes. 0 (default) =
  /// off, the legacy retry-to-exhaustion behaviour.
  int data_loss_fast_fail = 0;
};

/// How two-phase aggregators write back rounds whose merged contributions
/// have holes (paper §2.3: "other noncontiguous access methods ... can be
/// leveraged for further optimization" — and §5's "leveraging datatype I/O
/// underneath two-phase I/O").
enum class CbWriteMode {
  kRmw,       ///< read-modify-write of the hull (ROMIO default)
  kList,      ///< write only the contributed regions via list I/O
  kDatatype,  ///< write only the contributed regions via datatype I/O
};

/// Everything the benches need to instantiate a cluster.
struct ClusterConfig {
  int num_servers = 16;       ///< I/O servers (one doubles as metadata server)
  int num_clients = 8;
  std::uint64_t strip_size = 64 * dtio::kKiB;  ///< PVFS striping unit

  /// k-way strip replication factor. 1 (default) = off — single-copy PVFS
  /// semantics and a bit-identical legacy event sequence. r > 1 mirrors
  /// strip s's primary p onto servers (p+1 .. p+r-1) mod num_servers:
  /// client writes fan out to every replica and complete on
  /// ClientConfig::write_quorum acks; reads go to the primary and fail
  /// over to the next replica on kUnavailable/timeout/breaker-open; a
  /// restarting server resyncs diverged strips from its peers (kResyncPull)
  /// before serving data again. Requires client.rpc_timeout > 0 on the
  /// client side: failover must detect a dead primary, which takes a
  /// deadline, so with no deadline the client never replicates.
  int replication = 1;

  /// Metadata shard count. 1 (default) = the legacy single metadata
  /// server on node 0 with a bit-identical event sequence. k > 1
  /// hash-partitions the namespace across servers [0, k): create/open/
  /// stat/remove route by path hash, handles encode their owning shard
  /// (handle % meta_shards), and lock traffic spreads across the shards.
  /// Each shard's namespace is durable across crash/restart and every
  /// client-side reliability feature (timeouts, retries, idempotent
  /// replay, breakers) applies per shard.
  int meta_shards = 1;

  /// Byte-range lock stripe width. 0 (default) = whole-file locks (a FIFO
  /// lock on stripe -1 at the handle's owning shard). > 0 partitions each
  /// file's byte space into stripes of this many bytes; lock_range()
  /// acquires the stripes covering [offset, offset+length) in ascending
  /// stripe order (deadlock-free) with per-stripe FIFO fairness, and each
  /// stripe is served by shard (stripe_index % meta_shards). Lock state of
  /// either kind is process state: a shard crash safely invalidates it.
  std::int64_t lock_stripe_bytes = 0;

  /// Per-file dynamic layouts. false (default) = every file uses the
  /// global (num_servers, strip_size) layout. true lets the owning shard
  /// pick a per-file layout at create time from the client's size hint:
  /// files no larger than layout_small_file_bytes stripe over
  /// layout_small_servers servers (starting at a hash-chosen server so
  /// small files spread load) — small files stop paying full-stripe
  /// fan-out — and everything else keeps the global wide stripe. The
  /// chosen layout is recorded in the namespace entry and returned on
  /// create/open, so clients and servers agree statelessly.
  bool per_file_layouts = false;

  /// Size threshold (bytes) below which a hinted file is "small".
  std::int64_t layout_small_file_bytes = 256 * dtio::kKiB;

  /// Server count for small-file layouts (clamped to num_servers).
  int layout_small_servers = 1;

  /// The single run seed. Every seeded component (client RPC jitter,
  /// fault plans, randomized workloads) derives its stream from this via
  /// mix_seed(seed, salt). Overridden by the DTIO_SEED environment
  /// variable when the Cluster is constructed, and logged at startup, so
  /// one number reproduces a whole chaos run.
  std::uint64_t seed = 1;

  NetConfig net = {};
  ServerConfig server = {};
  ClientConfig client = {};

  /// ROMIO buffer sizes (paper §4.1: 4 MiB for sieving and collective).
  std::uint64_t sieve_buffer_size = 4 * dtio::kMiB;
  std::uint64_t cb_buffer_size = 4 * dtio::kMiB;

  /// Max offset-length pairs per list-I/O request (paper §2.4: bounded
  /// request size reduces ops "by a factor of 64").
  std::uint64_t list_io_max_regions = 64;

  /// Bytes of request payload per offset-length pair shipped by list I/O.
  std::uint64_t list_io_bytes_per_region = 16;

  /// Aggregator write-back strategy for holey rounds.
  CbWriteMode cb_write_noncontig = CbWriteMode::kRmw;

  /// Whether the file system offers file locking. PVFS does not (paper
  /// §4.1), which rules out data-sieving writes; flip this to model a
  /// locking file system and enable the read-modify-write path.
  bool file_locking = false;

  /// The paper's §5 "full-featured" configuration (the PVFS2 direction):
  /// no offset-length lists are materialised on either side — servers and
  /// clients operate directly on the dataloop representation — and servers
  /// cache decoded datatypes. Widens datatype I/O's lead further.
  [[nodiscard]] ClusterConfig pvfs2_mode() const {
    ClusterConfig cfg = *this;
    cfg.server.per_dataloop_region_cost = 0;
    cfg.server.per_dataloop_region_cost_write = 0;
    cfg.server.dataloop_cache = true;
    cfg.client.dataloop_cost_per_region = 100;  // ns: pure traversal
    return cfg;
  }

  /// Node id of client `rank` (servers occupy [0, num_servers)).
  [[nodiscard]] int client_node(int rank) const noexcept {
    return num_servers + rank;
  }
  [[nodiscard]] int total_nodes() const noexcept {
    return num_servers + num_clients;
  }
};

}  // namespace dtio::net
