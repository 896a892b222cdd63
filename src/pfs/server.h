// The PVFS-like I/O server (PVFS's "iod"), plus metadata service on
// server 0 (which doubles as metadata server, as in the paper's testbed).
//
// A server is a simulated process that handles requests from its mailbox
// sequentially (single CPU, single disk). For each data request it builds
// the job/access view of its part of the access — clipping logical
// regions to its own strips — and charges the cost model for request
// decode, per-region processing, and disk time. Datatype requests are the
// paper's contribution: the server decodes a dataloop and expands it
// locally instead of receiving an offset-length list.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/buffer_cache.h"
#include "common/box.h"
#include "meta/layout_policy.h"
#include "meta/lock_table.h"
#include "meta/shard_map.h"
#include "net/cost_model.h"
#include "net/network.h"
#include "obs/observability.h"
#include "pfs/bstream.h"
#include "pfs/layout.h"
#include "dataloop/dataloop.h"
#include "pfs/protocol.h"
#include "pfs/replay_window.h"
#include "sim/resource.h"
#include "sim/scheduler.h"

namespace dtio::pfs {

/// Per-server instrumentation, inspected by benches and tests and
/// published as registry counters through IOServer::counter_table().
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t regions_walked = 0;   ///< offset-length regions processed
  std::uint64_t my_pieces = 0;        ///< pieces that landed on this server
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t dataloops_decoded = 0;     ///< decodes charged
  std::uint64_t dataloop_cache_hits = 0;
  std::uint64_t dataloop_cache_misses = 0;  ///< decodes with the cache on
  std::uint64_t bad_requests = 0;     ///< malformed requests answered with errors
  std::uint64_t subtrees_skipped = 0; ///< dataloop subtrees pruned (span missed
                                      ///< this server's strips; each charged
                                      ///< one modelled probe)
  std::uint64_t pieces_pruned = 0;    ///< atomic regions never generated
                                      ///< because their subtree was pruned
  std::uint64_t crashes = 0;            ///< crash events injected
  std::uint64_t crash_discarded = 0;    ///< messages lost to a crash (queued
                                        ///< at crash time or arrived while down)
  std::uint64_t replays_suppressed = 0; ///< retried ops re-acked, not re-applied
  std::uint64_t crc_rejects = 0;        ///< requests refused with kDataLoss
  std::uint64_t sheds_depth = 0;        ///< requests shed: queue depth bound
  std::uint64_t sheds_bytes = 0;        ///< requests shed: queued-bytes bound
  std::uint64_t max_backlog = 0;        ///< deepest mailbox backlog observed
  std::uint64_t degraded_requests = 0;  ///< requests served at factor > 1
  std::uint64_t replays_expired = 0;    ///< replay acks evicted by age
  std::uint64_t disk_accesses = 0;      ///< disk ops charged (each pays one
                                        ///< disk_access_overhead)
  std::uint64_t disk_bytes = 0;         ///< bytes request handling moved
                                        ///< through the disk (cache segments
                                        ///< included)
  std::uint64_t cache_hits = 0;         ///< buffer-cache block hits
  std::uint64_t cache_misses = 0;       ///< buffer-cache block miss fills
  std::uint64_t cache_readahead_issued = 0;  ///< blocks prefetched
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_dirty_flushed_bytes = 0;
  std::uint64_t cache_dirty_lost_bytes = 0;  ///< write-back dirty lost to crash
  std::uint64_t batch_requests = 0;      ///< kBatchWrite envelopes handled
  std::uint64_t batch_sub_ops = 0;       ///< sub-ops carried by those envelopes
  std::uint64_t batch_subs_replayed = 0; ///< sub-ops re-acked, not re-applied
  std::uint64_t resyncs = 0;                ///< restart resync phases run
  std::uint64_t resync_strips_pulled = 0;   ///< strips re-pulled from peers
  std::uint64_t resync_bytes_pulled = 0;    ///< bytes those strips carried
  std::uint64_t resync_peers_skipped = 0;   ///< peers unreachable after retries
  std::uint64_t resync_served = 0;          ///< kResyncPull requests answered
  std::uint64_t resync_refused = 0;         ///< data ops refused while resyncing
  // ---- Storage integrity (ServerConfig::block_checksums; see
  // docs/fault-model.md). "Detected" counts are per bad page, deduped per
  // access.
  std::uint64_t media_sector_errors = 0;    ///< latent sector errors hit
  std::uint64_t media_bit_rot_detected = 0; ///< silent flips caught by CRC
  std::uint64_t media_torn_detected = 0;    ///< crash-torn tails caught by CRC
  std::uint64_t checksum_mismatches = 0;    ///< CRC verify failures (rot+torn)
  std::uint64_t media_repairs = 0;          ///< strips rewritten from a peer
  std::uint64_t media_repair_failures = 0;  ///< repair attempts no peer served
  std::uint64_t media_data_loss = 0;        ///< reads refused with kDataLoss
  std::uint64_t scrub_passes = 0;           ///< bounded scrub passes run
  std::uint64_t scrub_blocks = 0;           ///< pages the scrubber verified
  std::uint64_t scrub_repairs = 0;          ///< strips the scrubber repaired
  std::uint64_t scrub_errors = 0;           ///< bad pages it could not repair
  // ---- Metadata shard service (this server's slice of the namespace and
  // lock space; nonzero only on servers with index < meta_shards).
  // Metadata + lock requests served, by op.
  std::uint64_t meta_creates = 0;
  std::uint64_t meta_opens = 0;
  std::uint64_t meta_removes = 0;
  std::uint64_t meta_stats = 0;
  std::uint64_t meta_locks = 0;
  std::uint64_t meta_unlocks = 0;
  std::uint64_t lock_waits = 0;        ///< lock requests parked behind a holder
  std::uint64_t lock_regrants = 0;     ///< parked waiters re-granted at restart

  /// Metadata + lock requests served, all ops.
  [[nodiscard]] std::uint64_t meta_ops() const noexcept {
    return meta_creates + meta_opens + meta_removes + meta_stats + meta_locks +
           meta_unlocks;
  }
};

class IOServer {
 public:
  IOServer(sim::Scheduler& sched, net::Network& network,
           const net::ClusterConfig& config, int server_index);

  /// Spawn the server process (parks on its mailbox; never terminates —
  /// the scheduler reclaims it at teardown).
  void start();

  [[nodiscard]] int node_id() const noexcept { return server_index_; }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Bstream* find_bstream(std::uint64_t handle) const;
  [[nodiscard]] sim::Resource& disk() noexcept { return disk_; }
  [[nodiscard]] sim::Resource& cpu() noexcept { return cpu_; }

  /// Fault injection: crash this server at simulated time `at` and bring
  /// it back `restart_delay` later. A crashed server loses its mailbox
  /// queue and every in-flight request (their replies are suppressed), and
  /// restarts with caches cold — dataloop table and replay window empty.
  /// Durable state (namespace, bstreams, lock table) survives, modelling
  /// an iod whose storage outlives the process.
  void schedule_crash(SimTime at, SimTime restart_delay);
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  /// True while the restart resync phase runs (replication > 1 only):
  /// data ops are refused — reads with kUnavailable so clients fail over
  /// to a replica, writes with kOverloaded + retry_after — until every
  /// strip whose epoch trails a replica peer's has been re-pulled.
  [[nodiscard]] bool resyncing() const noexcept { return resyncing_; }

  /// Storage-media fault injection (Cluster::set_fault_plan): installs
  /// the per-server DiskFaultSpec driving this server's media RNG.
  void set_disk_fault_spec(const net::DiskFaultSpec& spec) noexcept {
    media_.spec = spec;
  }
  /// The media context: injection totals and the checksum switch (tests).
  [[nodiscard]] const MediaEnv& media() const noexcept { return media_; }

  /// True while a scrub pass is actively verifying pages (feeds the
  /// srv_scrubbing timeline series; ServerConfig::scrub_interval > 0).
  [[nodiscard]] bool scrubbing() const noexcept { return scrubbing_; }

  /// The replica copy this server holds of `primary`'s strips of `handle`
  /// (offsets in the primary's physical space), or nullptr when no replica
  /// write ever landed. Replication > 1 only.
  [[nodiscard]] const Bstream* find_replica_bstream(std::uint64_t handle,
                                                    int primary) const;

  /// Write epoch of strip `strip` (primary-physical index) of the copy of
  /// `handle` this server holds for `primary`; 0 when never written.
  /// Replication > 1 only.
  [[nodiscard]] std::uint64_t strip_epoch(std::uint64_t handle, int primary,
                                          std::int64_t strip) const {
    const auto it = strip_epochs_.find({handle, primary, strip});
    return it == strip_epochs_.end() ? 0 : it->second;
  }

  /// Attach the observability context (nullptr detaches). Not owned.
  /// Spans and instants are recorded while attached; detached, the request
  /// loop pays one pointer test.
  void set_observability(obs::Observability* obs) noexcept { obs_ = obs; }

  /// The counters every server publishes (server_requests_total,
  /// meta_ops_total{op}, ...), each read from one ServerStats field and
  /// labelled with this server's index.
  static std::span<const obs::CounterRow<ServerStats>> counter_table();
  /// Sets every counter_table() row in `registry` from stats().
  void publish_metrics(obs::MetricsRegistry& registry) const;

  /// The buffer cache, or nullptr when disabled (tests/benches).
  [[nodiscard]] const cache::BlockCache* block_cache() const noexcept {
    return cache_.get();
  }

  /// Host-side settle: write every staged dirty block to its bstream with
  /// zero simulated cost (tests comparing final file contents; the sim
  /// analogue of unmount). No-op when the cache is off or clean.
  void flush_cache();

  /// True when this server also serves a metadata shard (index <
  /// ClusterConfig::meta_shards; at the default 1, only server 0).
  [[nodiscard]] bool is_meta_shard() const noexcept {
    return server_index_ < shards_.shards();
  }

  /// Metadata-queue depth: lock requests currently parked on this shard
  /// (whole-file and striped). Feeds the meta_qdepth timeline series and
  /// benches.
  [[nodiscard]] std::size_t meta_qdepth() const noexcept {
    return locks_.parked();
  }

 private:
  sim::Task<void> run();
  sim::Task<void> handle_request(Box<Request> boxed);

  void crash();
  void restart();
  /// Admission control: true when the post-dequeue backlog exceeds the
  /// configured queue bounds, with the violated bound's name in `reason`.
  bool over_admission_bounds(const char*& reason) const;
  /// Shed path for an over-bounds data request: charge the (cheap) shed
  /// cost and answer kOverloaded with a backlog-drain retry_after hint.
  sim::Task<void> shed_request(Box<Request> boxed, const char* reason);
  /// Cost-model estimate of the current backlog's drain time, the
  /// retry_after hint carried by kOverloaded replies.
  [[nodiscard]] SimTime backlog_drain_estimate() const;
  /// Straggler factor for this server at the current sim time (1.0 when no
  /// fault plan or no matching degraded window).
  [[nodiscard]] double degraded_factor_now() const;
  /// Service time scaled by the degraded factor sampled at request entry.
  [[nodiscard]] SimTime scaled(SimTime t) const noexcept {
    return req_degrade_ == 1.0
               ? t
               : static_cast<SimTime>(static_cast<double>(t) * req_degrade_);
  }
  /// The layout governing a data request: rebuilt statelessly from the
  /// request's per-file echo when present (layout_servers > 0), else the
  /// global cluster layout. Crash-safe by construction — the server keeps
  /// no per-file layout state to lose.
  [[nodiscard]] FileLayout request_layout(const Request& request) const {
    return request.layout_servers > 0
               ? FileLayout(request.layout_servers, request.layout_strip,
                            request.layout_start, config_->num_servers)
               : layout_;
  }

  /// Drop replay acks older than ServerConfig::replay_window_max_age.
  void expire_replay_acks();
  /// Verify request payload / descriptor CRCs. On mismatch fills `reply`
  /// with a kDataLoss rejection and returns false.
  bool verify_integrity(const Request& request, Reply& reply);
  /// Remember `reply` as the ack for (client, op_seq) so a retry of the
  /// same logical op is re-acknowledged without re-applying. Bounded FIFO
  /// window; no-ops for unsequenced ops, kDataLoss replies (transient —
  /// the retry carries clean data and must be re-executed), or when this
  /// request's epoch died in a crash.
  void store_ack(const Request& request, const Reply& reply);
  /// Same, keyed directly: kBatchWrite envelopes store one ack per sub-op
  /// (each sub-op carries its own op_seq) instead of one for the envelope.
  void store_sub_ack(int client_node, std::uint64_t op_seq,
                     const Reply& reply);
  [[nodiscard]] static std::uint64_t replay_key(int client_node,
                                                std::uint64_t op_seq) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                client_node)) << 48) ^ op_seq;
  }

  /// Restart resync phase (replication > 1): pull every strip whose epoch
  /// trails a replica peer's, then clear resyncing_ and serve data again.
  sim::Task<void> resync();
  /// Donor side of resync: answer a peer's kResyncPull with the extents
  /// (and epochs) of every shared strip this server is ahead on.
  sim::Task<void> handle_resync_pull(Request& request);
  /// Reply deadline of one peer pull, and the retry_after of writes
  /// refused while the restart resync runs.
  static constexpr SimTime kResyncPullTimeout = 50 * kMillisecond;
  /// Pulls per peer before resync skips it (counted in
  /// ServerStats::resync_peers_skipped; the next restart retries) or
  /// repair_strips moves on: bounds both under an adversarial fault plan.
  static constexpr int kResyncPullAttempts = 3;
  /// Servers `from` + d (mod num_servers) for d in [first, last], in that
  /// order, without this server or repeats: the peers a pull visits.
  [[nodiscard]] std::vector<int> ring_peers(int from, int first,
                                            int last) const;
  /// The one peer pull of resync and repair_strips: send a kResyncPull
  /// carrying `payload` to `peer` and wait up to kResyncPullTimeout for
  /// its reply; nullopt when none came or this server crashed since
  /// `my_epoch` (which the caller checks). A reply the peer refused, or
  /// that fails check_reply, comes back with ok false. Each caller keeps
  /// its own peer order and retry policy.
  sim::Task<std::optional<Reply>> pull(int peer, Box<ResyncPayload> payload,
                                       std::uint64_t my_epoch);
  /// Advance the per-strip write epochs covered by an applied physical
  /// write region (acting as `primary`). No-op at replication 1.
  void note_strip_writes(std::uint64_t handle, int primary,
                         std::int64_t offset, std::int64_t length);

  // ---- Storage integrity (ServerConfig::block_checksums; see
  // docs/fault-model.md). All bstream lookups route through the two
  // accessors so the server's MediaEnv is attached before first use.
  Bstream& primary_bstream(std::uint64_t handle);
  Bstream& replica_bstream(std::uint64_t handle, int primary);

  /// Deduped verification verdict over the physical extents one access
  /// visited: the bad strips (sorted, unique) plus per-kind page counts.
  struct MediaCheck {
    std::vector<std::int64_t> strips;
    std::uint64_t sector = 0;
    std::uint64_t rot = 0;
    std::uint64_t torn = 0;
    [[nodiscard]] bool any() const noexcept { return !strips.empty(); }
  };
  [[nodiscard]] MediaCheck check_media(
      const Bstream& target, const std::vector<Region>& visited) const;
  /// Count one access's detected media errors and mark them with a
  /// "media_error" instant, under the request being handled when
  /// `in_request` (a read path), else a node-level root (the scrubber).
  void note_media_errors(const MediaCheck& bad, bool in_request);
  /// Post-walk verification for a data read: verify the visited extents
  /// of `target` (acting as `primary`), repair in-line from ring peers at
  /// replication > 1, and re-gather clean reply bytes. Returns true when
  /// the bytes are trustworthy; false when the handler must abandon the
  /// op — a typed kDataLoss rejection has been sent (or suppressed by a
  /// crash epoch change).
  sim::Task<bool> verify_read_media(Request& request, int primary,
                                    Bstream& target,
                                    const std::vector<Region>& visited,
                                    DataBuffer& reply_data);
  /// Pull verified-clean copies of `strips` of (`handle`, `primary`) from
  /// the replica ring via scoped kResyncPull and rewrite them with
  /// repair_write (no fault draws — repairs converge). Returns the number
  /// of strips a peer served. `in_request` parents the "repair" instants
  /// as in note_media_errors.
  sim::Task<std::uint64_t> repair_strips(std::uint64_t handle, int primary,
                                         std::vector<std::int64_t> strips,
                                         bool in_request);
  /// Spawn the scrub loop when scrubbing is configured, the store has
  /// writes the last clean cycle has not seen, and no loop is alive. The
  /// loop is a regular simulation task, so it parks itself when the store
  /// goes quiescent (an idle sim must still drain) and is re-armed here
  /// from the write paths and restart().
  void maybe_arm_scrubber();
  sim::Fire scrub_loop();
  /// One bounded pass: verify up to scrub_bytes_per_pass bytes from the
  /// cursor, charging the disk, repairing bad strips from peers.
  sim::Task<void> scrub_pass(std::uint64_t my_epoch);

  /// A datatype request's dataloop, from the decoded-loop table or
  /// decoded into it; the decode is charged unless dataloop_cache is on
  /// and the table hit. Null when absent or malformed.
  sim::Task<dl::DataloopPtr> request_loop(const DatatypePayload& p);
  struct DecodedLoop;
  /// The table entry for `bytes` (hash `crc`), touched as most recently
  /// used; null when absent.
  const DecodedLoop* find_loop(std::uint32_t crc,
                               const std::vector<std::uint8_t>& bytes);
  /// Enter a freshly decoded loop as most recently used (unless present),
  /// evicting the least recently used past dataloop_cache_entries.
  void remember_loop(std::uint32_t crc, const std::vector<std::uint8_t>& bytes,
                     const dl::DataloopPtr& loop, std::int64_t nodes);
  /// A contig, list or datatype request that passed the door check: walk
  /// it (`loop`: a datatype request's dataloop) into a DataAccess sized by
  /// `window`, charge, verify read media, then count, ack and reply.
  sim::Task<void> handle_data(Request& request, const dl::DataloopPtr& loop,
                              std::int64_t window);
  /// Write-behind flush envelope: many pre-clipped physical sub-writes,
  /// one decode charge, per-sub-op replay/CRC, applied atomically each.
  sim::Task<void> handle_batch(Request& request);
  void handle_meta(Request& request, Reply& reply);

  /// One data request's target store, layout and Applier (server.cpp).
  struct DataAccess;
  /// Answer a malformed data request with kInvalidArgument and count it
  /// in bad_requests.
  void reject_invalid(const Request& request, std::string why);
  /// Unscaled disk service time of one access of `bytes`: setup plus
  /// transfer.
  [[nodiscard]] SimTime disk_time(std::int64_t bytes) const noexcept {
    return config_->server.disk_access_overhead +
           transfer_time(static_cast<std::uint64_t>(bytes),
                         config_->server.disk_bandwidth_bytes_per_s);
  }
  /// Charge one request's disk work. In order: count `plan`'s cache
  /// traffic and mark it with cache_* instants; charge its sync segments
  /// (miss fills, write-through stores) under a kServerCache span; start
  /// its async segments (readahead, write-back flushes) in the
  /// background; charge `direct_bytes` moved outside the cache under a
  /// kServerDisk span.
  /// A blocking charge pays setup plus the first pipeline chunk and drains
  /// the rest on the disk in the background.
  sim::Task<void> charge_disk(const cache::AccessPlan& plan,
                              std::int64_t direct_bytes);
  /// Start the disk time of `bytes` past the first pipeline chunk draining
  /// in the background.
  void drain_past_first_chunk(std::int64_t bytes);
  sim::Fire disk_drain(SimTime hold);
  /// Region-processing CPU: the handler blocks only for a prime batch of
  /// regions (partial processing streams data while the walk continues);
  /// the rest drains on the CPU resource, still serialising against other
  /// requests at saturation.
  sim::Task<void> charge_regions(std::int64_t pieces, SimTime per_region);
  sim::Fire cpu_drain(SimTime hold);
  void send_reply(int dst, std::uint64_t tag, Reply reply,
                  std::uint64_t wire_data_bytes);
  sim::Fire send_reply_fire(int dst, Box<sim::Message> message);

  /// Rate-limited counter-series sampling (queue depth, disk/CPU
  /// utilization from busy_integral deltas), taken at request entry.
  void sample_counters();

  /// Bumps the per-op metadata counter for a meta/lock request.
  void count_meta_op(OpKind op) noexcept;

  /// Records a zero-length instant span ("crash", "shed", ...) at now() on
  /// this node, with `value` as its payload: a child of `parent` when one
  /// is given, else a node-level root on trace 0 (the phase analyzer skips
  /// those). No-op when observability is detached.
  void instant(std::string_view name, std::int64_t value,
               obs::SpanId parent = 0, std::uint64_t trace = 0);

  /// Emits the retroactive, typed "server_queue" span covering
  /// [request.delivered_at, now) — the time the request sat in the mailbox
  /// before the handler (or the shedder) picked it up. Caller checks obs_.
  void record_queue_wait(const Request& request);

  sim::Scheduler* sched_;
  net::Network* network_;
  const net::ClusterConfig* config_;
  int server_index_;
  FileLayout layout_;
  sim::Resource disk_;
  sim::Resource cpu_;
  ServerStats stats_;

  obs::Observability* obs_ = nullptr;
  // Trace context of the request currently being handled (requests are
  // handled sequentially, so plain members suffice).
  std::uint64_t req_trace_ = 0;
  obs::SpanId req_span_ = 0;  ///< the "server_handle" span
  // Counter-series sampling state.
  SimTime last_sample_ = -1;
  double last_disk_busy_ = 0;
  double last_cpu_busy_ = 0;

  std::unordered_map<std::uint64_t, Bstream> store_;

  // ---- k-way strip replication (ClusterConfig::replication > 1; every
  // structure below stays empty at replication 1).
  //
  // Replica copies this server holds of OTHER primaries' strips, keyed
  // (handle, primary) and addressed at the primary's physical offsets.
  // Durable like store_; replica writes bypass the buffer cache (write-
  // through), so a replica copy is the crash-durability backstop for the
  // primary's write-back dirty data. std::map: deterministic iteration.
  std::map<std::pair<std::uint64_t, int>, Bstream> replica_store_;
  // Per-strip write epochs for every copy this server holds (its own
  // primaries and its replicas), keyed (handle, primary, strip index in
  // the primary's physical space). Each copy of a strip applies the same
  // multiset of logical writes, so equal epochs imply identical bytes; a
  // crash zeroes the epochs of strips covered by lost write-back dirty
  // data, and restart resync pulls every strip whose epoch trails a
  // peer's. Durable across crashes except for that zeroing.
  std::map<std::tuple<std::uint64_t, int, std::int64_t>, std::uint64_t>
      strip_epochs_;
  bool resyncing_ = false;
  std::uint64_t resync_reply_seq_ = 0;  ///< server-to-server reply tags

  // ---- Storage integrity. The env is attached to every bstream this
  // server owns (primary and replica copies) through the two accessors;
  // with checksums off and no disk fault spec it is inert and the legacy
  // event sequence is untouched.
  MediaEnv media_;
  bool media_verify_ = false;  ///< block_checksums: reads verify + repair
  bool scrubbing_ = false;     ///< a scrub pass is actively verifying
  bool scrub_armed_ = false;   ///< the scrub loop coroutine is alive
  /// writes_gen at the last *completed* clean walk of the whole store;
  /// equal to MediaEnv::writes_gen means quiescent — the loop parks.
  std::uint64_t scrub_seen_gen_ = 0;
  std::uint64_t scrub_cycle_gen_ = 0;  ///< snapshot at cycle start
  // Scrub cursor, carried across bounded passes: segment 0 walks primary
  // handles in sorted order, segment 1 the replica (handle, primary) keys
  // in map order; resumes at the first unit >= scrub_unit_.
  int scrub_segment_ = 0;
  std::pair<std::uint64_t, int> scrub_unit_{0, -1};
  std::int64_t scrub_offset_ = 0;

  // Buffer cache (src/cache/), enabled when both ServerConfig block-size
  // and capacity knobs are nonzero. The adapter exposes the bstream map as
  // the cache's durable ByteStore; bstreams model storage that survives a
  // crash, the cache's contents do not.
  struct StoreAdapter final : cache::ByteStore {
    IOServer* server = nullptr;
    void read_at(std::uint64_t handle, std::int64_t offset,
                 std::span<std::uint8_t> out) override {
      server->primary_bstream(handle).read(offset, out);
    }
    void write_at(std::uint64_t handle, std::int64_t offset,
                  std::span<const std::uint8_t> data) override {
      // Cache write-back flushes land here, so flushed pages get checksum
      // maintenance and media fault draws like any other durable write.
      server->primary_bstream(handle).write(offset, data);
    }
    void note_size(std::uint64_t handle, std::int64_t offset,
                   std::int64_t length) override {
      server->primary_bstream(handle).note_write(offset, length);
    }
    [[nodiscard]] std::int64_t size_of(std::uint64_t handle) override {
      return server->primary_bstream(handle).size();
    }
  };
  StoreAdapter store_adapter_;
  std::unique_ptr<cache::BlockCache> cache_;

  // Crash/restart state. `epoch_` bumps on every crash; a request stamps
  // `req_epoch_` at entry (requests are handled sequentially) and its
  // reply / replay-ack is suppressed if the epoch moved on — in-flight
  // work dies with the process even though its coroutine frame drains.
  bool crashed_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t req_epoch_ = 0;
  // Straggler inflation for the request in flight, sampled once at entry
  // so one request sees one consistent factor even if it straddles a
  // degraded-window edge.
  double req_degrade_ = 1.0;

  // Idempotent-replay window: ack by replay_key(client, op_seq), oldest
  // first eviction bounded by ServerConfig::replay_window_entries and
  // (when replay_window_max_age > 0) by simulated age. Cleared on crash
  // (the window is process state, not durable).
  ReplayWindow replay_;

  // Decoded-dataloop table: one per server, keyed by the encoded bytes
  // (found by their CRC32, confirmed by byte equality), a true LRU bounded
  // by ServerConfig::dataloop_cache_entries (a hit moves the entry to the
  // front, so a hot datatype survives a stream of one-shot ones). The host
  // decodes each descriptor once per server whatever dataloop_cache says;
  // the knob decides only the simulated charge (see request_loop). Only
  // bytes that passed the door's CRC and decoded enter it.
  struct DecodedLoop {
    std::uint32_t crc = 0;
    std::vector<std::uint8_t> encoded;
    dl::DataloopPtr loop;
    std::int64_t nodes = 0;  ///< loop->node_count(), the decode charge
  };
  std::list<DecodedLoop> loops_;  ///< MRU at front, LRU at back
  std::unordered_multimap<std::uint32_t, std::list<DecodedLoop>::iterator>
      loop_index_;  ///< crc -> entry in loops_

  // ---- Metadata shard state (servers with index < meta_shards; at the
  // default of one shard this is the legacy "server 0 is the mds" role).
  // The namespace is durable: entries survive a crash like bstreams do.
  struct NamespaceEntry {
    std::uint64_t handle = 0;
    meta::LayoutSpec layout;  ///< per-file striping; default = global
  };
  std::unordered_map<std::string, NamespaceEntry> namespace_;
  std::uint64_t next_handle_ = 1;  ///< per-shard sequence; the wire handle
                                   ///< is encode_handle(seq, shard)
  // Handles this shard has issued and not yet removed — the liveness
  // authority for stat-by-handle. Durable (derived from namespace_).
  std::unordered_set<std::uint64_t> live_handles_;
  meta::ShardMap shards_;

  // File locks, keyed (handle, stripe): striped byte-range locks use their
  // stripe, whole-file locks stripe -1. Process state: crash() invalidates
  // the table and stashes the parked waiters; restart() re-grants them in
  // deterministic order so no client hangs.
  meta::LockTable locks_;
  std::vector<std::pair<meta::LockTable::Key, meta::LockTable::Waiter>>
      crash_parked_;
};

}  // namespace dtio::pfs
