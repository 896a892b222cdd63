// The PVFS-like client library: what the ADIO-style I/O methods call.
//
// Exposes the three data interfaces (contiguous, list, datatype) plus
// metadata operations, all as simulated-time coroutines. The client does
// the client half of PVFS's job/access building: it maps the file-side
// access through the striping layout, segments outgoing data per server
// (or scatters incoming data), and charges the cost model for its own
// processing — which is exactly where list I/O pays flattening costs and
// datatype I/O pays (cheaper) dataloop-processing costs.
//
// API convention: public entry points are plain functions that box any
// non-trivially-destructible argument before entering a coroutine (see
// common/box.h for the compiler bug this sidesteps). Data buffers are raw
// pointers; the caller keeps them alive across the co_await.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/box.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "dataloop/dataloop.h"
#include "meta/shard_map.h"
#include "net/cost_model.h"
#include "net/network.h"
#include "obs/observability.h"
#include "pfs/layout.h"
#include "pfs/protocol.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "sim/waitgroup.h"

namespace dtio::pfs {

/// Result of a metadata operation.
struct MetaResult {
  Status status;
  std::uint64_t handle = 0;
  std::int64_t size = 0;  ///< stat only: logical file size
};

class Client {
 public:
  Client(sim::Scheduler& sched, net::Network& network,
         const net::ClusterConfig& config, int rank);

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int node_id() const noexcept { return node_; }
  [[nodiscard]] IoStats& stats() noexcept { return stats_; }
  [[nodiscard]] const FileLayout& layout() const noexcept { return layout_; }

  /// Timing-only mode: wire sizes and costs are exact, but no data bytes
  /// are carried or stored (large sweeps). Default: real data moves.
  void set_transfer_data(bool transfer) noexcept { transfer_data_ = transfer; }
  [[nodiscard]] bool transfer_data() const noexcept { return transfer_data_; }

  /// Reliability-layer counters (published as client_retries_total /
  /// client_rpc_timeouts_total). Both stay zero in a fault-free run;
  /// timeouts also stay zero with rpc_timeout == 0 (no deadline).
  [[nodiscard]] std::uint64_t rpc_retries() const noexcept {
    return rpc_retries_;
  }
  [[nodiscard]] std::uint64_t rpc_timeouts() const noexcept {
    return rpc_timeouts_;
  }
  /// Expected reply wire bytes of every RPC this client has in flight:
  /// what its one link still has to drain before the last of those
  /// replies lands. Each attempt's deadline and hedge delay add the wire
  /// time of this much data; 0 whenever no RPC is in flight.
  [[nodiscard]] std::uint64_t reply_bytes_outstanding() const noexcept {
    return reply_bytes_outstanding_;
  }

  /// Overload-protection counters (all zero unless the corresponding
  /// mechanism is enabled in ClientConfig).
  [[nodiscard]] std::uint64_t hedges_issued() const noexcept {
    return hedges_issued_;
  }
  [[nodiscard]] std::uint64_t hedges_won() const noexcept {
    return hedges_won_;
  }
  [[nodiscard]] std::uint64_t overloads_seen() const noexcept {
    return overloads_seen_;
  }
  [[nodiscard]] std::uint64_t breaker_fast_fails() const noexcept {
    return breaker_fast_fails_;
  }
  /// Hedges NOT issued because the lane breaker opened during the hedge
  /// wait: aiming a second copy at a server already judged unhealthy would
  /// add load exactly where it hurts, so the client waits out the primary
  /// reply instead.
  [[nodiscard]] std::uint64_t hedges_suppressed() const noexcept {
    return hedges_suppressed_;
  }

  // ---- Replication (ClusterConfig::replication > 1) --------------------------

  /// Replication factor this client acts on: the configured factor clamped
  /// to the server count, and 1 (off) unless rpc_timeout sets a deadline —
  /// failover has to detect a dead primary, which needs timeouts.
  [[nodiscard]] int effective_replication() const noexcept {
    const int cap = config_->num_servers;
    int r = config_->replication;
    if (r > cap) r = cap;
    return (r > 1 && config_->client.rpc_timeout > 0) ? r : 1;
  }
  /// Steps of a replicated read to a non-primary replica, each after a
  /// timeout, an open breaker or a kUnavailable refusal (rpc_attempts).
  [[nodiscard]] std::uint64_t read_failovers() const noexcept {
    return read_failovers_;
  }
  /// Write fan-outs that completed at write quorum (one per primary-server
  /// request, not per replica copy).
  [[nodiscard]] std::uint64_t quorum_writes() const noexcept {
    return quorum_writes_;
  }

  /// Reads surfaced as kDataLoss by the fast-fail path
  /// (ClientConfig::data_loss_fast_fail): the server kept rejecting with
  /// the byte-identical typed media error, so retrying was pointless.
  [[nodiscard]] std::uint64_t data_loss_surfaced() const noexcept {
    return data_loss_surfaced_;
  }

  // ---- Write-behind staging --------------------------------------------------
  // Armed by ClientConfig::write_behind_bytes > 0: write-class data ops
  // are absorbed into per-server staging buffers (coalesced in arrival
  // order) and flushed as kBatchWrite envelopes. Default off: every knob
  // below reads zero and the legacy event sequence is untouched.

  [[nodiscard]] bool write_behind_enabled() const noexcept {
    return config_->client.write_behind_bytes > 0;
  }
  /// Bytes currently staged across all per-server buffers.
  [[nodiscard]] std::int64_t write_behind_staged_bytes() const noexcept {
    return wb_total_bytes_;
  }
  /// Drain every per-server staging buffer (one kBatchWrite per involved
  /// server, issued concurrently). First error wins; ok when nothing is
  /// staged. This is what File::flush()/close() and collective barriers
  /// call — deferred write errors surface here.
  sim::Task<Status> flush_write_behind();

  /// Write-behind counters, for tests and benches. Flushes are counted
  /// per reason (client_wb_flushes_total{reason}); this is their sum.
  [[nodiscard]] std::uint64_t wb_flushes() const noexcept {
    return wb_flushes_watermark_ + wb_flushes_read_overlap_ +
           wb_flushes_lock_ + wb_flushes_stat_ + wb_flushes_flush_ +
           wb_flushes_explicit_;
  }
  [[nodiscard]] std::uint64_t wb_batches() const noexcept {
    return wb_batches_;
  }
  [[nodiscard]] std::uint64_t wb_coalesced_ops() const noexcept {
    return wb_coalesced_;
  }
  [[nodiscard]] std::uint64_t wb_staged_ops() const noexcept {
    return wb_staged_ops_;
  }
  [[nodiscard]] std::uint64_t wb_staged_bytes() const noexcept {
    return wb_staged_bytes_;
  }

  /// Snapshot of one per-server lane's health, for tests and benches.
  struct LaneHealth {
    int window = 0;       ///< current AIMD cap (0 = flow control off)
    int outstanding = 0;
    int consecutive_failures = 0;
    int breaker = 0;  ///< 0 = closed, 1 = open, 2 = half-open
  };
  [[nodiscard]] LaneHealth lane_health(int server) const;

  /// Attach the observability context (nullptr detaches). Not owned.
  /// Latency histograms are resolved here, once, so the op path pays no
  /// registry lookups; when detached, one pointer test.
  void set_observability(obs::Observability* obs);
  [[nodiscard]] obs::Observability* observability() const noexcept {
    return obs_;
  }

  /// The counters every client publishes (client_retries_total, ...),
  /// each read from one of its counter members and labelled with its node.
  static std::span<const obs::CounterRow<Client>> counter_table();
  /// Sets every counter_table() row in `registry`.
  void publish_metrics(obs::MetricsRegistry& registry) const;

  // ---- Metadata ------------------------------------------------------------
  /// Create a file. `size_hint` (bytes; 0 = unknown) is the expected file
  /// size: with ClusterConfig::per_file_layouts the owning shard uses it
  /// to pick the file's layout (small files stripe narrow).
  sim::Task<MetaResult> create(std::string path, std::int64_t size_hint = 0);
  sim::Task<MetaResult> open(std::string path);
  sim::Task<MetaResult> remove(std::string path);
  /// Logical file size = the extent implied by the largest per-server
  /// bstream (queried from the file's I/O servers, PVFS-style).
  sim::Task<MetaResult> stat(std::string path);
  /// Same, for an already-open handle (skips the namespace lookup).
  sim::Task<MetaResult> stat_handle(std::uint64_t handle);

  /// Whole-file FIFO lock/unlock, served by the handle's owning metadata
  /// shard. Only meaningful when the configuration models a locking file
  /// system; PVFS itself has none.
  sim::Task<Status> lock(std::uint64_t handle);
  sim::Task<Status> unlock(std::uint64_t handle);

  /// Striped byte-range lock/unlock over [offset, offset + length): with
  /// ClusterConfig::lock_stripe_bytes > 0 acquires every covering lock
  /// stripe in ascending order (deadlock-free) from the shards serving
  /// them; with striping off both degrade to the whole-file lock. Unlock
  /// releases in the same ascending order.
  sim::Task<Status> lock_range(std::uint64_t handle, std::int64_t offset,
                               std::int64_t length);
  sim::Task<Status> unlock_range(std::uint64_t handle, std::int64_t offset,
                                 std::int64_t length);

  /// The layout this client uses for `handle`: the per-file layout cached
  /// from the create/open reply, or the global layout when none is
  /// recorded (meta_shards = 1 legacy handles, foreign handles).
  [[nodiscard]] const FileLayout& layout_for(std::uint64_t handle) const;

  // ---- Contiguous (POSIX-style) interface -----------------------------------
  sim::Task<Status> write_contig(std::uint64_t handle, std::int64_t offset,
                                 const std::uint8_t* data, std::int64_t length);
  sim::Task<Status> read_contig(std::uint64_t handle, std::int64_t offset,
                                std::uint8_t* out, std::int64_t length);

  // ---- List interface --------------------------------------------------------
  // `runs` are logical file regions in access order, run-length encoded;
  // every per-server request and retry attempt shares the one list.
  // `stream` holds the concatenated data (write) or receives it (read).
  sim::Task<Status> write_list(std::uint64_t handle, ListRuns runs,
                               const std::uint8_t* stream);
  sim::Task<Status> read_list(std::uint64_t handle, ListRuns runs,
                              std::uint8_t* stream);
  /// Same, from a plain region list (encoded with runs_of()).
  sim::Task<Status> write_list(std::uint64_t handle,
                               std::span<const Region> regions,
                               const std::uint8_t* stream);
  sim::Task<Status> read_list(std::uint64_t handle,
                              std::span<const Region> regions,
                              std::uint8_t* stream);

  // ---- Datatype interface -----------------------------------------------------
  // `count` instances of `filetype` anchored at `displacement`; operate on
  // stream window [stream_offset, stream_offset + stream_length).
  sim::Task<Status> write_datatype(std::uint64_t handle,
                                   dl::DataloopPtr filetype,
                                   std::int64_t displacement,
                                   std::int64_t count,
                                   std::int64_t stream_offset,
                                   std::int64_t stream_length,
                                   const std::uint8_t* stream);
  sim::Task<Status> read_datatype(std::uint64_t handle,
                                  dl::DataloopPtr filetype,
                                  std::int64_t displacement,
                                  std::int64_t count,
                                  std::int64_t stream_offset,
                                  std::int64_t stream_length,
                                  std::uint8_t* stream);

 private:
  /// Per-server client-side access list: physical extents in stream
  /// order, each with where its data sits in the client's stream buffer.
  /// An extent is a group of StripMapper::map_run: the phys.count
  /// physical regions of one strip, phys.stride apart on the server and
  /// back to back in the stream, standing for `pieces` per-region pieces
  /// (a tile's rows within one strip, or one list run's back-to-back
  /// regions merged into one region).
  struct ServerAccess {
    struct Extent {
      RegionRun phys;             ///< physical regions on the server
      std::int64_t stream_at = 0; ///< stream offset of its first byte
      std::int64_t pieces = 1;    ///< per-region pieces it stands for
    };
    std::vector<Extent> extents;
    std::int64_t total_bytes = 0;
  };

  /// The client half of job building: map a checked contig, list or
  /// datatype prototype (`filetype`: a datatype op's dataloop) into
  /// per-server access lists, with their extents only if `with_extents`
  /// (totals always). Returns pieces walked, counted per region.
  std::int64_t build_access(const Request& prototype,
                            const dl::DataloopPtr& filetype, bool with_extents,
                            std::vector<ServerAccess>& out) const;

  sim::Task<MetaResult> meta_op(OpKind op, Box<std::string> path,
                                std::int64_t size_hint);
  sim::Task<MetaResult> stat_impl(Box<std::string> path);
  /// One lock/unlock message to a metadata shard, waiting (unbounded) for
  /// the grant/ack. stripe == -1 is the whole-file lock.
  sim::Task<Status> lock_op(OpKind op, std::uint64_t handle,
                            std::int64_t stripe, int shard);
  /// Stamp the file's cached layout (if any) onto an outgoing request.
  void stamp_layout(Request& request) const;

  /// One in-flight RPC: the request prototype for every attempt (only the
  /// reply_tag is re-allocated per attempt) plus its outcome. Slots live
  /// in the issuing coroutine's frame and are passed by pointer.
  struct RpcSlot {
    int server = 0;
    /// The primary server this slot's data belongs to (the access-list
    /// index). Equal to `server` unless read failover re-targeted the slot
    /// at a replica; scatter/validation always index the access list by
    /// `home`.
    int home = 0;
    Request request;
    std::uint64_t wire_bytes = 0;
    /// Expected reply wire bytes (expected_reply_bytes()), held in
    /// reply_bytes_outstanding() while a target of rpc_attempts holds it.
    std::uint64_t reply_bytes = 0;
    obs::SpanId rpc_span = 0;
    /// The span this RPC's attempts and instants hang under.
    [[nodiscard]] obs::SpanId parent_span() const noexcept {
      return rpc_span != 0 ? rpc_span : request.parent_span;
    }
    Status status;
    Reply reply;
  };

  /// Drive one RPC to completion: the one retry loop of every data, stat,
  /// metadata and replicated-read RPC. Each attempt has a target server
  /// and a fresh reply tag, and waits up to rpc_timeout plus
  /// reply_allowance(), the drain time of every reply in flight on the
  /// client's one link; rpc_timeout 0, the default, waits forever, as in
  /// PVFS. On a replicated data read a timeout, an open breaker or a
  /// kUnavailable reply moves the target one step along the replica ring
  /// (one step per replica per round, rpc_max_attempts rounds, an
  /// un-jittered retry_backoff between rounds); elsewhere a timeout is
  /// retried at the target. CRC-mismatched read replies and kDataLoss /
  /// kOverloaded rejections are retried at the target at every
  /// replication, up to rpc_max_attempts times there, with jittered
  /// exponential backoff. Failures surface through slot->status.
  ///
  /// Each gated by its own ClientConfig knob, default off: breaker
  /// fail-fast and an AIMD window slot (both per target, taken again only
  /// when it changes), hedged reads, the kOverloaded retry_after floor and
  /// the data-loss fast-fail.
  sim::Task<void> rpc_attempts(RpcSlot* slot);
  /// Wire bytes of a reply carrying `data_bytes` of read data: the reply
  /// header plus the network's per-message framing.
  [[nodiscard]] std::uint64_t expected_reply_bytes(
      std::int64_t data_bytes) const noexcept {
    return kReplyHeaderBytes + config_->net.per_message_overhead_bytes +
           static_cast<std::uint64_t>(data_bytes);
  }
  /// Time the client link needs to drain reply_bytes_outstanding() at the
  /// link bandwidth; added to every deadline and hedge delay.
  [[nodiscard]] SimTime reply_allowance() const noexcept {
    return transfer_time(reply_bytes_outstanding_,
                         config_->net.bandwidth_bytes_per_s);
  }
  /// Backoff before retry number `retry` (1 = the first retry), without
  /// jitter: rpc_backoff_base * rpc_backoff_multiplier^(retry - 1).
  [[nodiscard]] SimTime retry_backoff(int retry) const;

  sim::Fire rpc_fire(RpcSlot* slot, sim::WaitGroup* wg);
  /// Drive every slot through rpc_attempts and join: one
  /// detached driver per slot, or inline when the op touches one server.
  sim::Task<void> rpc_all(std::vector<RpcSlot>* slots);

  /// One write fanned out to every replica of its home server. The group
  /// is heap-owned (shared by every per-replica driver) because the
  /// spawning coroutine returns at write quorum while laggard drivers keep
  /// delivering to the remaining replicas in the background.
  struct QuorumGroup {
    std::vector<std::unique_ptr<RpcSlot>> slots;  ///< one per replica
    int quorum = 0;  ///< acks that settle the group
    int acks = 0;
    int fails = 0;
    Status error;     ///< first definitive per-replica failure
    Reply reply;      ///< first OK reply (all replicas report equal bytes)
    bool have_reply = false;
    sim::WaitGroup* wg = nullptr;  ///< nulled at settle; laggards skip it
  };
  /// Clone `base` onto every replica of base.home (same op_seq and payload
  /// CRCs, so each server's replay window dedups retries independently)
  /// and start one rpc driver per copy. wg must have been add(1)'d for
  /// this group; the driver that reaches quorum — or makes it impossible —
  /// calls done().
  std::shared_ptr<QuorumGroup> quorum_spawn(const RpcSlot& base,
                                            sim::WaitGroup& wg);
  sim::Fire quorum_fire(std::shared_ptr<QuorumGroup> group, RpcSlot* slot);
  /// Copy a settled group's outcome into the logical slot.
  static void quorum_outcome(const QuorumGroup& group, RpcSlot& slot);

  /// Per-server robustness state ("lane"): AIMD congestion window,
  /// circuit breaker, and the attempt-latency histogram that supplies the
  /// hedging deadline quantile.
  struct Lane {
    enum class Breaker { kClosed, kOpen, kHalfOpen };

    int window = -1;  ///< AIMD cap; -1 = not yet seeded from config
    int outstanding = 0;
    double window_credit = 0;  ///< additive-increase accumulator
    std::deque<std::coroutine_handle<>> waiters;

    int consecutive_failures = 0;

    Breaker breaker = Breaker::kClosed;
    SimTime open_until = 0;
    bool probe_in_flight = false;  ///< half-open admits one probe at a time

    obs::Histogram attempt_latency;  ///< successful attempts only
    std::uint64_t samples = 0;
  };

  /// Awaiter for one AIMD window slot on a lane; parks FIFO when the
  /// window is full. Released via lane_release (grant-on-release, like
  /// sim::Resource).
  struct LaneGate {
    Client* client;
    int server;
    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() noexcept {}
  };
  /// RAII window-slot release; lives in the rpc_attempts frame so every
  /// exit path (success, fail-fast, exhausted retries) releases exactly
  /// once.
  struct LaneReleaser {
    Client* client = nullptr;
    int server = 0;
    LaneReleaser() = default;
    LaneReleaser(const LaneReleaser&) = delete;
    LaneReleaser& operator=(const LaneReleaser&) = delete;
    ~LaneReleaser() {
      if (client != nullptr) client->lane_release(server);
    }
  };

  /// RAII hold on reply_bytes_outstanding_ for one RPC; lives in the
  /// rpc_attempts frame so every exit path releases exactly once.
  struct ReplyBytesHold {
    Client* client;
    std::uint64_t bytes;
    ReplyBytesHold(Client* c, std::uint64_t b) : client(c), bytes(b) {
      client->reply_bytes_outstanding_ += bytes;
    }
    ReplyBytesHold(const ReplyBytesHold&) = delete;
    ReplyBytesHold& operator=(const ReplyBytesHold&) = delete;
    ~ReplyBytesHold() { client->reply_bytes_outstanding_ -= bytes; }
  };

  [[nodiscard]] Lane& lane(int server);
  void lane_release(int server);
  /// Resume parked waiters while the window has room.
  void lane_grant(Lane& l);
  /// AIMD: +1/window per success (up to the configured cap)…
  void note_window_increase(Lane& l);
  /// …halve (floor 1) on timeout or kOverloaded.
  void note_window_decrease(Lane& l);
  /// A successful attempt feeds the hedging histogram with its latency
  /// minus `allowance`, the reply drain time added to that attempt's
  /// waits, so a large healthy reply does not read as a straggler —
  /// unless the attempt issued a hedge: a straggling server would
  /// otherwise inflate the deadline quantile past rpc_timeout and disable
  /// the very mechanism masking it, so the histogram tracks the healthy
  /// baseline only.
  void note_attempt_latency(Lane& l, SimTime latency, bool hedged,
                            SimTime allowance);
  /// Circuit breaker: false = fail fast (open, or half-open probe taken).
  /// Transitions are marked with breaker_* instants under `slot`'s RPC.
  [[nodiscard]] bool breaker_try_pass(Lane& l, const RpcSlot& slot);
  void breaker_on_success(Lane& l, const RpcSlot& slot);
  void breaker_on_failure(Lane& l, const RpcSlot& slot);

  /// One attempt's exchange with its target, as exchange() fills it in.
  struct Exchange {
    std::optional<sim::Message> reply;  ///< empty: the deadline passed
    bool hedged = false;     ///< a hedge copy went out
    bool hedge_won = false;  ///< the hedge's reply came first
    SimTime start = 0;       ///< when the attempt began
    SimTime allowance = 0;   ///< reply_allowance() after the send
  };
  /// Send one attempt of `slot` to slot->server and wait for its reply
  /// into `out`; for a data read whose lane has enough latency samples,
  /// hedge once past the lane's latency quantile and wait on both tags.
  sim::Task<void> exchange(RpcSlot* slot, Lane* ln, Exchange* out);
  /// What rpc_attempts carries from one attempt to the next.
  struct RetryState {
    Status last;               ///< the latest failure
    bool all_timeouts = true;  ///< no attempt got a reply
    SimTime retry_after = 0;   ///< a shed's floor for the next backoff
    std::string last_loss_error;  ///< data_loss_fast_fail's run
    int loss_repeats = 0;
  };
  /// How an attempt ended: kDone settles the slot (success or a definitive
  /// error), kRetry tries the same target again, kMove hands a replicated
  /// read to the next replica.
  enum class Next { kDone, kRetry, kMove };
  /// Update lane health, counters and `st` from the exchange of attempt
  /// number `attempt` at the target (settling the slot once retries run
  /// out) and say what comes next; `ring` is true for a replicated read.
  Next classify(RpcSlot* slot, Lane& ln, Exchange& ex, int attempt,
                bool ring, RetryState& st);

  // ---- Write-behind internals ------------------------------------------------

  /// One coalesced staged run; its (handle, physical offset) key lives in
  /// the owning map.
  struct WbRun {
    std::int64_t length = 0;
    DataBuffer data;  ///< nullptr in timing-only mode
  };
  /// Per-server staging buffer. Runs are keyed by (handle, physical
  /// offset): physical because staging happens after the layout walk, so
  /// the flush ships runs the server applies directly, and map order makes
  /// flush-time sub-op order deterministic.
  struct WbServerBuf {
    std::map<std::pair<std::uint64_t, std::int64_t>, WbRun> runs;
    std::int64_t bytes = 0;
  };

  /// Stage one physical extent of `pieces` back-to-back pieces, merging
  /// with overlapping/adjacent staged runs of the same handle (new data
  /// overwrites — arrival order). Counts the runs merged away as if each
  /// piece were staged alone: the pieces after the first each absorb
  /// their predecessor. `src` null in timing-only mode (extents are still
  /// tracked).
  void wb_stage_run(int server, std::uint64_t handle, Region phys,
                    const std::uint8_t* src, std::int64_t pieces);
  /// Any staged run of `handle` on `server` overlapping one of `acc`'s
  /// extents?
  [[nodiscard]] bool wb_read_overlaps(int server, std::uint64_t handle,
                                      const ServerAccess& acc) const;
  /// Why a flush happened, named by the per-reason counter it bumps (one
  /// of the wb_flushes_* members).
  using FlushReason = std::uint64_t Client::*;
  /// Flush one server's buffer as a kBatchWrite envelope. `charge_prep`
  /// pays issue overhead + staged-bytes memcpy inline (flush_all charges
  /// one combined prep for its whole fan-out instead).
  sim::Task<Status> wb_flush_server(int server, FlushReason reason,
                                    bool charge_prep);
  sim::Fire wb_flush_fire(int server, FlushReason reason, Status* out,
                          sim::WaitGroup* wg);
  sim::Task<Status> wb_flush_all(FlushReason reason);
  /// Strip sub-ops the reply already acknowledged from a batch slot so a
  /// retry resends only the unacked remainder.
  void wb_strip_acked(RpcSlot* slot, const Reply& reply);
  /// Count a read surfaced as kDataLoss by the fast-fail path and mark it
  /// with a "data_loss" instant under the slot's RPC.
  void note_data_loss_surfaced(const RpcSlot& slot);

  /// Records a zero-length instant span ("hedge", "breaker_open", ...) at
  /// now() on this node, with the target server as its payload, under
  /// `slot`'s RPC span (a node-level root on trace 0 when it has none).
  /// No-op when observability is detached.
  void instant(std::string_view name, const RpcSlot& slot);

  /// One client operation's trace context. begin_op is a no-op returning
  /// zeroes when observability is detached; finish_op closes the root span
  /// and records the op's latency histogram.
  struct OpTrace {
    std::uint64_t trace = 0;
    obs::SpanId span = 0;
    SimTime start = 0;
  };
  OpTrace begin_op(OpKind op);
  void finish_op(OpKind op, const OpTrace& t);

  /// The body of every contig, list and datatype op: refuse a prototype
  /// that fails check_request (kInvalidArgument, nothing sent), build the
  /// access lists, issue one data request per involved server and await
  /// all replies. For writes, segments `write_stream` per server; for
  /// reads, scatters reply data back into `read_stream`. `filetype_box`
  /// holds a datatype op's dataloop (empty for contig and list).
  sim::Task<Status> run_requests(Box<Request> prototype_box,
                                 Box<dl::DataloopPtr> filetype_box,
                                 const std::uint8_t* write_stream,
                                 std::uint8_t* read_stream);

  [[nodiscard]] std::uint64_t next_reply_tag() noexcept {
    return kTagReplyBase + (static_cast<std::uint64_t>(rank_) << 24) +
           reply_seq_++;
  }

  sim::Scheduler* sched_;
  net::Network* network_;
  const net::ClusterConfig* config_;
  int rank_;
  int node_;
  FileLayout layout_;
  meta::ShardMap shards_;
  /// Per-handle layouts cached from create/open replies (only files whose
  /// shard chose a non-global layout appear here).
  std::map<std::uint64_t, FileLayout> layouts_;
  IoStats stats_;
  bool transfer_data_ = true;
  std::uint64_t reply_seq_ = 0;
  /// Logical-op sequence for idempotent replay; distinct per server
  /// request, shared across that request's retry attempts.
  std::uint64_t op_seq_ = 0;
  /// Deterministic backoff jitter, derived from the cluster seed and rank.
  Rng rng_;
  std::uint64_t rpc_retries_ = 0;
  std::uint64_t rpc_timeouts_ = 0;
  std::uint64_t reply_bytes_outstanding_ = 0;
  std::uint64_t hedges_issued_ = 0;
  std::uint64_t hedges_won_ = 0;
  std::uint64_t hedges_suppressed_ = 0;
  std::uint64_t overloads_seen_ = 0;
  std::uint64_t breaker_fast_fails_ = 0;
  std::uint64_t read_failovers_ = 0;
  std::uint64_t quorum_writes_ = 0;
  std::uint64_t data_loss_surfaced_ = 0;
  std::vector<Lane> lanes_;  ///< one per server

  // Write-behind state (all dormant while write_behind_bytes == 0).
  std::vector<WbServerBuf> wb_;  ///< sized lazily to num_servers
  std::int64_t wb_total_bytes_ = 0;
  std::uint64_t wb_batches_ = 0;     ///< kBatchWrite envelopes completed
  std::uint64_t wb_coalesced_ = 0;   ///< staged runs merged away
  std::uint64_t wb_staged_ops_ = 0;  ///< write ops absorbed without an RPC
  std::uint64_t wb_staged_bytes_ = 0;  ///< bytes those ops staged
  // Flush events, one counter per FlushReason.
  std::uint64_t wb_flushes_watermark_ = 0;     ///< a buffer crossed the limit
  std::uint64_t wb_flushes_read_overlap_ = 0;  ///< a read hit staged data
  std::uint64_t wb_flushes_lock_ = 0;          ///< before a lock/unlock
  std::uint64_t wb_flushes_stat_ = 0;          ///< before a stat
  std::uint64_t wb_flushes_flush_ = 0;         ///< File flush/close
  std::uint64_t wb_flushes_explicit_ = 0;      ///< flush_write_behind()

  /// Client-facing ops with latency histograms (kBatchWrite is internal:
  /// flush latency is tracked by the client_flush span and wb counters).
  static constexpr int kNumOps = 12;
  obs::Observability* obs_ = nullptr;
  /// client_op_latency_ns{op=...,node=...}, resolved in set_observability.
  obs::Histogram* op_latency_[kNumOps] = {};
  obs::Histogram* attempt_latency_ = nullptr;  ///< client_rpc_attempt_latency_ns
  obs::Histogram* retry_backoff_ = nullptr;    ///< client_retry_backoff_ns
  obs::Histogram* wb_batch_subops_ = nullptr;  ///< client_wb_batch_subops
};

}  // namespace dtio::pfs
