#include "pfs/client.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>

#include "common/crc32.h"
#include "common/logging.h"
#include "dataloop/cursor.h"
#include "dataloop/serialize.h"

namespace dtio::pfs {

Client::Client(sim::Scheduler& sched, net::Network& network,
               const net::ClusterConfig& config, int rank)
    : sched_(&sched),
      network_(&network),
      config_(&config),
      rank_(rank),
      node_(config.client_node(rank)),
      layout_(config.num_servers,
              static_cast<std::int64_t>(config.strip_size)),
      shards_(std::min(config.meta_shards, config.num_servers)),
      rng_(mix_seed(config.seed, static_cast<std::uint64_t>(rank))),
      lanes_(static_cast<std::size_t>(config.num_servers)) {}

// ---- Observability ----------------------------------------------------------

void Client::set_observability(obs::Observability* obs) {
  obs_ = obs;
  const auto histogram = [&](const char* name, std::string labels) {
    return obs == nullptr ? nullptr
                          : &obs->metrics.histogram(name, std::move(labels));
  };
  for (int i = 0; i < kNumOps; ++i) {
    op_latency_[i] = histogram(
        "client_op_latency_ns",
        obs::label("op", op_name(static_cast<OpKind>(i)), "node", node_));
  }
  attempt_latency_ =
      histogram("client_rpc_attempt_latency_ns", obs::label("node", node_));
  retry_backoff_ =
      histogram("client_retry_backoff_ns", obs::label("node", node_));
  wb_batch_subops_ =
      histogram("client_wb_batch_subops", obs::label("node", node_));
}

std::span<const obs::CounterRow<Client>> Client::counter_table() {
  using C = Client;
  static constexpr obs::CounterRow<C> kRows[] = {
      {"client_retries_total", "node", &C::rpc_retries_},
      {"client_rpc_timeouts_total", "node", &C::rpc_timeouts_},
      {"client_hedges_issued_total", "node", &C::hedges_issued_},
      {"client_hedges_won_total", "node", &C::hedges_won_},
      {"client_hedges_suppressed_total", "node", &C::hedges_suppressed_},
      {"client_overloaded_total", "node", &C::overloads_seen_},
      {"client_breaker_fast_fails_total", "node", &C::breaker_fast_fails_},
      {"client_read_failovers_total", "node", &C::read_failovers_},
      {"client_quorum_writes_total", "node", &C::quorum_writes_},
      {"client_data_loss_total", "node", &C::data_loss_surfaced_},
      {"client_wb_staged_bytes_total", "node", &C::wb_staged_bytes_},
      {"client_wb_coalesced_ops_total", "node", &C::wb_coalesced_},
      {"client_wb_flushes_total", "reason=watermark,node",
       &C::wb_flushes_watermark_},
      {"client_wb_flushes_total", "reason=read_overlap,node",
       &C::wb_flushes_read_overlap_},
      {"client_wb_flushes_total", "reason=lock,node", &C::wb_flushes_lock_},
      {"client_wb_flushes_total", "reason=stat,node", &C::wb_flushes_stat_},
      {"client_wb_flushes_total", "reason=flush,node", &C::wb_flushes_flush_},
      {"client_wb_flushes_total", "reason=explicit,node",
       &C::wb_flushes_explicit_},
  };
  return kRows;
}

void Client::publish_metrics(obs::MetricsRegistry& registry) const {
  obs::publish_counters(registry, counter_table(), *this, node_);
}

void Client::instant(std::string_view name, const RpcSlot& slot) {
  if (obs_ == nullptr) return;
  const obs::SpanId parent = slot.parent_span();
  obs_->spans.instant(name, node_, sched_->now(), parent,
                      parent != 0 ? slot.request.trace_id : 0, slot.server);
}

Client::OpTrace Client::begin_op(OpKind op) {
  DTIO_DEBUG("cli" << node_ << " -> " << op_name(op));
  OpTrace t;
  if (obs_ == nullptr) return t;
  t.start = sched_->now();
  t.trace = obs_->spans.new_trace();
  t.span = obs_->spans.begin(op_name(op), node_, t.start, 0, t.trace);
  return t;
}

void Client::finish_op(OpKind op, const OpTrace& t) {
  if (obs_ == nullptr) return;
  const SimTime now = sched_->now();
  obs_->spans.end(t.span, now);
  op_latency_[static_cast<int>(op)]->record(now - t.start);
}

// ---- Metadata ---------------------------------------------------------------

sim::Task<MetaResult> Client::create(std::string path, std::int64_t size_hint) {
  return meta_op(OpKind::kMetaCreate, Box<std::string>(std::move(path)),
                 size_hint);
}
sim::Task<MetaResult> Client::open(std::string path) {
  return meta_op(OpKind::kMetaOpen, Box<std::string>(std::move(path)), 0);
}
sim::Task<MetaResult> Client::remove(std::string path) {
  return meta_op(OpKind::kMetaRemove, Box<std::string>(std::move(path)), 0);
}
sim::Task<MetaResult> Client::stat(std::string path) {
  return stat_impl(Box<std::string>(std::move(path)));
}

const FileLayout& Client::layout_for(std::uint64_t handle) const {
  const auto it = layouts_.find(handle);
  return it != layouts_.end() ? it->second : layout_;
}

void Client::stamp_layout(Request& request) const {
  const auto it = layouts_.find(request.handle);
  if (it == layouts_.end()) return;
  request.layout_servers = it->second.num_servers();
  request.layout_strip = it->second.strip_size();
  request.layout_start = it->second.start_server();
}

sim::Task<Status> Client::lock_op(OpKind op, std::uint64_t handle,
                                  std::int64_t stripe, int shard) {
  const OpTrace t = begin_op(op);
  Request request;
  request.op = op;
  request.client_node = node_;
  request.reply_tag = next_reply_tag();
  MetaPayload payload;
  payload.handle = handle;
  payload.lock_stripe = stripe;
  request.payload = std::move(payload);
  request.trace_id = t.trace;
  request.parent_span = t.span;
  const std::uint64_t tag = request.reply_tag;
  sim::Message msg(node_, kTagRequest, 48, std::move(request));
  msg.trace = t.trace;
  msg.span = t.span;
  msg.phase = static_cast<std::uint8_t>(obs::Phase::kNetRequest);
  // Lock grants wait in the shard's FIFO for as long as the holder keeps
  // the stripe — deliberately no timeout/retry machinery here. The wait is
  // attributed to its own phase so lock convoys show up in phase tables.
  obs::SpanId wait_span = 0;
  if (obs_ != nullptr && op == OpKind::kMetaLock) {
    wait_span = obs_->spans.begin("lock_wait", node_, sched_->now(), t.span,
                                  t.trace, obs::Phase::kClientLockWait);
  }
  sim::Mailbox& mailbox = network_->mailbox(node_);
  mailbox.claim(tag);
  co_await network_->send(node_, shard, std::move(msg));
  (void)co_await mailbox.recv(shard, tag);  // grant / ack
  mailbox.retire(tag);
  if (wait_span != 0) obs_->spans.end(wait_span, sched_->now());
  finish_op(op, t);
  co_return Status::ok();
}

sim::Task<Status> Client::lock(std::uint64_t handle) {
  // Lock boundary: staged writes must be durable before lock-protected
  // readers can be granted the file.
  if (write_behind_enabled() && wb_total_bytes_ > 0) {
    const Status flushed = co_await wb_flush_all(&Client::wb_flushes_lock_);
    if (!flushed.is_ok()) co_return flushed;
  }
  co_return co_await lock_op(OpKind::kMetaLock, handle, -1,
                             shards_.shard_of_handle(handle));
}

sim::Task<Status> Client::unlock(std::uint64_t handle) {
  // Data written under the lock lands before the lock is released.
  if (write_behind_enabled() && wb_total_bytes_ > 0) {
    const Status flushed = co_await wb_flush_all(&Client::wb_flushes_lock_);
    if (!flushed.is_ok()) co_return flushed;
  }
  co_return co_await lock_op(OpKind::kMetaUnlock, handle, -1,
                             shards_.shard_of_handle(handle));
}

sim::Task<Status> Client::lock_range(std::uint64_t handle, std::int64_t offset,
                                     std::int64_t length) {
  if (config_->lock_stripe_bytes <= 0) co_return co_await lock(handle);
  if (write_behind_enabled() && wb_total_bytes_ > 0) {
    const Status flushed = co_await wb_flush_all(&Client::wb_flushes_lock_);
    if (!flushed.is_ok()) co_return flushed;
  }
  // Ascending stripe order on every client = no acquisition cycles.
  const meta::StripeSpan span =
      meta::stripes_of(offset, length, config_->lock_stripe_bytes);
  for (std::int64_t s = span.first; s <= span.last; ++s) {
    (void)co_await lock_op(OpKind::kMetaLock, handle, s,
                           shards_.shard_of_stripe(s));
  }
  co_return Status::ok();
}

sim::Task<Status> Client::unlock_range(std::uint64_t handle,
                                       std::int64_t offset,
                                       std::int64_t length) {
  if (config_->lock_stripe_bytes <= 0) co_return co_await unlock(handle);
  if (write_behind_enabled() && wb_total_bytes_ > 0) {
    const Status flushed = co_await wb_flush_all(&Client::wb_flushes_lock_);
    if (!flushed.is_ok()) co_return flushed;
  }
  const meta::StripeSpan span =
      meta::stripes_of(offset, length, config_->lock_stripe_bytes);
  for (std::int64_t s = span.first; s <= span.last; ++s) {
    (void)co_await lock_op(OpKind::kMetaUnlock, handle, s,
                           shards_.shard_of_stripe(s));
  }
  co_return Status::ok();
}

sim::Task<MetaResult> Client::meta_op(OpKind op, Box<std::string> path,
                                      std::int64_t size_hint) {
  if (op == OpKind::kMetaRemove && write_behind_enabled() &&
      wb_total_bytes_ > 0) {
    // Settle staged data before namespace mutation; a flush after the
    // remove would resurrect per-server bstream bytes for a dead name.
    const Status flushed = co_await wb_flush_all(&Client::wb_flushes_flush_);
    if (!flushed.is_ok()) {
      MetaResult failed;
      failed.status = flushed;
      co_return failed;
    }
  }
  const OpTrace t = begin_op(op);
  RpcSlot slot;
  slot.server = shards_.shard_of_path(path.peek());  // owning metadata shard
  slot.request.op = op;
  slot.request.client_node = node_;
  MetaPayload payload;
  payload.path = path.take();
  payload.size_hint = op == OpKind::kMetaCreate ? size_hint : 0;
  slot.request.payload = std::move(payload);
  slot.request.trace_id = t.trace;
  slot.request.parent_span = t.span;
  if (op == OpKind::kMetaCreate || op == OpKind::kMetaRemove) {
    // Namespace mutations are replay-protected: a retried create must be
    // re-acknowledged, not answered "already exists".
    slot.request.op_seq = ++op_seq_;
  }
  slot.wire_bytes = request_descriptor_bytes(slot.request,
                                             config_->list_io_bytes_per_region);
  slot.reply_bytes = expected_reply_bytes(0);
  co_await sched_->delay(config_->client.issue_overhead);
  co_await rpc_attempts(&slot);

  MetaResult result;
  result.handle = slot.reply.handle;
  result.status = slot.status;
  if (result.status.is_ok() && result.handle != 0) {
    // Remember the file's recorded layout so every data request for this
    // handle can carry it; a global-layout reply clears any stale entry.
    if (slot.reply.layout_servers > 0) {
      layouts_.insert_or_assign(
          result.handle,
          FileLayout(slot.reply.layout_servers, slot.reply.layout_strip,
                     slot.reply.layout_start, config_->num_servers));
    } else {
      layouts_.erase(result.handle);
    }
  }
  finish_op(op, t);
  co_return result;
}

// ---- Per-server lanes: flow control, health, circuit breaker ----------------

Client::Lane& Client::lane(int server) {
  Lane& l = lanes_[static_cast<std::size_t>(server)];
  // Seeded lazily so a config tweaked after construction still takes.
  if (l.window < 0) l.window = config_->client.flow_window;
  return l;
}

Client::LaneHealth Client::lane_health(int server) const {
  const Lane& l = lanes_[static_cast<std::size_t>(server)];
  LaneHealth h;
  h.window = l.window < 0 ? config_->client.flow_window : l.window;
  h.outstanding = l.outstanding;
  h.consecutive_failures = l.consecutive_failures;
  h.breaker = static_cast<int>(l.breaker);
  return h;
}

bool Client::LaneGate::await_ready() {
  Lane& l = client->lane(server);
  if (l.window <= 0 || l.outstanding < l.window) {
    ++l.outstanding;
    return true;
  }
  return false;
}

void Client::LaneGate::await_suspend(std::coroutine_handle<> h) {
  client->lane(server).waiters.push_back(h);
}

void Client::lane_release(int server) {
  Lane& l = lane(server);
  --l.outstanding;
  lane_grant(l);
}

void Client::lane_grant(Lane& l) {
  while (!l.waiters.empty() && (l.window <= 0 || l.outstanding < l.window)) {
    ++l.outstanding;
    const std::coroutine_handle<> h = l.waiters.front();
    l.waiters.pop_front();
    sched_->schedule_at(sched_->now(), h);
  }
}

void Client::note_window_increase(Lane& l) {
  const int cap = config_->client.flow_window;
  if (cap <= 0 || l.window <= 0 || l.window >= cap) return;
  // Additive increase: one slot per full window of successes.
  l.window_credit += 1.0 / static_cast<double>(l.window);
  if (l.window_credit >= 1.0) {
    l.window_credit = 0;
    ++l.window;
    lane_grant(l);
  }
}

void Client::note_window_decrease(Lane& l) {
  if (config_->client.flow_window <= 0 || l.window <= 1) return;
  l.window = std::max(1, l.window / 2);  // multiplicative decrease, floor 1
  l.window_credit = 0;
}

void Client::note_attempt_latency(Lane& l, SimTime latency, bool hedged,
                                  SimTime allowance) {
  if (hedged) return;  // keep the deadline quantile on the healthy baseline
  l.attempt_latency.record(std::max<SimTime>(0, latency - allowance));
  ++l.samples;
}

bool Client::breaker_try_pass(Lane& l, const RpcSlot& slot) {
  if (config_->client.breaker_failures <= 0) return true;
  if (l.breaker == Lane::Breaker::kOpen) {
    if (sched_->now() < l.open_until) return false;
    // Cool-down elapsed: admit probes one at a time until one resolves.
    l.breaker = Lane::Breaker::kHalfOpen;
    l.probe_in_flight = false;
    instant("breaker_half_open", slot);
  }
  if (l.breaker == Lane::Breaker::kHalfOpen) {
    if (l.probe_in_flight) return false;
    l.probe_in_flight = true;
  }
  return true;
}

void Client::breaker_on_success(Lane& l, const RpcSlot& slot) {
  l.consecutive_failures = 0;
  if (config_->client.breaker_failures <= 0) return;
  if (l.breaker == Lane::Breaker::kClosed) return;
  l.breaker = Lane::Breaker::kClosed;
  l.probe_in_flight = false;
  instant("breaker_close", slot);
}

void Client::breaker_on_failure(Lane& l, const RpcSlot& slot) {
  ++l.consecutive_failures;
  const int threshold = config_->client.breaker_failures;
  if (threshold <= 0) return;
  const bool trip =
      l.breaker == Lane::Breaker::kHalfOpen ||
      (l.breaker == Lane::Breaker::kClosed &&
       l.consecutive_failures >= threshold);
  if (!trip) return;
  l.breaker = Lane::Breaker::kOpen;
  l.open_until = sched_->now() + config_->client.breaker_open_duration;
  l.probe_in_flight = false;
  instant("breaker_open", slot);
}

// ---- RPC reliability core ---------------------------------------------------

SimTime Client::retry_backoff(int retry) const {
  const net::ClientConfig& cc = config_->client;
  SimTime backoff = cc.rpc_backoff_base;
  for (int i = 1; i < retry; ++i) {
    backoff = static_cast<SimTime>(static_cast<double>(backoff) *
                                   cc.rpc_backoff_multiplier);
  }
  return backoff;
}

sim::Task<void> Client::rpc_attempts(RpcSlot* slot) {
  const net::ClientConfig& cc = config_->client;
  const int max_attempts = std::max(1, cc.rpc_max_attempts);
  // A replicated data read walks the replica ring from its home server:
  // an unreachable copy costs at most one rpc_timeout (microseconds once
  // its breaker is open) before the next replica serves the same bytes.
  const int ring =
      is_data_read(slot->request.op) ? effective_replication() : 1;
  const int steps = ring > 1 ? ring * max_attempts : 1;
  const int primary = slot->home;
  const obs::SpanId rpc_parent = slot->parent_span();
  RetryState st;

  for (int step = 0; step < steps; ++step) {
    if (ring > 1) {
      const int k = step % ring;
      if (k == 0 && step > 0 && cc.rpc_backoff_base > 0) {
        // Every replica was unreachable: back off before sweeping the ring
        // again (restarting servers finish resync, open breakers reach
        // their cool-down).
        co_await sched_->delay(retry_backoff(step / ring));
      }
      slot->server = layout_.replica_server(primary, k);
      slot->request.replica_of = k == 0 ? -1 : primary;
      if (step > 0) ++stats_.requests_sent;
      if (k > 0) {
        ++read_failovers_;
        instant("read_failover", *slot);
      }
    }
    Lane& ln = lane(slot->server);
    // Circuit breaker: an open lane fails fast with kUnavailable instead
    // of burning a timeout.
    if (!breaker_try_pass(ln, *slot)) {
      ++breaker_fast_fails_;
      st.last = unavailable("circuit breaker open for server " +
                            std::to_string(slot->server));
      continue;
    }
    // AIMD flow control: one window slot on the target's lane for all the
    // attempts made there; LaneReleaser's destructor releases it when the
    // target changes and on every exit path.
    LaneReleaser window_slot;
    if (cc.flow_window > 0) {
      obs::SpanId queue_span = 0;
      if (obs_ != nullptr) {
        queue_span = obs_->spans.begin("client_queue", node_, sched_->now(),
                                       rpc_parent, slot->request.trace_id,
                                       obs::Phase::kClientQueue);
      }
      co_await LaneGate{this, slot->server};
      if (obs_ != nullptr) obs_->spans.end(queue_span, sched_->now());
      window_slot.client = this;
      window_slot.server = slot->server;
    }
    const ReplyBytesHold reply_hold(this, slot->reply_bytes);

    for (int attempt = 1;; ++attempt) {
      if (attempt > 1) {
        // Exponential backoff with deterministic jitter before each retry.
        SimTime backoff = retry_backoff(attempt - 1);
        if (cc.rpc_backoff_jitter > 0) {
          backoff += static_cast<SimTime>(rng_.next_double() *
                                          cc.rpc_backoff_jitter *
                                          static_cast<double>(backoff));
        }
        if (st.retry_after > 0) {
          backoff = std::max(backoff, st.retry_after);
          st.retry_after = 0;
        }
        ++rpc_retries_;
        ++stats_.requests_sent;
        if (obs_ != nullptr) retry_backoff_->record(backoff);
        DTIO_DEBUG("cli" << node_ << " rpc retry " << attempt << "/"
                         << max_attempts << " to srv" << slot->server);
        obs::SpanId backoff_span = 0;
        if (obs_ != nullptr) {
          backoff_span = obs_->spans.begin("client_backoff", node_,
                                           sched_->now(), rpc_parent,
                                           slot->request.trace_id,
                                           obs::Phase::kClientBackoff);
        }
        co_await sched_->delay(backoff);
        if (obs_ != nullptr) obs_->spans.end(backoff_span, sched_->now());
      }
      Exchange ex;
      co_await exchange(slot, &ln, &ex);
      const Next next = classify(slot, ln, ex, attempt, ring > 1, st);
      if (next == Next::kDone) co_return;
      if (next == Next::kMove) break;
    }
  }
  // Every target was unreachable (unreplicated: its breaker was open).
  slot->status = st.last;
}

sim::Task<void> Client::exchange(RpcSlot* slot, Lane* ln, Exchange* out) {
  Exchange& ex = *out;
  const net::ClientConfig& cc = config_->client;
  // Taken when each receive is posted: the replies then in flight share
  // this client's one link, so a healthy reply can take that long.
  const auto deadline = [&] {
    return cc.rpc_timeout > 0 ? cc.rpc_timeout + reply_allowance()
                              : sim::kNoDeadline;
  };
  // Fresh reply tag per attempt: a delayed duplicate reply to an earlier
  // attempt can never satisfy this one (reusing tags across attempts is
  // the classic stale-reply hazard).
  Request request = slot->request;
  const std::uint64_t tag = request.reply_tag = next_reply_tag();
  ex.start = sched_->now();
  obs::SpanId attempt_span = 0;
  if (obs_ != nullptr) {
    attempt_span = obs_->spans.begin("rpc_attempt", node_, ex.start,
                                     slot->parent_span(), request.trace_id);
    request.parent_span = attempt_span;
  }

  // The attempt's copies (primary and hedge) hang under its span.
  const auto message = [&](Request r) {
    sim::Message m(node_, kTagRequest, slot->wire_bytes, std::move(r));
    m.trace = slot->request.trace_id;
    m.span = attempt_span;
    m.phase = static_cast<std::uint8_t>(obs::Phase::kNetRequest);
    return m;
  };
  sim::Mailbox& mailbox = network_->mailbox(node_);
  mailbox.claim(tag);
  co_await network_->send(node_, slot->server, message(std::move(request)));
  // Counted after the send returns, so every sibling RPC of the op that
  // is still in flight is in it.
  ex.allowance = reply_allowance();

  // Hedged reads: once this lane has enough latency samples, wait only
  // to the configured quantile of allowance-normalised latency plus this
  // attempt's allowance; if the primary reply has not arrived by then,
  // issue one hedge (fresh reply tag, same op_seq) and
  // await BOTH tags for a fresh full deadline — first reply wins, and a
  // slow-but-alive primary still counts. Reads only: hedging a write
  // would double-apply without replay protection, and read hedges are
  // idempotent by nature.
  SimTime hedge_delay = 0;
  if (cc.hedge_quantile > 0 && is_data_read(slot->request.op) &&
      ln->samples >=
          static_cast<std::uint64_t>(std::max(1, cc.hedge_min_samples)) &&
      ln->breaker == Lane::Breaker::kClosed) {
    // The log-linear histogram reports bucket midpoints, which can sit
    // just below the true quantile sample — close enough for a healthy
    // reply to race its own hedge. One bucket width of headroom makes
    // the estimate an upper bound on the bucketed sample.
    const auto quantile = static_cast<SimTime>(
        ln->attempt_latency.percentile(cc.hedge_quantile) *
        (1.0 + 1.0 / obs::Histogram::kSubBuckets));
    if (cc.rpc_timeout <= 0 || quantile < cc.rpc_timeout) {
      hedge_delay = quantile + ex.allowance;
    }
  }
  std::uint64_t hedge_tag = 0;
  if (hedge_delay > 0) {
    ex.reply = co_await mailbox.recv(slot->server, tag, hedge_delay);
    if (!ex.reply.has_value() && ln->breaker != Lane::Breaker::kClosed) {
      // The breaker opened while we waited out the hedge delay (a
      // concurrent RPC to this server tripped it). Issuing the hedge now
      // would aim a second copy at a server already judged unhealthy —
      // the one place extra load cannot help. Suppress it and give the
      // primary reply the full deadline instead.
      ++hedges_suppressed_;
      instant("hedge_suppressed", *slot);
      ex.reply = co_await mailbox.recv(slot->server, tag, deadline());
    } else if (!ex.reply.has_value()) {
      Request hedge = slot->request;
      hedge_tag = hedge.reply_tag = next_reply_tag();
      hedge.parent_span = attempt_span;
      ex.hedged = true;
      ++hedges_issued_;
      ++stats_.requests_sent;
      instant("hedge", *slot);
      // The primary stays claimed across this send: its reply may land
      // while the hedge is on the wire, and the receive below takes it.
      mailbox.claim(hedge_tag);
      co_await network_->send(node_, slot->server, message(std::move(hedge)));
      ex.reply =
          co_await mailbox.recv(slot->server, tag, deadline(), hedge_tag);
      ex.hedge_won = ex.reply.has_value() && ex.reply->tag == hedge_tag;
    }
  } else {
    ex.reply = co_await mailbox.recv(slot->server, tag, deadline());
  }
  // No receive can accept either tag any more: from here on their
  // replies (late, duplicated or the hedge loser) drop at delivery.
  mailbox.retire(tag);
  if (ex.hedged) mailbox.retire(hedge_tag);
  if (obs_ != nullptr) {
    attempt_latency_->record(sched_->now() - ex.start);
    obs_->spans.end(attempt_span, sched_->now());
  }
}

Client::Next Client::classify(RpcSlot* slot, Lane& ln, Exchange& ex,
                              int attempt, bool ring, RetryState& st) {
  const net::ClientConfig& cc = config_->client;
  if (!ex.reply.has_value()) {
    ++rpc_timeouts_;
    note_window_decrease(ln);
    breaker_on_failure(ln, *slot);
    st.last = timed_out_error("rpc to server " + std::to_string(slot->server) +
                              " timed out (attempt " +
                              std::to_string(attempt) + ")");
  } else {
    if (ex.hedge_won) ++hedges_won_;
    Reply reply = ex.reply->take<Reply>();
    st.all_timeouts = false;
    // Any reply — OK, shed, or application-level error — proves the
    // server alive: settle the breaker now, on arrival. Otherwise a
    // half-open probe answered with a definitive error would return with
    // probe_in_flight stuck set (every later RPC fails fast forever), and
    // an error reply would leave a stale near-threshold
    // consecutive_failures count on a responsive server.
    breaker_on_success(ln, *slot);
    const StatusCode code =
        reply.code == StatusCode::kOk ? StatusCode::kInternal : reply.code;
    if (reply.has_payload_crc && reply.data &&
        crc32(*reply.data) != reply.payload_crc) {
      // Read-data integrity: a corrupted reply payload must not reach the
      // caller's buffer; retry. The observed CRC is embedded so two
      // distinct corruptions of the same reply never look like the
      // identical, deterministic failure the data-loss fast-fail keys on.
      st.last = data_loss("read reply payload CRC mismatch from server " +
                          std::to_string(slot->server) + " (observed crc " +
                          std::to_string(crc32(*reply.data)) + ")");
    } else if (reply.ok) {
      note_attempt_latency(ln, sched_->now() - ex.start, ex.hedged,
                           ex.allowance);
      note_window_increase(ln);
      slot->status = Status::ok();
      slot->reply = std::move(reply);
      return Next::kDone;
    } else if (code == StatusCode::kOverloaded) {
      // The server shed this request at admission. The window halves (the
      // shed IS the backpressure signal, one decrease per reply however
      // many sub-ops a batch carried), and the server's retry_after hint
      // floors the next backoff. Sheds are deliberate, cheap, and prove
      // the server alive — they do not count toward the breaker.
      st.last = Status(code, reply.error);
      ++overloads_seen_;
      note_window_decrease(ln);
      st.retry_after = reply.retry_after;
    } else if (code == StatusCode::kDataLoss) {
      st.last = Status(code, reply.error);
      // Persistent-loss fast-fail: N consecutive byte-identical kDataLoss
      // rejections of a data read mean the server keeps hitting the same
      // unrepairable media fault (random wire corruption varies its
      // message), so the rest of the retry budget cannot succeed: surface
      // the typed loss now. Reads only: a write-payload CRC rejection is
      // cured by the retry's clean copy.
      if (cc.data_loss_fast_fail > 0 && is_data_read(slot->request.op)) {
        st.loss_repeats =
            reply.error == st.last_loss_error ? st.loss_repeats + 1 : 1;
        st.last_loss_error = reply.error;
        if (st.loss_repeats >= cc.data_loss_fast_fail) {
          note_data_loss_surfaced(*slot);
          slot->status = st.last;
          slot->reply = std::move(reply);
          return Next::kDone;
        }
      }
    } else {
      st.last = Status(code, reply.error);
      // A restarting replica refuses reads with kUnavailable while it
      // resyncs: the next copy may serve. Every other error is definitive.
      if (ring && code == StatusCode::kUnavailable) return Next::kMove;
      slot->status = st.last;
      slot->reply = std::move(reply);
      return Next::kDone;
    }
    // A partially-applied batch sheds its acknowledged sub-ops so a retry
    // resends only the rejected remainder.
    wb_strip_acked(slot, reply);
  }
  if (ring && !ex.reply.has_value()) return Next::kMove;
  const int max_attempts = std::max(1, cc.rpc_max_attempts);
  if (attempt < max_attempts) return Next::kRetry;
  // Retries exhausted. All timeouts after several attempts means the
  // server is unreachable; a single timeout stays kTimedOut. A read's
  // kDataLoss ends as the fast-fail path does, reached the slow way.
  if (st.all_timeouts && max_attempts > 1) {
    st.last = unavailable("server " + std::to_string(slot->server) +
                          " unreachable after " +
                          std::to_string(max_attempts) + " attempts");
  } else if (st.last.code() == StatusCode::kDataLoss &&
             is_data_read(slot->request.op)) {
    note_data_loss_surfaced(*slot);
  }
  slot->status = st.last;
  return Next::kDone;
}

sim::Fire Client::rpc_fire(RpcSlot* slot, sim::WaitGroup* wg) {
  co_await rpc_attempts(slot);
  wg->done();
}

sim::Task<void> Client::rpc_all(std::vector<RpcSlot>* slots) {
  // A one-server op awaits its RPC inline: no detached driver, no join.
  if (slots->size() == 1) {
    co_await rpc_attempts(&slots->front());
    co_return;
  }
  sim::WaitGroup wg(*sched_);
  for (RpcSlot& slot : *slots) {
    wg.add(1);
    sched_->start(rpc_fire(&slot, &wg));
  }
  co_await wg.wait();
}

// ---- Replication: quorum writes ---------------------------------------------

std::shared_ptr<Client::QuorumGroup> Client::quorum_spawn(
    const RpcSlot& base, sim::WaitGroup& wg) {
  const int repl = effective_replication();
  const int wq = config_->client.write_quorum;
  auto group = std::make_shared<QuorumGroup>();
  group->quorum = wq > 0 ? std::min(wq, repl) : repl;
  group->wg = &wg;
  group->slots.reserve(static_cast<std::size_t>(repl));
  for (int k = 0; k < repl; ++k) {
    auto slot = std::make_unique<RpcSlot>();
    slot->home = base.home;
    slot->server = layout_.replica_server(base.home, k);
    // Same op_seq (and, for batches, per-sub-op op_seqs + CRCs) on every
    // copy: each replica's replay window dedups its own retries, and the
    // payload's data buffers are shared_ptr-shared across the copies.
    slot->request = base.request;
    if (k > 0) slot->request.replica_of = base.home;
    slot->wire_bytes = base.wire_bytes;
    slot->reply_bytes = base.reply_bytes;
    if (k == 0) {
      slot->rpc_span = base.rpc_span;
    } else if (obs_ != nullptr) {
      slot->rpc_span =
          obs_->spans.begin("rpc_replica", node_, sched_->now(),
                            base.rpc_span, base.request.trace_id);
      slot->request.parent_span = slot->rpc_span;
    }
    if (k > 0) ++stats_.requests_sent;
    group->slots.push_back(std::move(slot));
  }
  ++quorum_writes_;
  for (auto& slot : group->slots) {
    sched_->start(quorum_fire(group, slot.get()));
  }
  return group;
}

sim::Fire Client::quorum_fire(std::shared_ptr<QuorumGroup> group,
                              RpcSlot* slot) {
  co_await rpc_attempts(slot);
  if (obs_ != nullptr && slot->rpc_span != 0) {
    obs_->spans.end(slot->rpc_span, sched_->now());
  }
  QuorumGroup& g = *group;
  if (slot->status.is_ok()) {
    ++g.acks;
    if (!g.have_reply) {
      g.reply = slot->reply;
      g.have_reply = true;
    }
  } else {
    ++g.fails;
    if (g.error.is_ok()) g.error = slot->status;
  }
  // Settle exactly once: at quorum, or as soon as quorum is impossible.
  // Laggard drivers (g.wg already null) just finish their delivery — that
  // is the durability the quorum write promised the still-pending copies.
  const int total = static_cast<int>(g.slots.size());
  if (g.wg != nullptr && (g.acks >= g.quorum || g.fails > total - g.quorum)) {
    sim::WaitGroup* wg = g.wg;
    g.wg = nullptr;
    wg->done();
  }
}

void Client::quorum_outcome(const QuorumGroup& group, RpcSlot& slot) {
  if (group.acks >= group.quorum) {
    slot.status = Status::ok();
    slot.reply = group.reply;
  } else {
    slot.status = group.error.is_ok()
                      ? internal_error("write quorum unreachable")
                      : group.error;
  }
}

sim::Task<MetaResult> Client::stat_impl(Box<std::string> path) {
  MetaResult opened = co_await meta_op(OpKind::kMetaOpen,
                                       Box<std::string>(path.take()), 0);
  if (!opened.status.is_ok()) co_return opened;
  co_return co_await stat_handle(opened.handle);
}

sim::Task<MetaResult> Client::stat_handle(std::uint64_t handle) {
  // The logical size must include staged-but-unflushed bytes; the servers
  // can only report what they have.
  if (write_behind_enabled() && wb_total_bytes_ > 0) {
    const Status flushed = co_await wb_flush_all(&Client::wb_flushes_stat_);
    if (!flushed.is_ok()) {
      MetaResult failed;
      failed.status = flushed;
      co_return failed;
    }
  }
  const OpTrace t = begin_op(OpKind::kMetaStat);
  // Query the bstream size for this handle from every server the file's
  // layout can place bytes on, plus the owning metadata shard (which
  // validates that the handle is still live); the logical size is the
  // highest logical byte implied by any server-local size. With the
  // global layout this is the legacy all-servers fan-out; a narrow
  // per-file layout shrinks it to the file's span.
  const FileLayout& lay = layout_for(handle);
  const int owner = shards_.shard_of_handle(handle);
  std::vector<int> targets;
  for (int s = 0; s < config_->num_servers; ++s) {
    if (lay.slot_of_server(s) >= 0 || s == owner) targets.push_back(s);
  }
  auto slots = std::make_unique<std::vector<RpcSlot>>(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    RpcSlot& slot = (*slots)[i];
    slot.server = targets[i];
    slot.request.op = OpKind::kMetaStat;
    slot.request.client_node = node_;
    MetaPayload payload;
    payload.handle = handle;
    slot.request.payload = std::move(payload);
    slot.request.trace_id = t.trace;
    slot.request.parent_span = t.span;
    slot.wire_bytes = request_descriptor_bytes(
        slot.request, config_->list_io_bytes_per_region);
    slot.reply_bytes = expected_reply_bytes(0);
  }
  co_await rpc_all(slots.get());
  MetaResult result;
  result.handle = handle;
  std::int64_t size = 0;
  for (RpcSlot& slot : *slots) {
    // A failed slot is either a transport failure or the owning shard's
    // veto (kNotFound: the handle is no longer live).
    if (!slot.status.is_ok()) {
      result.status = slot.status;
      continue;
    }
    if (slot.reply.local_size > 0 && lay.slot_of_server(slot.server) >= 0) {
      size = std::max(
          size, lay.logical(slot.server, slot.reply.local_size - 1) + 1);
    }
  }
  result.size = size;
  finish_op(OpKind::kMetaStat, t);
  co_return result;
}

// ---- Access-list building ----------------------------------------------------

std::int64_t Client::build_access(const Request& prototype,
                                  const dl::DataloopPtr& filetype,
                                  bool with_extents,
                                  std::vector<ServerAccess>& out) const {
  assert(out.empty());
  out.resize(static_cast<std::size_t>(config_->num_servers));
  RegionRun contig;
  std::vector<RegionRun> walked;
  std::span<const RegionRun> logical;
  if (const auto* p = std::get_if<ContigPayload>(&prototype.payload)) {
    contig = RegionRun{p->offset, p->length, 1};
    logical = std::span<const RegionRun>(&contig, 1);
  } else if (const auto* p = std::get_if<ListPayload>(&prototype.payload)) {
    logical = *p->runs;
  } else if (const auto& dt = std::get<DatatypePayload>(prototype.payload);
             dt.stream_length > 0) {  // an empty window maps nothing
    dl::Cursor cursor(filetype, dt.displacement, dt.count);
    cursor.seek(dt.stream_offset);
    cursor.set_stream_limit(dt.stream_offset + dt.stream_length);
    cursor.process_runs([&](const RegionRun& run) { walked.push_back(run); });
    logical = walked;  // stream positions run within the window
  }
  std::int64_t pieces = 0;
  StripMapper mapper(layout_for(prototype.handle));
  for (const RegionRun& run : logical) {
    mapper.map_run(run, [&](int server, const RegionRun& phys,
                            std::int64_t stream_pos, std::int64_t n) {
      auto& acc = out[static_cast<std::size_t>(server)];
      if (with_extents) acc.extents.push_back({phys, stream_pos, n});
      acc.total_bytes += phys.length * phys.count;
      pieces += n;
    });
  }
  return pieces;
}

// ---- Data operations -----------------------------------------------------------

namespace {

/// A data op's request prototype; run_requests stamps the per-server rest.
template <typename Payload>
Box<Request> prototype(OpKind op, std::uint64_t handle, bool carry_data,
                       Payload payload) {
  Request request;
  request.op = op;
  request.handle = handle;
  request.carry_data = carry_data;
  request.payload = std::move(payload);
  return Box<Request>(std::move(request));
}

DatatypePayload make_datatype_payload(const dl::DataloopPtr& filetype,
                                      std::int64_t displacement,
                                      std::int64_t count,
                                      std::int64_t stream_offset,
                                      std::int64_t stream_length) {
  auto encoded = std::make_shared<std::vector<std::uint8_t>>();
  dl::encode(*filetype, *encoded);
  DatatypePayload payload{std::move(encoded), displacement,  count,
                          stream_offset,      stream_length, nullptr};
  // Descriptor integrity: the server verifies this before decoding, so a
  // corrupted-in-flight dataloop is rejected instead of decoded.
  payload.loop_crc = crc32(*payload.encoded_loop);
  return payload;
}

}  // namespace

sim::Task<Status> Client::write_contig(std::uint64_t handle,
                                       std::int64_t offset,
                                       const std::uint8_t* data,
                                       std::int64_t length) {
  return run_requests(prototype(OpKind::kContigWrite, handle, transfer_data_,
                                ContigPayload{offset, length, nullptr}),
                      {}, data, nullptr);
}

sim::Task<Status> Client::read_contig(std::uint64_t handle,
                                      std::int64_t offset, std::uint8_t* out,
                                      std::int64_t length) {
  return run_requests(prototype(OpKind::kContigRead, handle, transfer_data_,
                                ContigPayload{offset, length, nullptr}),
                      {}, nullptr, out);
}

sim::Task<Status> Client::write_list(std::uint64_t handle, ListRuns runs,
                                     const std::uint8_t* stream) {
  return run_requests(prototype(OpKind::kListWrite, handle, transfer_data_,
                                ListPayload{std::move(runs), nullptr}),
                      {}, stream, nullptr);
}

sim::Task<Status> Client::read_list(std::uint64_t handle, ListRuns runs,
                                    std::uint8_t* stream) {
  return run_requests(prototype(OpKind::kListRead, handle, transfer_data_,
                                ListPayload{std::move(runs), nullptr}),
                      {}, nullptr, stream);
}

sim::Task<Status> Client::write_list(std::uint64_t handle,
                                     std::span<const Region> regions,
                                     const std::uint8_t* stream) {
  return write_list(
      handle, std::make_shared<const std::vector<RegionRun>>(runs_of(regions)),
      stream);
}

sim::Task<Status> Client::read_list(std::uint64_t handle,
                                    std::span<const Region> regions,
                                    std::uint8_t* stream) {
  return read_list(
      handle, std::make_shared<const std::vector<RegionRun>>(runs_of(regions)),
      stream);
}

sim::Task<Status> Client::write_datatype(
    std::uint64_t handle, dl::DataloopPtr filetype, std::int64_t displacement,
    std::int64_t count, std::int64_t stream_offset, std::int64_t stream_length,
    const std::uint8_t* stream) {
  return run_requests(
      prototype(OpKind::kDatatypeWrite, handle, transfer_data_,
                make_datatype_payload(filetype, displacement, count,
                                      stream_offset, stream_length)),
      Box<dl::DataloopPtr>(filetype), stream, nullptr);
}

sim::Task<Status> Client::read_datatype(
    std::uint64_t handle, dl::DataloopPtr filetype, std::int64_t displacement,
    std::int64_t count, std::int64_t stream_offset, std::int64_t stream_length,
    std::uint8_t* stream) {
  return run_requests(
      prototype(OpKind::kDatatypeRead, handle, transfer_data_,
                make_datatype_payload(filetype, displacement, count,
                                      stream_offset, stream_length)),
      Box<dl::DataloopPtr>(filetype), nullptr, stream);
}

// ---- Request fan-out -------------------------------------------------------------

sim::Task<Status> Client::run_requests(Box<Request> prototype_box,
                                       Box<dl::DataloopPtr> filetype_box,
                                       const std::uint8_t* write_stream,
                                       std::uint8_t* read_stream) {
  Request prototype = prototype_box.take();
  const dl::DataloopPtr filetype = filetype_box.take();
  // Carry the file's per-file layout (if any) so every data server can
  // rebuild the striping without consulting a metadata shard.
  stamp_layout(prototype);
  // The servers' own door check, made before mapping: a request it
  // refuses is never sent.
  if (const RequestCheck check =
          check_request(prototype, filetype.get(), config_->num_servers);
      !check.ok()) {
    co_return invalid_argument(check.error);
  }
  ++stats_.io_ops;
  const bool is_write = is_data_write(prototype.op);
  // Extents are read only to move bytes (gather, scatter) and by
  // write-behind (staging, read-overlap checks); a timing-only op without
  // write-behind needs just the per-server totals.
  const bool with_extents =
      write_behind_enabled() ||
      (transfer_data_ &&
       (is_write ? write_stream != nullptr : read_stream != nullptr));
  std::vector<ServerAccess> access;
  const std::int64_t pieces =
      build_access(prototype, filetype, with_extents, access);
  stats_.regions_client += static_cast<std::uint64_t>(pieces);
  const SimTime client_cpu_cost =
      (filetype ? config_->client.dataloop_cost_per_region
                : config_->client.flatten_cost_per_region) *
      pieces;

  std::int64_t total_bytes = 0;
  for (const ServerAccess& acc : access) total_bytes += acc.total_bytes;

  // Read-after-write overlap: a read touching staged bytes first drains
  // that server's whole buffer, so the bytes it returns are the bytes the
  // program wrote (the byte-identical-vs-oracle contract).
  if (!is_write && write_behind_enabled() && wb_total_bytes_ > 0) {
    for (int s = 0; s < config_->num_servers; ++s) {
      const ServerAccess& acc = access[static_cast<std::size_t>(s)];
      if (acc.total_bytes == 0) continue;
      if (!wb_read_overlaps(s, prototype.handle, acc)) continue;
      const Status flushed = co_await wb_flush_server(
          s, &Client::wb_flushes_read_overlap_, /*charge_prep=*/true);
      if (!flushed.is_ok()) co_return flushed;
    }
  }

  // Root span + latency histogram for the whole operation; one rpc child
  // span per involved server, which the network and server layers parent
  // their own spans under (via the request's trace fields).
  const OpTrace op_trace = begin_op(prototype.op);
  if (obs_ != nullptr) obs_->spans.set_value(op_trace.span, total_bytes);

  // Client-side processing: building the per-server job/access lists plus
  // one buffer copy to segment (write) or reassemble (read) the stream.
  obs::SpanId prep_span = 0;
  if (obs_ != nullptr) {
    prep_span = obs_->spans.begin("client_prep", node_, sched_->now(),
                                  op_trace.span, op_trace.trace,
                                  obs::Phase::kClientPrep);
  }
  co_await sched_->delay(
      config_->client.issue_overhead + client_cpu_cost +
      transfer_time(static_cast<std::uint64_t>(total_bytes),
                    config_->client.memcpy_bandwidth_bytes_per_s));
  if (obs_ != nullptr) obs_->spans.end(prep_span, sched_->now());

  // Write-behind absorb: instead of sending per-server RPCs now, stage the
  // already-clipped physical runs into the per-server buffers and return.
  // The op completes immediately after the client-side prep charge; network
  // and server costs are paid later, by flushes, in kBatchWrite envelopes.
  if (is_write && write_behind_enabled()) {
    for (int s = 0; s < config_->num_servers; ++s) {
      const ServerAccess& acc = access[static_cast<std::size_t>(s)];
      if (acc.total_bytes == 0) continue;
      for (const ServerAccess::Extent& e : acc.extents) {
        const std::uint8_t* src = (transfer_data_ && write_stream != nullptr)
                                      ? write_stream + e.stream_at
                                      : nullptr;
        // A region of a strided extent is one piece; a lone region may
        // stand for several merged back-to-back ones.
        const std::int64_t n = e.phys.count;
        for (std::int64_t k = 0; k < n; ++k) {
          wb_stage_run(s, prototype.handle,
                       Region{e.phys.offset + k * e.phys.stride,
                              e.phys.length},
                       src == nullptr ? nullptr : src + k * e.phys.length,
                       n == 1 ? e.pieces : 1);
        }
      }
      stats_.accessed_bytes += static_cast<std::uint64_t>(acc.total_bytes);
    }
    ++wb_staged_ops_;
    wb_staged_bytes_ += static_cast<std::uint64_t>(total_bytes);

    // High watermark: any server whose staging buffer crossed the limit
    // flushes now, inline, so a hot server cannot grow its buffer without
    // bound while cold servers stay staged.
    Status staged = Status::ok();
    for (int s = 0; s < config_->num_servers; ++s) {
      if (static_cast<std::size_t>(s) >= wb_.size()) break;
      if (wb_[static_cast<std::size_t>(s)].bytes <
          config_->client.write_behind_bytes) {
        continue;
      }
      const Status flushed =
          co_await wb_flush_server(s, &Client::wb_flushes_watermark_,
                                   /*charge_prep=*/true);
      if (!flushed.is_ok() && staged.is_ok()) staged = flushed;
    }
    finish_op(prototype.op, op_trace);
    co_return staged;
  }

  // Build one RpcSlot per involved server. Start at this rank's "home"
  // server and walk the ring: staggering the per-client server order
  // spreads first-request load and prevents every server serving clients
  // in the same order (which would convoy client flows through the shared
  // links).
  const int nservers = config_->num_servers;
  auto slots = std::make_unique<std::vector<RpcSlot>>();
  // One slot per touched server, reserved exactly: the drivers hold
  // pointers into the vector, so it must never reallocate.
  slots->reserve(static_cast<std::size_t>(
      std::count_if(access.begin(), access.end(),
                    [](const ServerAccess& a) { return a.total_bytes != 0; })));
  for (int i = 0; i < nservers; ++i) {
    const int s = (rank_ + i) % nservers;
    const ServerAccess& acc = access[static_cast<std::size_t>(s)];
    if (acc.total_bytes == 0) continue;

    RpcSlot slot;
    slot.server = s;
    slot.home = s;
    slot.request = prototype;
    slot.request.client_node = node_;
    // Each per-server request is its own replay-protected logical op:
    // the sequence stays fixed across retry attempts.
    if (is_write) slot.request.op_seq = ++op_seq_;

    if (obs_ != nullptr) {
      slot.rpc_span = obs_->spans.begin("rpc", node_, sched_->now(),
                                        op_trace.span, op_trace.trace);
      obs_->spans.set_value(slot.rpc_span, acc.total_bytes);
      slot.request.trace_id = op_trace.trace;
      slot.request.parent_span = slot.rpc_span;
    }

    // Segment outgoing data for this server, in its stream order, and
    // stamp its CRC so the server can reject in-flight corruption.
    if (is_write && transfer_data_ && write_stream != nullptr) {
      auto buffer = std::make_shared<std::vector<std::uint8_t>>(
          static_cast<std::size_t>(acc.total_bytes));
      std::uint8_t* at = buffer->data();
      for (const ServerAccess::Extent& e : acc.extents) {
        // Stream-contiguous: the extent's regions are one block of bytes.
        const auto len = static_cast<std::size_t>(e.phys.length * e.phys.count);
        std::memcpy(at, write_stream + e.stream_at, len);
        at += len;
      }
      slot.request.payload_crc = crc32(*buffer);
      slot.request.has_payload_crc = true;
      std::visit([&](auto& payload) {
        if constexpr (requires { payload.data; }) payload.data = buffer;
      }, slot.request.payload);
    }

    const std::uint64_t descriptor = request_descriptor_bytes(
        slot.request, config_->list_io_bytes_per_region);
    slot.wire_bytes =
        descriptor + (is_write ? static_cast<std::uint64_t>(acc.total_bytes)
                               : 0);
    slot.reply_bytes = expected_reply_bytes(is_write ? 0 : acc.total_bytes);
    ++stats_.requests_sent;
    stats_.request_bytes += descriptor;
    stats_.accessed_bytes += static_cast<std::uint64_t>(acc.total_bytes);
    slots->push_back(std::move(slot));
  }

  // Scatter one server's gathered bytes back into the stream buffer. The
  // access list is indexed by the slot's HOME server: a failover read may
  // have been answered by a replica, but the bytes are the home strips'.
  auto scatter = [&](const RpcSlot& slot) {
    const ServerAccess& acc = access[static_cast<std::size_t>(slot.home)];
    const std::uint8_t* at = slot.reply.data->data();
    for (const ServerAccess::Extent& e : acc.extents) {
      const auto len = static_cast<std::size_t>(e.phys.length * e.phys.count);
      std::memcpy(read_stream + e.stream_at, at, len);
      at += len;
    }
  };

  // One concurrent RPC driver per server, each with its own retry loop (a
  // straggler or outage on one server must not stall retries to the
  // others); join, then validate and scatter. Under replication, writes
  // fan out to every replica of their home server and join at write
  // quorum (laggard copies finish in the background), and reads walk the
  // replica ring on failure.
  if (is_write && effective_replication() > 1) {
    sim::WaitGroup wg(*sched_);
    std::vector<std::shared_ptr<QuorumGroup>> groups;
    groups.reserve(slots->size());
    for (RpcSlot& slot : *slots) {
      wg.add(1);
      groups.push_back(quorum_spawn(slot, wg));
      // The replica drivers own the rpc spans now (a laggard may outlive
      // this frame); ending span 0 below is a no-op.
      slot.rpc_span = 0;
    }
    co_await wg.wait();
    for (std::size_t i = 0; i < groups.size(); ++i) {
      quorum_outcome(*groups[i], (*slots)[i]);
    }
  } else {
    co_await rpc_all(slots.get());
  }

  Status result = Status::ok();
  for (RpcSlot& slot : *slots) {
    if (obs_ != nullptr) obs_->spans.end(slot.rpc_span, sched_->now());
    if (!slot.status.is_ok()) {
      if (result.is_ok()) result = slot.status;
      continue;
    }
    const ServerAccess& acc = access[static_cast<std::size_t>(slot.home)];
    const bool scatters = !is_write && read_stream != nullptr &&
                          transfer_data_ && slot.reply.data;
    // A reply whose data is not exactly the bytes it claims would make
    // scatter read past the buffer: refuse it like a wrong byte count.
    if (slot.reply.bytes != acc.total_bytes ||
        (scatters && slot.reply.data->size() !=
                         static_cast<std::size_t>(acc.total_bytes))) {
      if (result.is_ok()) result = internal_error("server byte count mismatch");
      continue;
    }
    if (scatters) scatter(slot);
  }
  finish_op(prototype.op, op_trace);
  co_return result;
}

// ---- Write-behind staging ---------------------------------------------------
//
// Per-server buffers hold already-clipped PHYSICAL runs keyed by
// (handle, physical offset) in a std::map, so flush order — and therefore
// the whole event sequence — is deterministic. Staging merges overlapping
// and adjacent runs in arrival order (new data overwrites old), and a flush
// ships the buffer as one kBatchWrite envelope whose sub-ops each carry
// their own op_seq + CRC: the server's idempotent-replay window then applies
// each coalesced write exactly once even when the envelope is retried.

sim::Task<Status> Client::flush_write_behind() {
  co_return co_await wb_flush_all(&Client::wb_flushes_explicit_);
}

void Client::wb_stage_run(int server, std::uint64_t handle, Region phys,
                          const std::uint8_t* src, std::int64_t pieces) {
  if (phys.length <= 0) return;
  if (wb_.size() < static_cast<std::size_t>(config_->num_servers)) {
    wb_.resize(static_cast<std::size_t>(config_->num_servers));
  }
  WbServerBuf& buf = wb_[static_cast<std::size_t>(server)];

  std::int64_t new_lo = phys.offset;
  std::int64_t new_hi = phys.end();

  // Find the first existing run that could touch [lo, hi]: step back one if
  // the previous same-handle run reaches (or abuts) our start.
  auto it = buf.runs.lower_bound({handle, new_lo});
  if (it != buf.runs.begin()) {
    auto prev = std::prev(it);
    if (prev->first.first == handle &&
        prev->first.second + prev->second.length >= new_lo) {
      it = prev;
    }
  }

  // Absorb every run overlapping or adjacent to the new one. Old data is
  // kept (copied into the merged buffer first); the new bytes land last so
  // arrival order wins on overlap.
  std::vector<std::pair<std::int64_t, WbRun>> absorbed;
  std::uint64_t absorbed_ops = 0;
  while (it != buf.runs.end() && it->first.first == handle &&
         it->first.second <= new_hi) {
    new_lo = std::min(new_lo, it->first.second);
    new_hi = std::max(new_hi, it->first.second + it->second.length);
    buf.bytes -= it->second.length;
    wb_total_bytes_ -= it->second.length;
    if (it->second.data) {
      absorbed.emplace_back(it->first.second, std::move(it->second));
    }
    ++absorbed_ops;
    it = buf.runs.erase(it);
  }

  WbRun merged;
  merged.length = new_hi - new_lo;
  if (src != nullptr) {
    merged.data = std::make_shared<std::vector<std::uint8_t>>(
        static_cast<std::size_t>(merged.length));
    for (const auto& [off, old] : absorbed) {
      std::memcpy(merged.data->data() + (off - new_lo), old.data->data(),
                  static_cast<std::size_t>(old.length));
    }
    std::memcpy(merged.data->data() + (phys.offset - new_lo), src,
                static_cast<std::size_t>(phys.length));
  }
  buf.bytes += merged.length;
  wb_total_bytes_ += merged.length;
  buf.runs.emplace(std::make_pair(handle, new_lo), std::move(merged));

  wb_coalesced_ += absorbed_ops + static_cast<std::uint64_t>(pieces - 1);
}

bool Client::wb_read_overlaps(int server, std::uint64_t handle,
                              const ServerAccess& acc) const {
  if (static_cast<std::size_t>(server) >= wb_.size()) return false;
  const WbServerBuf& buf = wb_[static_cast<std::size_t>(server)];
  if (buf.runs.empty()) return false;
  for (const ServerAccess::Extent& e : acc.extents) {
    const RegionRun& rows = e.phys;
    // Staged runs that start before the extent ends, from the one that
    // reaches its first byte (if any): each one overlaps the extent when
    // some region of it ends past the staged run's start and begins before
    // its end.
    auto it = buf.runs.lower_bound({handle, rows.offset});
    if (it != buf.runs.begin() && std::prev(it)->first.first == handle) --it;
    for (; it != buf.runs.end() && it->first.first == handle &&
           it->first.second < rows.end();
         ++it) {
      const std::int64_t lo = it->first.second;
      const std::int64_t hi = lo + it->second.length;
      // First region ending past lo: ceil((lo - offset - length + 1) / stride).
      std::int64_t k = 0;
      if (lo >= rows.offset + rows.length) {
        k = (lo - rows.offset - rows.length) / rows.stride + 1;
      }
      if (k < rows.count && rows.offset + k * rows.stride < hi) return true;
    }
  }
  return false;
}

sim::Task<Status> Client::wb_flush_server(int server, FlushReason reason,
                                          bool charge_prep) {
  if (static_cast<std::size_t>(server) >= wb_.size()) co_return Status::ok();
  WbServerBuf& buf = wb_[static_cast<std::size_t>(server)];
  if (buf.runs.empty()) co_return Status::ok();

  // Detach the buffer before the first co_await: writes issued while this
  // flush is in flight stage into a fresh buffer and ride the next flush.
  std::map<std::pair<std::uint64_t, std::int64_t>, WbRun> runs;
  runs.swap(buf.runs);
  const std::int64_t flush_bytes = buf.bytes;
  buf.bytes = 0;
  wb_total_bytes_ -= flush_bytes;

  ++(this->*reason);
  if (obs_ != nullptr) {
    wb_batch_subops_->record(static_cast<std::int64_t>(runs.size()));
  }

  // The flush is its own root trace: staged writes already closed their op
  // spans, so deferred network/server time is attributed to client_flush.
  obs::SpanId flush_span = 0;
  std::uint64_t trace = 0;
  const SimTime flush_start = sched_->now();
  if (obs_ != nullptr) {
    trace = obs_->spans.new_trace();
    flush_span = obs_->spans.begin("client_flush", node_, flush_start, 0,
                                   trace, obs::Phase::kClientFlush);
    obs_->spans.set_value(flush_span, flush_bytes);
  }

  RpcSlot slot;
  slot.server = server;
  slot.request.op = OpKind::kBatchWrite;
  slot.request.client_node = node_;
  slot.request.carry_data = transfer_data_;
  slot.request.trace_id = trace;
  slot.request.parent_span = flush_span;

  BatchPayload batch;
  batch.sub_ops.reserve(runs.size());
  for (auto& [key, run] : runs) {
    BatchSubOp sub;
    sub.handle = key.first;
    sub.offset = key.second;
    sub.length = run.length;
    sub.data = std::move(run.data);
    // Each sub-op is its own replay-protected logical write; the sequence
    // stays fixed across envelope retries so the server dedups per sub-op.
    sub.op_seq = ++op_seq_;
    if (sub.data) {
      sub.payload_crc = crc32(*sub.data);
      sub.has_payload_crc = true;
    }
    batch.sub_ops.push_back(std::move(sub));
  }
  slot.request.payload = std::move(batch);

  const std::uint64_t descriptor = request_descriptor_bytes(
      slot.request, config_->list_io_bytes_per_region);
  slot.wire_bytes = descriptor + static_cast<std::uint64_t>(flush_bytes);
  slot.reply_bytes = expected_reply_bytes(0);
  ++stats_.requests_sent;
  stats_.request_bytes += descriptor;

  if (charge_prep) {
    // Issue overhead plus one staging-buffer copy into the wire buffer.
    // wb_flush_all charges a single combined prep instead.
    co_await sched_->delay(
        config_->client.issue_overhead +
        transfer_time(static_cast<std::uint64_t>(flush_bytes),
                      config_->client.memcpy_bandwidth_bytes_per_s));
  }

  if (obs_ != nullptr) {
    slot.rpc_span = obs_->spans.begin("rpc", node_, sched_->now(), flush_span,
                                      trace);
    obs_->spans.set_value(slot.rpc_span, flush_bytes);
    slot.request.parent_span = slot.rpc_span;
  }
  if (effective_replication() > 1) {
    // Replicated flush: the batch envelope (same per-sub-op op_seqs and
    // CRCs on every copy) fans out to all replicas of this server and
    // completes at write quorum; laggard copies deliver in the background.
    slot.home = server;
    sim::WaitGroup wg(*sched_);
    wg.add(1);
    auto group = quorum_spawn(slot, wg);
    co_await wg.wait();
    quorum_outcome(*group, slot);
    if (obs_ != nullptr) obs_->spans.end(flush_span, sched_->now());
    ++wb_batches_;
    co_return slot.status;
  }
  co_await rpc_attempts(&slot);
  if (obs_ != nullptr) {
    obs_->spans.end(slot.rpc_span, sched_->now());
    obs_->spans.end(flush_span, sched_->now());
  }
  ++wb_batches_;
  co_return slot.status;
}

sim::Fire Client::wb_flush_fire(int server, FlushReason reason, Status* out,
                                sim::WaitGroup* wg) {
  *out = co_await wb_flush_server(server, reason, /*charge_prep=*/false);
  wg->done();
}

sim::Task<Status> Client::wb_flush_all(FlushReason reason) {
  if (wb_.empty() || wb_total_bytes_ <= 0) co_return Status::ok();

  // Staggered server order, like run_requests, so concurrent clients do not
  // convoy their flush flows through the shared links in the same order.
  const int nservers = config_->num_servers;
  std::vector<int> involved;
  for (int i = 0; i < nservers; ++i) {
    const int s = (rank_ + i) % nservers;
    if (static_cast<std::size_t>(s) < wb_.size() &&
        !wb_[static_cast<std::size_t>(s)].runs.empty()) {
      involved.push_back(s);
    }
  }
  if (involved.empty()) co_return Status::ok();

  // One combined prep charge for the whole drain; per-server flushes then
  // run with charge_prep=false and overlap on the network.
  co_await sched_->delay(
      config_->client.issue_overhead +
      transfer_time(static_cast<std::uint64_t>(wb_total_bytes_),
                    config_->client.memcpy_bandwidth_bytes_per_s));

  if (involved.size() == 1) {
    co_return co_await wb_flush_server(involved[0], reason,
                                       /*charge_prep=*/false);
  }

  auto results = std::make_unique<std::vector<Status>>(involved.size());
  sim::WaitGroup wg(*sched_);
  for (std::size_t i = 0; i < involved.size(); ++i) {
    wg.add(1);
    sched_->start(wb_flush_fire(involved[i], reason, &(*results)[i], &wg));
  }
  co_await wg.wait();
  for (const Status& st : *results) {
    if (!st.is_ok()) co_return st;
  }
  co_return Status::ok();
}

void Client::wb_strip_acked(RpcSlot* slot, const Reply& reply) {
  auto* batch = std::get_if<BatchPayload>(&slot->request.payload);
  if (batch == nullptr ||
      reply.sub_acked.size() != batch->sub_ops.size()) {
    return;
  }
  std::vector<BatchSubOp> rest;
  std::uint64_t rest_bytes = 0;
  for (std::size_t i = 0; i < batch->sub_ops.size(); ++i) {
    if (reply.sub_acked[i] != 0) continue;
    rest_bytes += static_cast<std::uint64_t>(batch->sub_ops[i].length);
    rest.push_back(std::move(batch->sub_ops[i]));
  }
  if (rest.size() == batch->sub_ops.size()) return;  // nothing acked
  batch->sub_ops = std::move(rest);
  slot->wire_bytes = request_descriptor_bytes(slot->request,
                                              config_->list_io_bytes_per_region) +
                     rest_bytes;
}

void Client::note_data_loss_surfaced(const RpcSlot& slot) {
  ++data_loss_surfaced_;
  instant("data_loss", slot);
}

}  // namespace dtio::pfs
