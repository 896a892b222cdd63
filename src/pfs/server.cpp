#include "pfs/server.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "common/crc32.h"
#include "common/logging.h"
#include "dataloop/cursor.h"
#include "dataloop/serialize.h"
#include "net/fault.h"
#include "pfs/applier.h"

namespace dtio::pfs {

IOServer::IOServer(sim::Scheduler& sched, net::Network& network,
                   const net::ClusterConfig& config, int server_index)
    : sched_(&sched),
      network_(&network),
      config_(&config),
      server_index_(server_index),
      layout_(config.num_servers, static_cast<std::int64_t>(config.strip_size)),
      disk_(sched, 1),
      cpu_(sched, 1),
      replay_(config.server.replay_window_entries),
      shards_(std::min(config.meta_shards, config.num_servers)) {
  store_adapter_.server = this;
  const net::ServerConfig& sc = config.server;
  // Media RNG: one seeded stream per server, salted away from the client
  // streams (clients mix with their rank, 0..num_clients) so adding disk
  // faults never perturbs any other random stream in the run.
  media_.rng = Rng(mix_seed(config.seed,
                            0xD15Cu * 0x10000u +
                                static_cast<std::uint64_t>(server_index)));
  media_.checksums = sc.block_checksums;
  media_verify_ = sc.block_checksums;
  if (sc.cache_block_bytes > 0 && sc.cache_capacity_bytes > 0) {
    cache::CacheConfig cc;
    cc.block_bytes = sc.cache_block_bytes;
    cc.capacity_bytes = sc.cache_capacity_bytes;
    cc.write_through = sc.cache_write_through;
    cc.readahead_window = sc.cache_readahead_blocks;
    cc.readahead_min_run = sc.cache_readahead_min_run;
    cc.dirty_watermark = sc.cache_dirty_watermark;
    cache_ = std::make_unique<cache::BlockCache>(cc, store_adapter_);
  }
}

void IOServer::start() { sched_->spawn(run()); }

std::span<const obs::CounterRow<ServerStats>> IOServer::counter_table() {
  using S = ServerStats;
  static constexpr obs::CounterRow<S> kRows[] = {
      {"server_requests_total", "node", &S::requests},
      {"server_disk_bytes_total", "node", &S::disk_bytes},
      {"server_subtrees_skipped_total", "node", &S::subtrees_skipped},
      {"server_pieces_pruned_total", "node", &S::pieces_pruned},
      {"server_replays_suppressed_total", "node", &S::replays_suppressed},
      {"server_crashes_total", "node", &S::crashes},
      {"server_crash_discarded_total", "node", &S::crash_discarded},
      {"server_crc_rejects_total", "node", &S::crc_rejects},
      {"server_shed_total", "reason=depth,node", &S::sheds_depth},
      {"server_shed_total", "reason=bytes,node", &S::sheds_bytes},
      {"server_cache_hits_total", "node", &S::cache_hits},
      {"server_cache_misses_total", "node", &S::cache_misses},
      {"server_cache_readahead_issued_total", "node",
       &S::cache_readahead_issued},
      {"server_cache_evictions_total", "node", &S::cache_evictions},
      {"server_cache_dirty_flushed_bytes_total", "node",
       &S::cache_dirty_flushed_bytes},
      {"server_dataloop_cache_hits_total", "node", &S::dataloop_cache_hits},
      {"server_dataloop_cache_misses_total", "node",
       &S::dataloop_cache_misses},
      {"server_resync_strips_pulled_total", "node", &S::resync_strips_pulled},
      {"server_resync_bytes_pulled_total", "node", &S::resync_bytes_pulled},
      {"server_media_errors_total", "kind=sector,node",
       &S::media_sector_errors},
      {"server_media_errors_total", "kind=bit_rot,node",
       &S::media_bit_rot_detected},
      {"server_media_errors_total", "kind=torn,node", &S::media_torn_detected},
      {"server_checksum_mismatches_total", "node", &S::checksum_mismatches},
      {"server_scrub_blocks_total", "node", &S::scrub_blocks},
      {"server_scrub_repairs_total", "node", &S::scrub_repairs},
      {"server_scrub_errors_total", "node", &S::scrub_errors},
      {"meta_ops_total", "op=create,shard", &S::meta_creates},
      {"meta_ops_total", "op=open,shard", &S::meta_opens},
      {"meta_ops_total", "op=remove,shard", &S::meta_removes},
      {"meta_ops_total", "op=stat,shard", &S::meta_stats},
      {"meta_ops_total", "op=lock,shard", &S::meta_locks},
      {"meta_ops_total", "op=unlock,shard", &S::meta_unlocks},
      {"meta_lock_waits_total", "shard", &S::lock_waits},
  };
  return kRows;
}

void IOServer::publish_metrics(obs::MetricsRegistry& registry) const {
  obs::publish_counters(registry, counter_table(), stats_, server_index_);
}

void IOServer::instant(std::string_view name, std::int64_t value,
                       obs::SpanId parent, std::uint64_t trace) {
  if (obs_ == nullptr) return;
  obs_->spans.instant(name, server_index_, sched_->now(), parent,
                      parent != 0 ? trace : 0, value);
}

void IOServer::schedule_crash(SimTime at, SimTime restart_delay) {
  sched_->schedule_call(at, [this] { crash(); });
  sched_->schedule_call(at + restart_delay, [this] { restart(); });
}

void IOServer::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;
  ++stats_.crashes;
  const std::size_t dropped = network_->mailbox(server_index_).clear_queue();
  stats_.crash_discarded += dropped;
  // Process state dies with the process: decoded-dataloop table and the
  // replay window restart cold. Namespace, bstreams, and the lock table
  // model durable storage and survive.
  loops_.clear();
  loop_index_.clear();
  replay_.clear();
  // Lock state (whole-file and striped alike) is process state too:
  // holders evaporate, and the parked waiters are stashed for
  // deterministic re-grant at restart — dropping them would strand their
  // clients, whose lock path deliberately has no retry layer.
  {
    auto parked = locks_.invalidate();
    crash_parked_.insert(crash_parked_.end(), parked.begin(), parked.end());
  }
  // The scrub loop is process state too: its coroutine will notice the
  // epoch bump and exit; restart() re-arms a fresh one.
  scrub_armed_ = false;
  scrubbing_ = false;
  if (cache_ != nullptr) {
    // The buffer cache is process memory. Write-through has nothing
    // pending; write-back loses whatever was staged but never flushed.
    std::vector<cache::IoSeg> lost_extents;
    cache::BlockCache::LostDataSink torn;
    std::uint64_t torn_bytes = 0;
    std::uint64_t torn_extents = 0;
    if (media_.spec.torn_writes) {
      // Torn writes: each in-flight dirty extent lands a random prefix of
      // its staged bytes on the medium — raw, with no checksum fix-up —
      // before the rest evaporates. 0..length inclusive, so an extent can
      // be cleanly lost or fully-applied-but-unchecksummed.
      torn = [&](const cache::IoSeg& seg, std::span<const std::uint8_t> bytes) {
        if (bytes.empty()) return;
        const auto applied = static_cast<std::int64_t>(media_.rng.next_below(
            static_cast<std::uint64_t>(seg.bytes) + 1));
        primary_bstream(seg.handle).torn_write(seg.offset, bytes, applied);
        if (applied > 0) {
          torn_bytes += static_cast<std::uint64_t>(applied);
          ++torn_extents;
        }
      };
    }
    const std::uint64_t lost = cache_->drop_all(
        config_->replication > 1 ? &lost_extents : nullptr, torn);
    stats_.cache_dirty_lost_bytes += lost;
    if (torn_extents > 0) {
      instant("torn_write", static_cast<std::int64_t>(torn_bytes));
    }
    // Replication: the lost dirty bytes never reached this server's
    // bstream, so its copy of every covered strip trails the epoch it
    // already advertised. Zero those epochs — restart resync then
    // re-pulls the whole strip from a replica peer, whose copy is
    // write-through and therefore complete.
    const auto strip_size = static_cast<std::int64_t>(config_->strip_size);
    for (const cache::IoSeg& seg : lost_extents) {
      const std::int64_t first = seg.offset / strip_size;
      const std::int64_t last = (seg.offset + seg.bytes - 1) / strip_size;
      for (std::int64_t s = first; s <= last; ++s) {
        strip_epochs_[{seg.handle, server_index_, s}] = 0;
      }
    }
    if (lost > 0) instant("cache_lost", static_cast<std::int64_t>(lost));
  }
  instant("crash", static_cast<std::int64_t>(dropped));
  DTIO_DEBUG("srv" << server_index_ << " CRASH, dropped " << dropped
                   << " queued messages");
}

void IOServer::restart() {
  if (!crashed_) return;
  crashed_ = false;
  instant("restart", 0);
  DTIO_DEBUG("srv" << server_index_ << " restart");
  if (std::min(config_->replication, config_->num_servers) > 1) {
    // Replicated restart: the outage may have left this server's copies
    // behind its peers (writes it missed, dirty write-back data the crash
    // destroyed). Refuse data ops until the resync pull settles.
    resyncing_ = true;
    sched_->spawn(resync());
  }
  // Re-grant lock waiters that were parked on the striped table when the
  // process died: in stashed (key, FIFO) order each either becomes the new
  // holder of its stripe (grant goes out now) or parks again behind the
  // waiter re-granted just before it — the shard restarts with a
  // consistent lock space and no stranded client. The grants originate
  // from the restarted process, not a pre-crash request, so they carry
  // the new epoch.
  req_epoch_ = epoch_;
  for (const auto& [key, w] : crash_parked_) {
    ++stats_.lock_regrants;
    if (locks_.acquire(key.first, key.second, w)) {
      send_reply(w.client_node, w.reply_tag, Reply{}, 0);
    }
  }
  crash_parked_.clear();
  // A crash may have torn in-flight extents; re-arm the scrubber so they
  // are found and (at replication > 1) repaired without waiting for I/O.
  maybe_arm_scrubber();
}

void IOServer::note_strip_writes(std::uint64_t handle, int primary,
                                 std::int64_t offset, std::int64_t length) {
  if (config_->replication <= 1 || length <= 0) return;
  const auto strip_size = static_cast<std::int64_t>(config_->strip_size);
  const std::int64_t first = offset / strip_size;
  const std::int64_t last = (offset + length - 1) / strip_size;
  for (std::int64_t s = first; s <= last; ++s) {
    ++strip_epochs_[{handle, primary, s}];
  }
}

bool IOServer::resync_reply_ok(const Reply& reply) const noexcept {
  const int n = config_->num_servers;
  const int r = std::min(config_->replication, n);
  const auto strip_size = static_cast<std::int64_t>(config_->strip_size);
  for (const ResyncExtent& e : reply.resync) {
    if (e.primary < 0 || e.primary >= n ||
        !layout_.holds_replica_of(server_index_, e.primary, r)) {
      return false;
    }
    // offset == strip * strip_size with strip >= 0, and no product a
    // hostile strip could overflow.
    if (e.offset < 0 || e.offset % strip_size != 0 ||
        e.offset / strip_size != e.strip) {
      return false;
    }
    if (e.length < 0 || e.length > strip_size) return false;
    if (e.data && !e.data->empty() &&
        e.data->size() != static_cast<std::size_t>(e.length)) {
      return false;
    }
  }
  return true;
}

sim::Task<void> IOServer::resync() {
  ++stats_.resyncs;
  const std::uint64_t my_epoch = epoch_;
  obs::SpanId span = 0;
  if (obs_ != nullptr) {
    span = obs_->spans.begin("server_resync", server_index_, sched_->now(), 0,
                             0, obs::Phase::kServerResync);
  }
  instant("resync_begin", 0);
  const int n = config_->num_servers;
  const int r = std::min(config_->replication, n);
  std::uint64_t pulled_strips = 0;
  std::uint64_t pulled_bytes = 0;
  // Peers sharing strips with this server: the r-1 servers before it (we
  // replicate their primaries) and the r-1 after (they replicate ours).
  std::vector<int> peers;
  for (int d = -(r - 1); d <= r - 1; ++d) {
    if (d == 0) continue;
    const int peer = ((server_index_ + d) % n + n) % n;
    if (peer != server_index_ &&
        std::find(peers.begin(), peers.end(), peer) == peers.end()) {
      peers.push_back(peer);
    }
  }
  for (const int peer : peers) {
    bool ok = false;
    const int attempts = std::max(1, config_->server.resync_pull_attempts);
    for (int attempt = 0; attempt < attempts && !ok; ++attempt) {
      // Rebuilt per attempt: extents already applied from an earlier peer
      // raised our epochs, so later peers only ship what is still stale.
      Request req;
      req.op = OpKind::kResyncPull;
      req.client_node = server_index_;
      req.reply_tag = kTagReplyBase + (++resync_reply_seq_);
      ResyncPayload payload;
      payload.requester = server_index_;
      payload.epochs.reserve(strip_epochs_.size());
      for (const auto& [key, epoch] : strip_epochs_) {
        payload.epochs.push_back(StripEpoch{std::get<0>(key), std::get<1>(key),
                                            std::get<2>(key), epoch});
      }
      req.payload = std::move(payload);
      const std::uint64_t tag = req.reply_tag;
      const std::uint64_t wire =
          config_->net.per_message_overhead_bytes +
          request_descriptor_bytes(req, config_->list_io_bytes_per_region);
      sim::Mailbox& mailbox = network_->mailbox(server_index_);
      mailbox.claim(tag);
      co_await network_->send(
          server_index_, peer,
          sim::Message(server_index_, kTagRequest, wire, std::move(req)));
      auto maybe = co_await mailbox.recv(peer, tag,
                                         config_->server.resync_pull_timeout);
      mailbox.retire(tag);
      if (crashed_ || epoch_ != my_epoch) {
        // Crashed again mid-resync: the next restart owns recovery.
        if (obs_ != nullptr) obs_->spans.end(span, sched_->now());
        co_return;
      }
      if (!maybe.has_value()) continue;  // pull timed out; retry
      Reply reply = maybe->take<Reply>();
      if (!reply.ok || !resync_reply_ok(reply)) {
        // Peer refused — typically because it is resyncing itself — or
        // sent extents this server must not apply. Give it one deadline's
        // worth of time and try again.
        co_await sched_->delay(config_->server.resync_pull_timeout);
        if (crashed_ || epoch_ != my_epoch) {
          if (obs_ != nullptr) obs_->spans.end(span, sched_->now());
          co_return;
        }
        continue;
      }
      for (ResyncExtent& ext : reply.resync) {
        auto& current = strip_epochs_[{ext.handle, ext.primary, ext.strip}];
        if (ext.epoch <= current) continue;  // an earlier peer caught us up
        Bstream& target =
            ext.primary == server_index_
                ? primary_bstream(ext.handle)
                : replica_bstream(ext.handle, ext.primary);
        if (ext.data && !ext.data->empty()) {
          target.write(ext.offset,
                       std::span<const std::uint8_t>(ext.data->data(),
                                                     ext.data->size()));
        } else {
          target.note_write(ext.offset, ext.length);
        }
        current = ext.epoch;
        ++pulled_strips;
        pulled_bytes += static_cast<std::uint64_t>(ext.length);
        ++stats_.disk_accesses;
        co_await disk_.use(disk_time(ext.length));
        if (crashed_ || epoch_ != my_epoch) {
          if (obs_ != nullptr) obs_->spans.end(span, sched_->now());
          co_return;
        }
      }
      ok = true;
    }
    if (!ok) ++stats_.resync_peers_skipped;
  }
  stats_.resync_strips_pulled += pulled_strips;
  stats_.resync_bytes_pulled += pulled_bytes;
  if (obs_ != nullptr) {
    obs_->spans.set_value(span, static_cast<std::int64_t>(pulled_bytes));
    obs_->spans.end(span, sched_->now());
  }
  resyncing_ = false;
  instant("resync_done", static_cast<std::int64_t>(pulled_bytes));
  DTIO_DEBUG("srv" << server_index_ << " resync done: " << pulled_strips
                   << " strips, " << pulled_bytes << " bytes");
  // Resync pulls are normal writes (fresh fault draws included), so the
  // store may have new pages the scrubber has not seen.
  maybe_arm_scrubber();
}

sim::Task<void> IOServer::handle_resync_pull(Request& request) {
  const auto& p = std::get<ResyncPayload>(request.payload);
  ++stats_.resync_served;
  const int r = std::min(config_->replication, config_->num_servers);
  Reply reply;
  std::int64_t wire_bytes = 0;
  std::int64_t direct_bytes = 0;  // bstream reads outside the cache
  const auto strip_size = static_cast<std::int64_t>(config_->strip_size);
  cache::AccessPlan plan;
  // Ship this server's copy of one strip. Primary strips read through the
  // cache: staged write-back dirty data overlays the bstream, so the donor
  // ships read-your-writes bytes (and pays the miss fills it causes).
  // `verified` ships the strip only if its pages verify clean.
  const auto ship = [&](std::uint64_t handle, int primary, std::int64_t strip,
                        std::uint64_t epoch, const Bstream& bs,
                        bool verified) {
    const std::int64_t begin = strip * strip_size;
    const std::int64_t end = std::min(begin + strip_size, bs.size());
    if (end <= begin) return;
    if (verified && !bs.verify_range(begin, end - begin).empty()) return;
    auto buf = std::make_shared<std::vector<std::uint8_t>>(
        static_cast<std::size_t>(end - begin));
    const std::span<std::uint8_t> out(buf->data(), buf->size());
    if (primary == server_index_ && cache_ != nullptr) {
      cache_->read(handle, begin, end - begin, out, plan);
    } else {
      bs.read(begin, out);
      direct_bytes += end - begin;
    }
    wire_bytes += end - begin;
    reply.resync.push_back(ResyncExtent{handle, primary, strip, epoch, begin,
                                        end - begin, std::move(buf)});
  };
  if (p.scoped) {
    // Verify-and-repair pull: the requester's copy of exactly these strips
    // is corrupt, so epoch comparisons are meaningless — ship any strip
    // this server holds a VERIFIED-CLEAN copy of. A strip this donor's own
    // medium also corrupted is skipped (the requester tries the next peer
    // rather than trading one bad copy for another).
    for (const StripEpoch& want : p.epochs) {
      if (!layout_.holds_replica_of(server_index_, want.primary, r)) continue;
      const Bstream* bs = want.primary == server_index_
                              ? find_bstream(want.handle)
                              : find_replica_bstream(want.handle, want.primary);
      if (bs == nullptr) continue;
      const auto eit =
          strip_epochs_.find({want.handle, want.primary, want.strip});
      ship(want.handle, want.primary, want.strip,
           eit == strip_epochs_.end() ? 0 : eit->second, *bs,
           /*verified=*/true);
    }
  } else {
    // Requester epochs by strip; an absent key means the requester has
    // never seen a write for the strip (epoch 0).
    std::map<std::tuple<std::uint64_t, int, std::int64_t>, std::uint64_t>
        theirs;
    for (const StripEpoch& e : p.epochs) {
      theirs[{e.handle, e.primary, e.strip}] = e.epoch;
    }
    for (const auto& [key, my_strip_epoch] : strip_epochs_) {
      if (my_strip_epoch == 0) continue;
      const auto& [handle, primary, strip] = key;
      // Only strips the requester also replicates can help it.
      if (!layout_.holds_replica_of(p.requester, primary, r)) continue;
      const auto it = theirs.find(key);
      if (my_strip_epoch <= (it == theirs.end() ? 0 : it->second)) continue;
      const Bstream* bs = primary == server_index_
                              ? &store_[handle]
                              : find_replica_bstream(handle, primary);
      if (bs == nullptr) continue;
      ship(handle, primary, strip, my_strip_epoch, *bs, /*verified=*/false);
    }
  }
  if (cache_ != nullptr) cache_->maybe_background_flush(plan);
  co_await charge_disk(plan, direct_bytes);
  reply.bytes = wire_bytes;
  send_reply(request.client_node, request.reply_tag, std::move(reply),
             static_cast<std::uint64_t>(wire_bytes));
}

namespace {

/// The write payload of a contig, list or datatype request; null for the
/// payloads without one.
const DataBuffer* payload_data(const Request& request) {
  return std::visit(
      [](const auto& payload) -> const DataBuffer* {
        if constexpr (requires { payload.data; }) {
          return &payload.data;
        } else {
          return nullptr;
        }
      },
      request.payload);
}

}  // namespace

bool IOServer::verify_integrity(const Request& request, Reply& reply) {
  auto fail = [&reply](std::string why) {
    reply.ok = false;
    reply.code = StatusCode::kDataLoss;
    reply.error = std::move(why);
    return false;
  };
  if (request.has_payload_crc) {
    const DataBuffer* data = payload_data(request);
    if (data != nullptr && *data && crc32(**data) != request.payload_crc) {
      return fail("write payload CRC mismatch");
    }
  }
  if (const auto* p = std::get_if<DatatypePayload>(&request.payload)) {
    // Verified BEFORE the dataloop table lookup and decode: a corrupted
    // descriptor must neither enter the table nor expand into a
    // wrong-but-valid access pattern.
    if (p->loop_crc != 0 && p->encoded_loop &&
        crc32(*p->encoded_loop) != p->loop_crc) {
      return fail("dataloop descriptor CRC mismatch");
    }
  }
  return true;
}

void IOServer::store_ack(const Request& request, const Reply& reply) {
  if (reply.code == StatusCode::kDataLoss) return;
  store_sub_ack(request.client_node, request.op_seq, reply);
}

void IOServer::store_sub_ack(int client_node, std::uint64_t op_seq,
                             const Reply& reply) {
  if (op_seq == 0) return;
  if (crashed_ || req_epoch_ != epoch_) return;  // this request's epoch died
  expire_replay_acks();
  replay_.insert(replay_key(client_node, op_seq), sched_->now(), reply);
}

void IOServer::expire_replay_acks() {
  const SimTime max_age = config_->server.replay_window_max_age;
  if (max_age <= 0) return;
  stats_.replays_expired += replay_.expire(sched_->now(), max_age);
}

bool IOServer::over_admission_bounds(const char*& reason) const {
  const net::ServerConfig& cfg = config_->server;
  const sim::Mailbox& mb = network_->mailbox(server_index_);
  if (cfg.max_queue_depth > 0 && mb.queued() >= cfg.max_queue_depth) {
    reason = "depth";
    return true;
  }
  if (cfg.max_queued_bytes > 0 && mb.queued_bytes() >= cfg.max_queued_bytes) {
    reason = "bytes";
    return true;
  }
  return false;
}

SimTime IOServer::backlog_drain_estimate() const {
  const net::ServerConfig& cfg = config_->server;
  const sim::Mailbox& mb = network_->mailbox(server_index_);
  const auto depth = static_cast<std::int64_t>(mb.queued());
  const SimTime per_request = cfg.request_overhead + cfg.disk_access_overhead;
  return scaled(depth * per_request +
                transfer_time(mb.queued_bytes(),
                              cfg.disk_bandwidth_bytes_per_s));
}

double IOServer::degraded_factor_now() const {
  const net::FaultPlan* plan = network_->fault_plan();
  if (plan == nullptr || !plan->has_degraded_windows()) return 1.0;
  return plan->degraded_factor(server_index_, sched_->now());
}

sim::Task<void> IOServer::shed_request(Box<Request> boxed, const char* reason) {
  Request request = boxed.take();
  ++stats_.requests;
  req_trace_ = request.trace_id;
  req_span_ = 0;
  req_epoch_ = epoch_;
  req_degrade_ = degraded_factor_now();
  if (obs_ != nullptr) record_queue_wait(request);
  ++(reason[0] == 'b' ? stats_.sheds_bytes : stats_.sheds_depth);
  instant("shed",
          static_cast<std::int64_t>(network_->mailbox(server_index_).queued()),
          request.parent_span, request.trace_id);
  DTIO_DEBUG("srv" << server_index_ << " SHED " << op_name(request.op)
                   << " from node " << request.client_node << " (" << reason
                   << ")");
  // Shedding is cheap by design — that is the whole point of admission
  // control: a bounded, small cost per refused request instead of an
  // unbounded queue of full-price ones.
  co_await cpu_.use(scaled(config_->server.shed_cost));
  Reply reply;
  reply.ok = false;
  reply.code = StatusCode::kOverloaded;
  reply.error = std::string("shed: queue ") + reason + " bound exceeded";
  reply.retry_after = backlog_drain_estimate();
  send_reply(request.client_node, request.reply_tag, std::move(reply), 0);
}

void IOServer::record_queue_wait(const Request& request) {
  // Retroactive: by the time the handler dequeues the request its wait is
  // already over, so the span is opened at delivery time and closed at
  // now. Parented beside server_handle (both under the client rpc span),
  // since the wait precedes the handling.
  if (request.delivered_at < 0 || sched_->now() <= request.delivered_at) return;
  const obs::SpanId q = obs_->spans.begin(
      "server_queue", server_index_, request.delivered_at,
      request.parent_span, request.trace_id, obs::Phase::kServerQueue);
  obs_->spans.end(q, sched_->now());
}

void IOServer::sample_counters() {
  // At most one sample per millisecond of simulated time: enough
  // resolution for Perfetto counter tracks, bounded volume on big runs.
  constexpr SimTime kMinInterval = 1'000'000;
  const SimTime now = sched_->now();
  if (last_sample_ >= 0 && now - last_sample_ < kMinInterval) return;

  obs_->spans.sample("queue_depth", server_index_, now,
                     static_cast<double>(
                         network_->mailbox(server_index_).queued()));
  const double disk_busy = disk_.busy_integral();
  const double cpu_busy = cpu_.busy_integral();
  if (last_sample_ >= 0 && now > last_sample_) {
    const auto window = static_cast<double>(now - last_sample_);
    obs_->spans.sample("disk_util", server_index_, now,
                       (disk_busy - last_disk_busy_) / window);
    obs_->spans.sample("cpu_util", server_index_, now,
                       (cpu_busy - last_cpu_busy_) / window);
  }
  last_sample_ = now;
  last_disk_busy_ = disk_busy;
  last_cpu_busy_ = cpu_busy;
}

void IOServer::flush_cache() {
  if (cache_ != nullptr) cache_->flush_all(nullptr);
}

const Bstream* IOServer::find_bstream(std::uint64_t handle) const {
  const auto it = store_.find(handle);
  return it == store_.end() ? nullptr : &it->second;
}

const Bstream* IOServer::find_replica_bstream(std::uint64_t handle,
                                              int primary) const {
  const auto it = replica_store_.find({handle, primary});
  return it == replica_store_.end() ? nullptr : &it->second;
}

sim::Task<void> IOServer::run() {
  sim::Mailbox& mailbox = network_->mailbox(server_index_);
  while (true) {
    sim::Message msg = *co_await mailbox.recv(sim::kAnySource, kTagRequest);
    if (crashed_) {
      // The process is down: the message was consumed off the wire but
      // nobody is listening. The client's timeout will notice.
      ++stats_.crash_discarded;
      continue;
    }
    const auto backlog = static_cast<std::uint64_t>(mailbox.queued());
    if (backlog > stats_.max_backlog) stats_.max_backlog = backlog;
    // Admission control happens at dequeue (the mailbox IS the queue):
    // when the backlog still waiting behind this request exceeds the
    // configured bound, shed rather than serve. Head-drop is deliberate —
    // the head waited longest, so its client is the most likely to have
    // timed out and retried already. Lock traffic is never shed: the
    // client lock path has no retry layer and a shed would strand it.
    // Resync pulls are recovery-critical control traffic, exempt for the
    // same reason — shedding one stalls a peer's restart for a full
    // timeout.
    const char* shed_reason = nullptr;
    if (over_admission_bounds(shed_reason)) {
      const OpKind op = msg.as<Request>().op;
      if (op != OpKind::kMetaLock && op != OpKind::kMetaUnlock &&
          op != OpKind::kResyncPull) {
        Request shed = msg.take<Request>();
        shed.delivered_at = msg.delivered_at;
        co_await shed_request(Box<Request>(std::move(shed)), shed_reason);
        continue;
      }
    }
    // Requests are handled sequentially: one CPU, one disk per server.
    Request request = msg.take<Request>();
    request.delivered_at = msg.delivered_at;
    co_await handle_request(Box<Request>(std::move(request)));
  }
}

sim::Task<void> IOServer::handle_request(Box<Request> boxed) {
  Request request = boxed.take();
  ++stats_.requests;
  DTIO_DEBUG("srv" << server_index_ << " <- " << op_name(request.op)
                   << " from node " << request.client_node);
  req_trace_ = request.trace_id;
  req_span_ = 0;
  req_epoch_ = epoch_;
  // Straggler modelling: one factor per request, sampled at entry, scales
  // every service-time charge below (decode, per-region CPU, disk).
  req_degrade_ = degraded_factor_now();
  if (req_degrade_ > 1.0) ++stats_.degraded_requests;
  if (obs_ != nullptr) {
    record_queue_wait(request);
    req_span_ = obs_->spans.begin("server_handle", server_index_,
                                  sched_->now(), request.parent_span,
                                  req_trace_);
    sample_counters();
  }
  obs::SpanId decode_span = 0;
  if (obs_ != nullptr) {
    decode_span = obs_->spans.begin("request_decode", server_index_,
                                    sched_->now(), req_span_, req_trace_,
                                    obs::Phase::kServerDecode);
  }
  co_await sched_->delay(scaled(config_->server.request_overhead));
  if (obs_ != nullptr) obs_->spans.end(decode_span, sched_->now());
  if (crashed_ || req_epoch_ != epoch_) {
    // Crashed while decoding this request: the work evaporates.
    if (obs_ != nullptr) obs_->spans.end(req_span_, sched_->now());
    co_return;
  }

  if (resyncing_) {
    // Restart resync in progress: this server's copies may still trail its
    // replica peers, so data ops are refused. Reads get a fast, typed
    // kUnavailable — the client fails over to a replica, keeping read
    // availability at 100% through the phase. Writes get kOverloaded with
    // a retry_after hint and retry HERE later: accepting a write that a
    // concurrent resync pull could then overwrite with pre-crash bytes
    // would silently diverge the copies. Peer resync pulls are refused
    // too — a copy that is itself catching up is not a donor.
    const bool is_write = is_data_write(request.op);
    const bool is_read =
        is_data_read(request.op) || request.op == OpKind::kResyncPull;
    if (is_write || is_read) {
      ++stats_.resync_refused;
      Reply reply;
      reply.ok = false;
      reply.error = "resync in progress";
      if (is_write) {
        reply.code = StatusCode::kOverloaded;
        reply.retry_after = config_->server.resync_pull_timeout;
      } else {
        reply.code = StatusCode::kUnavailable;
      }
      instant("resync_refuse", request.client_node, req_span_, req_trace_);
      send_reply(request.client_node, request.reply_tag, std::move(reply), 0);
      if (obs_ != nullptr) obs_->spans.end(req_span_, sched_->now());
      co_return;
    }
  }

  // Idempotent replay: a retried logical op whose ack is still in the
  // window is re-acknowledged (to the retry's fresh reply tag) without
  // re-applying — the first execution's effects stand.
  if (request.op_seq != 0) {
    expire_replay_acks();
    const Reply* ack =
        replay_.find(replay_key(request.client_node, request.op_seq));
    if (ack != nullptr) {
      ++stats_.replays_suppressed;
      instant("replay", request.client_node, req_span_, req_trace_);
      send_reply(request.client_node, request.reply_tag, Reply(*ack), 0);
      if (obs_ != nullptr) obs_->spans.end(req_span_, sched_->now());
      co_return;
    }
  }

  // Payload integrity: refuse corrupted-in-flight requests with a typed,
  // retryable error instead of storing garbage.
  Reply integrity;
  if (!verify_integrity(request, integrity)) {
    ++stats_.bad_requests;
    ++stats_.crc_rejects;
    instant("crc_reject", request.client_node, req_span_, req_trace_);
    send_reply(request.client_node, request.reply_tag, std::move(integrity),
               0);
    if (obs_ != nullptr) obs_->spans.end(req_span_, sched_->now());
    co_return;
  }

  // The door: one validity check for every request that names file bytes,
  // before any handler touches a store. A datatype request's dataloop is
  // obtained first; without one (absent or malformed) the check refuses it.
  dl::DataloopPtr loop;
  if (const auto* p = std::get_if<DatatypePayload>(&request.payload)) {
    loop = co_await request_loop(*p);
  }
  const RequestCheck check =
      check_request(request, loop.get(), config_->num_servers);
  if (!check.ok()) {
    reject_invalid(request, check.error);
    if (obs_ != nullptr) obs_->spans.end(req_span_, sched_->now());
    co_return;
  }

  switch (request.op) {
    case OpKind::kContigRead:
    case OpKind::kContigWrite:
    case OpKind::kListRead:
    case OpKind::kListWrite:
    case OpKind::kDatatypeRead:
    case OpKind::kDatatypeWrite:
      co_await handle_data(request, loop, check.window);
      break;
    case OpKind::kBatchWrite:
      co_await handle_batch(request);
      break;
    case OpKind::kResyncPull:
      co_await handle_resync_pull(request);
      break;
    case OpKind::kMetaLock: {
      // One lock table serves both granularities: stripe p.lock_stripe of
      // a striped byte-range lock (stripe % meta_shards routed the client
      // here), or stripe -1 — the one stripe covering the whole file — for
      // a whole-file lock. Per-stripe FIFO.
      const auto& p = std::get<MetaPayload>(request.payload);
      count_meta_op(request.op);
      if (locks_.acquire(p.handle, p.lock_stripe,
                         {request.client_node, request.reply_tag})) {
        send_reply(request.client_node, request.reply_tag, Reply{}, 0);
      } else {
        ++stats_.lock_waits;
      }
      break;
    }
    case OpKind::kMetaUnlock: {
      const auto& p = std::get<MetaPayload>(request.payload);
      count_meta_op(request.op);
      // Ownership transfers to the next parked waiter, if any. Releasing a
      // stripe invalidated by a crash is a safe no-op.
      if (auto next = locks_.release(p.handle, p.lock_stripe)) {
        send_reply(next->client_node, next->reply_tag, Reply{}, 0);
      }
      send_reply(request.client_node, request.reply_tag, Reply{}, 0);
      break;
    }
    default: {
      count_meta_op(request.op);
      Reply reply;
      handle_meta(request, reply);
      store_ack(request, reply);  // create/remove are sequenced by clients
      send_reply(request.client_node, request.reply_tag, std::move(reply), 0);
      break;
    }
  }
  if (obs_ != nullptr) obs_->spans.end(req_span_, sched_->now());
}

/// What a contig, list or datatype request's walk feeds and handle_data
/// reads: the store it acts on, its layout, and the Applier with its
/// outputs. Replica traffic (replica_of >= 0) acts AS the primary for
/// clipping and routes bytes to the (handle, primary) replica bstream,
/// bypassing the buffer cache: replica copies are the crash-durability
/// backstop, so they go write-through.
struct IOServer::DataAccess {
  /// `window` bounds the logical bytes the walk can cover; it sizes the
  /// read reply buffer.
  DataAccess(IOServer& server, const Request& request, const DataBuffer& data,
             std::int64_t window)
      : is_write(is_data_write(request.op)),
        acting(request.replica_of >= 0 ? request.replica_of
                                       : server.server_index_),
        layout(server.request_layout(request)),
        applier{layout,
                acting,
                Store{request.replica_of >= 0 ? nullptr : server.cache_.get(),
                      plan,
                      request.replica_of >= 0
                          ? server.replica_bstream(request.handle,
                                                   request.replica_of)
                          : server.primary_bstream(request.handle),
                      request.handle},
                is_write,
                request.carry_data,
                data,
                (!is_write && request.carry_data)
                    ? std::make_shared<std::vector<std::uint8_t>>()
                    : nullptr,
                (is_write && server.config_->replication > 1) ? &applied
                                                              : nullptr,
                (!is_write && server.media_verify_) ? &visited : nullptr} {
    if (applier.reply_data) {
      applier.reply_data->reserve(
          static_cast<std::size_t>(layout.max_server_bytes(window)));
    }
  }
  DataAccess(const DataAccess&) = delete;
  DataAccess& operator=(const DataAccess&) = delete;

  bool is_write;
  int acting;
  std::vector<Region> applied;
  std::vector<Region> visited;
  cache::AccessPlan plan;
  FileLayout layout;
  Applier applier;
  /// Subtrees a pruned datatype walk skipped, each one intersection probe.
  std::int64_t probes = 0;
};

sim::Task<void> IOServer::handle_batch(Request& request) {
  auto& p = std::get<BatchPayload>(request.payload);
  const std::size_t n = p.sub_ops.size();
  ++stats_.batch_requests;
  stats_.batch_sub_ops += static_cast<std::uint64_t>(n);
  // Replica envelopes carry the primary's pre-clipped physical sub-ops
  // verbatim; they land in the (handle, primary) replica bstream, cache
  // bypassed (write-through — see IOServer::DataAccess).
  const bool replica = request.replica_of >= 0;
  const int acting = replica ? request.replica_of : server_index_;
  cache::BlockCache* cache = replica ? nullptr : cache_.get();

  // The envelope itself is unsequenced (op_seq 0, so it skipped the
  // top-level replay check); each sub-op carries its own replay identity.
  // Sub-op offsets are PHYSICAL — the client pre-clipped them to this
  // server's strips — so application skips the layout walk entirely: one
  // decode charge and one region charge per coalesced run is the win over
  // per-write RPCs.
  Reply reply;
  reply.sub_acked.assign(n, 0);
  std::int64_t applied_subs = 0;
  std::int64_t applied_bytes = 0;
  std::int64_t acked_bytes = 0;
  bool crc_fail = false;
  cache::AccessPlan plan;
  expire_replay_acks();
  for (std::size_t i = 0; i < n; ++i) {
    const BatchSubOp& sub = p.sub_ops[i];
    if (sub.op_seq != 0 &&
        replay_.find(replay_key(request.client_node, sub.op_seq)) != nullptr) {
      // Already applied by an earlier attempt of this envelope (or a
      // previous envelope): re-ack without re-applying.
      reply.sub_acked[i] = 1;
      acked_bytes += sub.length;
      ++stats_.replays_suppressed;
      ++stats_.batch_subs_replayed;
      continue;
    }
    if (sub.has_payload_crc && sub.data && crc32(*sub.data) != sub.payload_crc) {
      // Leave this sub-op unacked: the retry resends it with clean data
      // while the acked sub-ops are stripped client-side.
      ++stats_.crc_rejects;
      crc_fail = true;
      continue;
    }
    const Store store{cache, plan,
                      replica ? replica_bstream(sub.handle, request.replica_of)
                              : primary_bstream(sub.handle),
                      sub.handle};
    store.write(Region{sub.offset, sub.length},
                (request.carry_data && sub.data)
                    ? std::span<const std::uint8_t>(sub.data->data(),
                                                    sub.data->size())
                    : std::span<const std::uint8_t>{});
    note_strip_writes(sub.handle, acting, sub.offset, sub.length);
    reply.sub_acked[i] = 1;
    ++applied_subs;
    applied_bytes += sub.length;
    acked_bytes += sub.length;
  }

  stats_.regions_walked += static_cast<std::uint64_t>(applied_subs);
  stats_.my_pieces += static_cast<std::uint64_t>(applied_subs);
  stats_.bytes_written += static_cast<std::uint64_t>(applied_bytes);
  co_await charge_regions(applied_subs, config_->server.per_region_cost_write);
  if (cache != nullptr) cache->maybe_background_flush(plan);
  co_await charge_disk(plan, cache != nullptr ? 0 : applied_bytes);

  // Per-sub-op acks land AFTER the charges, mirroring handle_data:
  // a crash during the disk charge must not leave acks for lost work.
  for (std::size_t i = 0; i < n; ++i) {
    const BatchSubOp& sub = p.sub_ops[i];
    if (reply.sub_acked[i] == 0 || sub.op_seq == 0) continue;
    Reply sub_ack;
    sub_ack.bytes = sub.length;
    store_sub_ack(request.client_node, sub.op_seq, sub_ack);
  }

  reply.bytes = acked_bytes;
  if (crc_fail) {
    reply.ok = false;
    reply.code = StatusCode::kDataLoss;
    reply.error = "batch sub-op payload CRC mismatch";
  }
  maybe_arm_scrubber();
  send_reply(request.client_node, request.reply_tag, std::move(reply), 0);
}

sim::Task<dl::DataloopPtr> IOServer::request_loop(const DatatypePayload& p) {
  if (!p.encoded_loop) co_return nullptr;
  const std::vector<std::uint8_t>& bytes = *p.encoded_loop;
  // verify_integrity already matched a nonzero loop_crc against the bytes.
  const std::uint32_t crc = p.loop_crc != 0 ? p.loop_crc : crc32(bytes);
  const DecodedLoop* known = find_loop(crc, bytes);
  if (known != nullptr && config_->server.dataloop_cache) {
    // The paper's S5 future-work optimisation: a cached type costs
    // nothing to reuse.
    ++stats_.dataloop_cache_hits;
    co_return known->loop;
  }
  // Decoding the shipped bytes is the only descriptor cost datatype I/O
  // pays per request. Without the knob every request pays it, though the
  // host reuses the table's loop.
  const bool fresh = known == nullptr;
  dl::DataloopPtr loop;
  std::int64_t nodes = 0;
  if (!fresh) {
    loop = known->loop;
    nodes = known->nodes;
  } else {
    try {
      loop = dl::decode(bytes);
    } catch (const std::invalid_argument&) {
      co_return nullptr;  // malformed: the door check refuses the request
    }
    nodes = loop->node_count();
  }
  ++stats_.dataloops_decoded;
  if (config_->server.dataloop_cache) ++stats_.dataloop_cache_misses;
  obs::SpanId decode_span = 0;
  if (obs_ != nullptr) {
    decode_span = obs_->spans.begin("dataloop_decode", server_index_,
                                    sched_->now(), req_span_, req_trace_,
                                    obs::Phase::kServerDecode);
    obs_->spans.set_value(decode_span, nodes);
  }
  co_await sched_->delay(
      scaled(config_->server.dataloop_decode_cost_per_node * nodes));
  if (obs_ != nullptr) obs_->spans.end(decode_span, sched_->now());
  // Entered only once charged, so with the knob on a request arriving
  // during this decode misses too.
  if (fresh) remember_loop(crc, bytes, loop, nodes);
  co_return loop;
}

const IOServer::DecodedLoop* IOServer::find_loop(
    std::uint32_t crc, const std::vector<std::uint8_t>& bytes) {
  for (auto [it, end] = loop_index_.equal_range(crc); it != end; ++it) {
    if (it->second->encoded == bytes) {
      loops_.splice(loops_.begin(), loops_, it->second);  // LRU touch
      return &loops_.front();
    }
  }
  return nullptr;
}

void IOServer::remember_loop(std::uint32_t crc,
                             const std::vector<std::uint8_t>& bytes,
                             const dl::DataloopPtr& loop, std::int64_t nodes) {
  // A concurrent miss may have entered the same bytes meanwhile.
  if (find_loop(crc, bytes) != nullptr) return;
  loops_.push_front(DecodedLoop{crc, bytes, loop, nodes});
  loop_index_.emplace(crc, loops_.begin());
  while (loops_.size() > config_->server.dataloop_cache_entries) {
    const auto victim = std::prev(loops_.end());
    for (auto [it, end] = loop_index_.equal_range(victim->crc); it != end;
         ++it) {
      if (it->second == victim) {
        loop_index_.erase(it);
        break;
      }
    }
    loops_.pop_back();
  }
}

sim::Task<void> IOServer::handle_data(Request& request,
                                      const dl::DataloopPtr& loop,
                                      std::int64_t window) {
  const DataBuffer& data = *payload_data(request);
  DataAccess access(*this, request, data, window);
  Applier& applier = access.applier;
  const bool is_write = access.is_write;
  const net::ServerConfig& cfg = config_->server;
  SimTime per_region = is_write ? cfg.per_region_cost_write
                                : cfg.per_region_cost;
  if (const auto* p = std::get_if<ContigPayload>(&request.payload)) {
    applier.apply_run(RegionRun{p->offset, p->length});
  } else if (const auto* p = std::get_if<ListPayload>(&request.payload)) {
    for (const RegionRun& r : *p->runs) applier.apply_run(r);
  } else if (const auto& dt = std::get<DatatypePayload>(request.payload);
             dt.stream_length > 0) {  // an empty window maps nothing
    // Expand the dataloop over the requested stream window. The sink feeds
    // runs straight into job/access application — partial processing
    // keeps intermediate storage bounded (here: zero) — and the Applier
    // maps each run a strip at a time. With pruned expansion (default), a
    // span filter makes the cursor skip whole subtrees whose file span
    // misses this server's strips, and its run companion keeps only the
    // leading rows of a leaf run that reach them, so the walk is
    // proportional to this server's data, not the full access; the
    // Applier's own clipping remains as the correctness backstop. The
    // stream limit bounds the window.
    dl::Cursor cursor(loop, dt.displacement, dt.count);
    cursor.seek(dt.stream_offset);
    cursor.set_stream_limit(dt.stream_offset + dt.stream_length);
    struct PruneCtx {
      const FileLayout* layout;
      int server;
    };
    PruneCtx prune_ctx{&access.layout, access.acting};
    if (cfg.pruned_expansion) {
      cursor.set_filter(
          [](const void* ctx, std::int64_t lo, std::int64_t hi) {
            const auto* c = static_cast<const PruneCtx*>(ctx);
            return c->layout->intersects_server(Region{lo, hi - lo},
                                                c->server);
          },
          &prune_ctx,
          [](const void* ctx, const RegionRun& rows, bool keep) {
            const auto* c = static_cast<const PruneCtx*>(ctx);
            return c->layout->leading_regions(rows, c->server, keep);
          });
    }
    cursor.process_runs(
        [&](const RegionRun& run) { applier.apply_run(run); });
    access.probes = cursor.subtrees_skipped();
    stats_.subtrees_skipped += static_cast<std::uint64_t>(access.probes);
    stats_.pieces_pruned +=
        static_cast<std::uint64_t>(cursor.regions_pruned());
    per_region = is_write ? cfg.per_dataloop_region_cost_write
                          : cfg.per_dataloop_region_cost;
  }

  for (const Region& reg : access.applied) {
    note_strip_writes(request.handle, access.acting, reg.offset, reg.length);
  }
  // Carried write data must be exactly the bytes the walk mapped here;
  // Applier::move_bytes stopped at the payload's end, so a short payload
  // left only the regions that fit applied.
  if (is_write && request.carry_data && data &&
      applier.my_bytes != std::ssize(*data)) {
    reject_invalid(request, "write data size differs from the mapped bytes");
    co_return;
  }
  stats_.regions_walked += static_cast<std::uint64_t>(applier.pieces);
  stats_.my_pieces += static_cast<std::uint64_t>(applier.my_pieces);
  co_await charge_regions(applier.pieces, per_region);
  if (access.probes > 0) {
    // Each pruned subtree still costs one span/stripe intersection probe.
    co_await cpu_.use(scaled(cfg.subtree_probe_cost * access.probes));
  }
  cache::BlockCache* const cache = applier.store.cache;
  if (cache != nullptr) cache->maybe_background_flush(access.plan);
  co_await charge_disk(access.plan, cache != nullptr ? 0 : applier.my_bytes);
  if (!is_write && !access.visited.empty() &&
      !co_await verify_read_media(request, access.acting,
                                  applier.store.bstream, access.visited,
                                  applier.reply_data)) {
    co_return;
  }

  const std::int64_t my_bytes = applier.my_bytes;
  (is_write ? stats_.bytes_written : stats_.bytes_read) +=
      static_cast<std::uint64_t>(my_bytes);
  Reply reply;
  reply.bytes = my_bytes;
  reply.data = std::move(applier.reply_data);
  if (!is_write && reply.data) {
    // Host-side only (zero simulated cost): lets the client detect
    // read-reply data corrupted in flight.
    reply.payload_crc = crc32(*reply.data);
    reply.has_payload_crc = true;
  }
  if (is_write) store_ack(request, reply);
  // Any data op can have advanced writes_gen (writes directly, reads via
  // background flushes of dirty victims), so the scrubber re-arm check
  // lives on the common exit path. One compare when scrubbing is off.
  maybe_arm_scrubber();
  // Read replies carry the data bytes on the wire even in timing-only
  // mode; write acks are small.
  const std::uint64_t wire_data =
      is_write ? 0 : static_cast<std::uint64_t>(my_bytes);
  send_reply(request.client_node, request.reply_tag, std::move(reply),
             wire_data);
}

void IOServer::reject_invalid(const Request& request, std::string why) {
  ++stats_.bad_requests;
  Reply reply;
  reply.ok = false;
  reply.code = StatusCode::kInvalidArgument;
  reply.error = std::move(why);
  send_reply(request.client_node, request.reply_tag, std::move(reply), 0);
}

void IOServer::count_meta_op(OpKind op) noexcept {
  // Indexed by OpKind - kMetaCreate: the six meta/lock ops are contiguous.
  static constexpr std::uint64_t ServerStats::*kByOp[] = {
      &ServerStats::meta_creates, &ServerStats::meta_opens,
      &ServerStats::meta_removes, &ServerStats::meta_stats,
      &ServerStats::meta_locks,   &ServerStats::meta_unlocks};
  ++(stats_.*
     kByOp[static_cast<int>(op) - static_cast<int>(OpKind::kMetaCreate)]);
}

void IOServer::handle_meta(Request& request, Reply& reply) {
  const auto& p = std::get<MetaPayload>(request.payload);
  // Echo a file's recorded per-file layout on a successful namespace hit;
  // the global default (servers == 0) adds nothing to the reply wire size.
  const auto echo_layout = [&reply](const meta::LayoutSpec& spec) {
    reply.layout_servers = spec.servers;
    reply.layout_strip = spec.strip;
    reply.layout_start = spec.start;
  };
  switch (request.op) {
    case OpKind::kMetaCreate: {
      if (namespace_.contains(p.path)) {
        reply.ok = false;
        reply.code = StatusCode::kAlreadyExists;
        reply.error = "already exists: " + p.path;
        break;
      }
      // The wire handle encodes this shard (seq * meta_shards + shard), so
      // any node routes handle ops without a lookup; at one shard this is
      // the legacy 1, 2, 3… sequence.
      const std::uint64_t handle =
          shards_.encode_handle(next_handle_++, server_index_);
      const meta::LayoutSpec layout =
          meta::choose_layout(*config_, p.path, p.size_hint);
      namespace_[p.path] = NamespaceEntry{handle, layout};
      live_handles_.insert(handle);
      reply.handle = handle;
      echo_layout(layout);
      break;
    }
    case OpKind::kMetaOpen: {
      const auto it = namespace_.find(p.path);
      if (it == namespace_.end()) {
        reply.ok = false;
        reply.code = StatusCode::kNotFound;
        reply.error = "no such file: " + p.path;
        break;
      }
      reply.handle = it->second.handle;
      echo_layout(it->second.layout);
      break;
    }
    case OpKind::kMetaRemove: {
      const auto it = namespace_.find(p.path);
      if (it == namespace_.end()) {
        reply.ok = false;
        reply.code = StatusCode::kNotFound;
        reply.error = "no such file: " + p.path;
        break;
      }
      live_handles_.erase(it->second.handle);
      namespace_.erase(it);
      break;
    }
    case OpKind::kMetaStat: {
      std::uint64_t handle = p.handle;
      if (handle == 0) {  // resolve by path (this shard owns the path)
        const auto it = namespace_.find(p.path);
        if (it == namespace_.end()) {
          reply.ok = false;
          reply.code = StatusCode::kNotFound;
          reply.error = "no such file: " + p.path;
          break;
        }
        handle = it->second.handle;
        echo_layout(it->second.layout);
      } else if (is_meta_shard() &&
                 shards_.shard_of_handle(handle) == server_index_ &&
                 !live_handles_.contains(handle)) {
        // Stat-by-handle reached the handle's owning shard, and the shard
        // has never issued (or has since removed) it: a typed kNotFound
        // instead of the old silent size-0 answer. Non-owner data servers
        // skip the check — they only report their local bstream size.
        reply.ok = false;
        reply.code = StatusCode::kNotFound;
        reply.error = "stale handle";
        break;
      }
      reply.handle = handle;
      const Bstream* bs = find_bstream(handle);
      reply.local_size = bs ? bs->size() : 0;
      break;
    }
    default:
      reply.ok = false;
      reply.code = StatusCode::kInvalidArgument;
      reply.error = "bad metadata op";
      break;
  }
}

Bstream& IOServer::primary_bstream(std::uint64_t handle) {
  Bstream& bs = store_[handle];
  bs.set_media(&media_);
  return bs;
}

Bstream& IOServer::replica_bstream(std::uint64_t handle, int primary) {
  Bstream& bs = replica_store_[{handle, primary}];
  bs.set_media(&media_);
  return bs;
}

IOServer::MediaCheck IOServer::check_media(
    const Bstream& target, const std::vector<Region>& visited) const {
  MediaCheck out;
  // Dedup by page across overlapping visited regions; emplace keeps the
  // first attribution, and verify_range attributes deterministically, so
  // order never matters.
  std::map<std::int64_t, MediaFault> bad_pages;
  for (const Region& phys : visited) {
    for (const Bstream::BadPage& bp :
         target.verify_range(phys.offset, phys.length)) {
      bad_pages.emplace(bp.page, bp.kind);
    }
  }
  if (bad_pages.empty()) return out;
  const auto strip_size = static_cast<std::int64_t>(config_->strip_size);
  std::set<std::int64_t> strips;
  for (const auto& [page, kind] : bad_pages) {
    switch (kind) {
      case MediaFault::kSectorError:
        ++out.sector;
        break;
      case MediaFault::kBitRot:
        ++out.rot;
        break;
      case MediaFault::kTorn:
        ++out.torn;
        break;
      default:
        break;
    }
    const std::int64_t lo = page * Bstream::kPageSize;
    const std::int64_t hi = lo + Bstream::kPageSize - 1;
    for (std::int64_t s = lo / strip_size; s <= hi / strip_size; ++s) {
      strips.insert(s);
    }
  }
  out.strips.assign(strips.begin(), strips.end());
  return out;
}

void IOServer::note_media_errors(const MediaCheck& bad, bool in_request) {
  stats_.media_sector_errors += bad.sector;
  stats_.media_bit_rot_detected += bad.rot;
  stats_.media_torn_detected += bad.torn;
  stats_.checksum_mismatches += bad.rot + bad.torn;
  instant("media_error",
          static_cast<std::int64_t>(bad.sector + bad.rot + bad.torn),
          in_request ? req_span_ : 0, req_trace_);
}

sim::Task<bool> IOServer::verify_read_media(Request& request, int primary,
                                            Bstream& target,
                                            const std::vector<Region>& visited,
                                            DataBuffer& reply_data) {
  MediaCheck bad = check_media(target, visited);
  if (!bad.any()) co_return true;
  note_media_errors(bad, /*in_request=*/true);
  const int r = std::min(config_->replication, config_->num_servers);
  if (r > 1) {
    const std::size_t wanted = bad.strips.size();
    const std::uint64_t repaired =
        co_await repair_strips(request.handle, primary, bad.strips,
                               /*in_request=*/true);
    if (crashed_ || req_epoch_ != epoch_) co_return false;  // reply suppressed
    stats_.media_repairs += repaired;
    if (repaired < wanted) {
      stats_.media_repair_failures +=
          static_cast<std::uint64_t>(wanted) - repaired;
    }
    bad = check_media(target, visited);
    if (!bad.any()) {
      // Repaired: re-gather the reply from the now-clean store, walking
      // the visited regions in their original (reply-append) order.
      // Primary reads go back through the cache so staged write-back
      // dirty data still overlays (read-your-writes); the throwaway plan
      // drops the re-read's disk accounting — the repair already charged
      // the disk for the strip rewrite.
      if (reply_data) {
        cache::AccessPlan discard;
        const Store store{primary == server_index_ ? cache_.get() : nullptr,
                          discard, target, request.handle};
        std::size_t pos = 0;
        for (const Region& phys : visited) {
          store.read(phys, std::span<std::uint8_t>(
                               reply_data->data() + pos,
                               static_cast<std::size_t>(phys.length)));
          pos += static_cast<std::size_t>(phys.length);
        }
      }
      co_return true;
    }
  }
  // Unrepairable: replication 1, or no peer held a clean copy. Surface a
  // typed, DETERMINISTIC kDataLoss — retries of this read hit the same
  // pages and produce the byte-identical message, which is what lets the
  // client's fast-fail recognise a persistent media loss (random wire
  // corruption yields varying messages and never trips it).
  ++stats_.media_data_loss;
  Reply reply;
  reply.ok = false;
  reply.code = StatusCode::kDataLoss;
  reply.error = "media fault: " + std::to_string(bad.strips.size()) +
                " bad strip(s) (sector=" + std::to_string(bad.sector) +
                " bit_rot=" + std::to_string(bad.rot) +
                " torn=" + std::to_string(bad.torn) +
                ") handle=" + std::to_string(request.handle);
  send_reply(request.client_node, request.reply_tag, std::move(reply), 0);
  co_return false;
}

sim::Task<std::uint64_t> IOServer::repair_strips(
    std::uint64_t handle, int primary, std::vector<std::int64_t> strips,
    bool in_request) {
  const std::uint64_t my_epoch = epoch_;
  const int n = config_->num_servers;
  const int r = std::min(config_->replication, n);
  // Every other holder of `primary`'s strips on the ring: the primary
  // itself (when that is not us) first — its copy is authoritative for
  // write-back dirty data — then the replica holders in ring order.
  std::vector<int> peers;
  if (primary != server_index_) peers.push_back(primary);
  for (int k = 1; k < r; ++k) {
    const int peer = ((primary + k) % n + n) % n;
    if (peer != server_index_ &&
        std::find(peers.begin(), peers.end(), peer) == peers.end()) {
      peers.push_back(peer);
    }
  }
  std::vector<std::int64_t> remaining = std::move(strips);
  std::uint64_t repaired = 0;
  for (const int peer : peers) {
    if (remaining.empty()) break;
    const int attempts = std::max(1, config_->server.resync_pull_attempts);
    for (int attempt = 0; attempt < attempts; ++attempt) {
      Request req;
      req.op = OpKind::kResyncPull;
      req.client_node = server_index_;
      req.reply_tag = kTagReplyBase + (++resync_reply_seq_);
      ResyncPayload payload;
      payload.requester = server_index_;
      payload.scoped = true;
      payload.epochs.reserve(remaining.size());
      for (const std::int64_t s : remaining) {
        const auto eit = strip_epochs_.find({handle, primary, s});
        payload.epochs.push_back(StripEpoch{
            handle, primary, s,
            eit == strip_epochs_.end() ? 0 : eit->second});
      }
      req.payload = std::move(payload);
      const std::uint64_t tag = req.reply_tag;
      const std::uint64_t wire =
          config_->net.per_message_overhead_bytes +
          request_descriptor_bytes(req, config_->list_io_bytes_per_region);
      sim::Mailbox& mailbox = network_->mailbox(server_index_);
      mailbox.claim(tag);
      co_await network_->send(
          server_index_, peer,
          sim::Message(server_index_, kTagRequest, wire, std::move(req)));
      if (crashed_ || epoch_ != my_epoch) {
        mailbox.retire(tag);
        co_return repaired;
      }
      auto maybe = co_await mailbox.recv(peer, tag,
                                         config_->server.resync_pull_timeout);
      mailbox.retire(tag);
      if (crashed_ || epoch_ != my_epoch) co_return repaired;
      if (!maybe.has_value()) continue;  // pull timed out; retry this peer
      Reply reply = maybe->take<Reply>();
      // Peer resyncing, or extents this server must not apply: move on to
      // the next peer.
      if (!reply.ok || !resync_reply_ok(reply)) break;
      for (ResyncExtent& ext : reply.resync) {
        if (!ext.data || ext.data->empty()) continue;
        Bstream& target = ext.primary == server_index_
                              ? primary_bstream(ext.handle)
                              : replica_bstream(ext.handle, ext.primary);
        target.repair_write(ext.offset,
                            std::span<const std::uint8_t>(ext.data->data(),
                                                          ext.data->size()));
        // The shipped strip embodies the donor's epoch; never regress our
        // own (the donor may trail us in epoch while still being clean).
        auto& cur = strip_epochs_[{ext.handle, ext.primary, ext.strip}];
        cur = std::max(cur, ext.epoch);
        remaining.erase(
            std::remove(remaining.begin(), remaining.end(), ext.strip),
            remaining.end());
        ++repaired;
        ++stats_.disk_accesses;
        instant("repair", ext.length, in_request ? req_span_ : 0, req_trace_);
        co_await disk_.use(disk_time(ext.length));
        if (crashed_ || epoch_ != my_epoch) co_return repaired;
      }
      break;  // got an answer; whatever it lacked, the next peer may hold
    }
  }
  co_return repaired;
}

void IOServer::maybe_arm_scrubber() {
  if (scrub_armed_ || crashed_) return;
  const net::ServerConfig& sc = config_->server;
  if (sc.scrub_interval <= 0 || !sc.block_checksums) return;
  if (media_.writes_gen == scrub_seen_gen_) return;
  scrub_armed_ = true;
  sched_->start(scrub_loop());
}

sim::Fire IOServer::scrub_loop() {
  const std::uint64_t my_epoch = epoch_;
  while (true) {
    co_await sched_->delay(config_->server.scrub_interval);
    if (crashed_ || epoch_ != my_epoch) co_return;  // crash() disarmed us
    const bool at_origin =
        scrub_segment_ == 0 &&
        scrub_unit_ == std::pair<std::uint64_t, int>{0, -1} &&
        scrub_offset_ == 0;
    if (at_origin && media_.writes_gen == scrub_seen_gen_) break;
    co_await scrub_pass(my_epoch);
    if (crashed_ || epoch_ != my_epoch) co_return;
  }
  // Quiescent at a cycle boundary: park. The write paths re-arm a fresh
  // loop on the next writes_gen advance — a regular simulation task must
  // not spin on an idle store or the sim would never drain.
  scrub_armed_ = false;
}

sim::Task<void> IOServer::scrub_pass(std::uint64_t my_epoch) {
  scrubbing_ = true;
  ++stats_.scrub_passes;
  const bool at_origin =
      scrub_segment_ == 0 &&
      scrub_unit_ == std::pair<std::uint64_t, int>{0, -1} &&
      scrub_offset_ == 0;
  if (at_origin) {
    // Snapshot at cycle start: writes landing while the cycle is in
    // flight keep writes_gen ahead of the snapshot, forcing another
    // cycle — those pages may live behind the cursor.
    scrub_cycle_gen_ = media_.writes_gen;
  }
  std::int64_t budget = config_->server.scrub_bytes_per_pass;
  if (budget <= 0) budget = std::numeric_limits<std::int64_t>::max();

  // Deterministic walk order: primary handles sorted, then the replica
  // (handle, primary) keys in their (ordered) map order.
  struct Unit {
    int segment;
    std::uint64_t handle;
    int primary;
  };
  std::vector<Unit> units;
  {
    std::vector<std::uint64_t> handles;
    handles.reserve(store_.size());
    for (const auto& [h, bs] : store_) handles.push_back(h);
    std::sort(handles.begin(), handles.end());
    for (const std::uint64_t h : handles) {
      units.push_back(Unit{0, h, server_index_});
    }
  }
  for (const auto& [key, bs] : replica_store_) {
    units.push_back(Unit{1, key.first, key.second});
  }

  const int r = std::min(config_->replication, config_->num_servers);
  for (const Unit& u : units) {
    const std::pair<std::uint64_t, int> key{
        u.handle, u.segment == 0 ? -1 : u.primary};
    if (u.segment < scrub_segment_ ||
        (u.segment == scrub_segment_ && key < scrub_unit_)) {
      continue;  // behind the cursor: this cycle already covered it
    }
    std::int64_t offset =
        (u.segment == scrub_segment_ && key == scrub_unit_) ? scrub_offset_
                                                            : 0;
    Bstream& bs = u.segment == 0 ? primary_bstream(u.handle)
                                 : replica_bstream(u.handle, u.primary);
    const int primary = u.segment == 0 ? server_index_ : u.primary;
    const std::int64_t size = bs.size();
    constexpr std::int64_t kScrubChunk = 16 * Bstream::kPageSize;
    while (offset < size) {
      const std::int64_t len = std::min(kScrubChunk, size - offset);
      std::vector<Bstream::BadPage> found = bs.verify_range(offset, len);
      const auto pages = static_cast<std::uint64_t>(
          (len + Bstream::kPageSize - 1) / Bstream::kPageSize);
      stats_.scrub_blocks += pages;
      ++stats_.disk_accesses;
      co_await disk_.use(disk_time(len));
      if (crashed_ || epoch_ != my_epoch) {
        scrubbing_ = false;
        co_return;
      }
      if (!found.empty()) {
        MediaCheck check = check_media(bs, {Region{offset, len}});
        note_media_errors(check, /*in_request=*/false);
        if (r > 1) {
          const std::size_t wanted = check.strips.size();
          const std::uint64_t repaired =
              co_await repair_strips(u.handle, primary, check.strips,
                                     /*in_request=*/false);
          if (crashed_ || epoch_ != my_epoch) {
            scrubbing_ = false;
            co_return;
          }
          stats_.scrub_repairs += repaired;
          stats_.media_repairs += repaired;
          if (repaired < wanted) {
            stats_.media_repair_failures +=
                static_cast<std::uint64_t>(wanted) - repaired;
          }
          if (repaired > 0) {
            instant("scrub_repair", static_cast<std::int64_t>(repaired));
          }
          stats_.scrub_errors += bs.verify_range(offset, len).size();
        } else {
          // Replication 1: nothing to repair from. Counted once per full
          // cycle — a quiescent store stops cycling, so a permanently bad
          // page does not inflate the counter forever.
          stats_.scrub_errors += found.size();
        }
      }
      offset += len;
      budget -= len;
      if (budget <= 0 && !(offset >= size && &u == &units.back())) {
        // Pass budget exhausted mid-walk: park the cursor (possibly at
        // this unit's end — the next pass skips an empty tail) and let
        // the next interval continue from here.
        scrub_segment_ = u.segment;
        scrub_unit_ = key;
        scrub_offset_ = offset;
        scrubbing_ = false;
        co_return;
      }
    }
  }
  // Full cycle complete: everything present at cycle start was verified.
  scrub_segment_ = 0;
  scrub_unit_ = {0, -1};
  scrub_offset_ = 0;
  scrub_seen_gen_ = scrub_cycle_gen_;
  scrubbing_ = false;
}

namespace {

/// A blocking disk charge holds the handler for setup plus this much
/// transfer; the rest drains while the reply streams out.
constexpr std::int64_t kPipelineChunk = 64 * 1024;

}  // namespace

sim::Task<void> IOServer::charge_disk(const cache::AccessPlan& plan,
                                      std::int64_t direct_bytes) {
  // Count the per-request cache traffic first, so it lands even for a
  // plan with no disk work (pure hits).
  stats_.cache_hits += plan.hits;
  stats_.cache_misses += plan.misses;
  stats_.cache_readahead_issued += plan.readahead_blocks;
  stats_.cache_evictions += plan.evictions;
  stats_.cache_dirty_flushed_bytes += plan.flushed_bytes;
  if (obs_ != nullptr) {
    const std::pair<const char*, std::uint64_t> marks[] = {
        {"cache_hit", plan.hits},
        {"cache_miss", plan.misses},
        {"cache_readahead", plan.readahead_blocks},
        {"cache_flush", plan.flushed_bytes}};
    for (const auto& [name, n] : marks) {
      if (n > 0) {
        instant(name, static_cast<std::int64_t>(n), req_span_, req_trace_);
      }
    }
  }
  const auto begin_span = [this](obs::Phase phase, std::int64_t bytes) {
    const obs::SpanId span =
        obs_->spans.begin("disk", server_index_, sched_->now(), req_span_,
                          req_trace_, phase);
    obs_->spans.set_value(span, bytes);
    return span;
  };

  // Synchronous segments — miss fills the reply is waiting on and
  // write-through stores — block the handler, typed kServerCache: this is
  // the cache-mediated portion of the request's disk time.
  std::int64_t sync_bytes = 0;
  for (const std::vector<cache::IoSeg>* segs :
       {&plan.sync_reads, &plan.sync_writes}) {
    for (const cache::IoSeg& seg : *segs) sync_bytes += seg.bytes;
  }
  stats_.disk_bytes += static_cast<std::uint64_t>(sync_bytes);
  const bool cache_span = obs_ != nullptr && sync_bytes > 0;
  const obs::SpanId sync_span =
      cache_span ? begin_span(obs::Phase::kServerCache, sync_bytes) : 0;
  for (const std::vector<cache::IoSeg>* segs :
       {&plan.sync_reads, &plan.sync_writes}) {
    for (const cache::IoSeg& seg : *segs) {
      ++stats_.disk_accesses;
      co_await disk_.use(
          scaled(disk_time(std::min(seg.bytes, kPipelineChunk))));
      drain_past_first_chunk(seg.bytes);
    }
  }
  if (cache_span) obs_->spans.end(sync_span, sched_->now());

  // Asynchronous segments — readahead prefetches and write-back flushes —
  // occupy the disk in the background; the handler (and the client) never
  // waits on them, but later requests on this disk do.
  for (const std::vector<cache::IoSeg>* segs :
       {&plan.async_reads, &plan.async_writes}) {
    for (const cache::IoSeg& seg : *segs) {
      ++stats_.disk_accesses;
      stats_.disk_bytes += static_cast<std::uint64_t>(seg.bytes);
      sched_->start(disk_drain(scaled(disk_time(seg.bytes))));
    }
  }

  // Bytes moved outside the cache: the iod streams between disk and
  // network, so the handler blocks only until the pipeline is primed.
  if (direct_bytes <= 0) co_return;
  ++stats_.disk_accesses;  // host-side tally; no simulated cost
  stats_.disk_bytes += static_cast<std::uint64_t>(direct_bytes);
  const obs::SpanId direct_span =
      obs_ != nullptr ? begin_span(obs::Phase::kServerDisk, direct_bytes) : 0;
  co_await disk_.use(
      scaled(disk_time(std::min(direct_bytes, kPipelineChunk))));
  drain_past_first_chunk(direct_bytes);
  if (obs_ != nullptr) obs_->spans.end(direct_span, sched_->now());
}

void IOServer::drain_past_first_chunk(std::int64_t bytes) {
  if (bytes <= kPipelineChunk) return;
  sched_->start(disk_drain(scaled(
      transfer_time(static_cast<std::uint64_t>(bytes - kPipelineChunk),
                    config_->server.disk_bandwidth_bytes_per_s))));
}

sim::Fire IOServer::disk_drain(SimTime hold) { co_await disk_.use(hold); }

sim::Task<void> IOServer::charge_regions(std::int64_t pieces,
                                         SimTime per_region) {
  if (pieces <= 0) co_return;
  per_region = scaled(per_region);
  obs::SpanId regions_span = 0;
  if (obs_ != nullptr) {
    regions_span = obs_->spans.begin("regions", server_index_, sched_->now(),
                                     req_span_, req_trace_,
                                     obs::Phase::kServerExpand);
    obs_->spans.set_value(regions_span, pieces);
  }
  constexpr std::int64_t kPrimeBatch = 64;  // regions walked before data flows
  const std::int64_t prime = std::min(pieces, kPrimeBatch);
  co_await cpu_.use(per_region * prime);
  if (pieces > prime) {
    sched_->start(cpu_drain(per_region * (pieces - prime)));
  }
  if (obs_ != nullptr) obs_->spans.end(regions_span, sched_->now());
}

sim::Fire IOServer::cpu_drain(SimTime hold) { co_await cpu_.use(hold); }

void IOServer::send_reply(int dst, std::uint64_t tag, Reply reply,
                          std::uint64_t wire_data_bytes) {
  if (crashed_ || req_epoch_ != epoch_) return;  // died mid-request: no reply
  sim::Message msg(server_index_, tag, kReplyHeaderBytes + wire_data_bytes,
                   std::move(reply));
  // Stamp the current request's trace so the reply's transmission span
  // parents under this server's handling span.
  msg.trace = req_trace_;
  msg.span = req_span_;
  msg.phase = static_cast<std::uint8_t>(obs::Phase::kNetReply);
  // Queued at `dst` only while the requester's claim on `tag` is live.
  msg.reply = true;
  // Replies stream in the background so the server can start the next
  // request while its tx link drains (PVFS iod overlapped I/O behaviour).
  sched_->start(send_reply_fire(dst, Box<sim::Message>(std::move(msg))));
}

sim::Fire IOServer::send_reply_fire(int dst, Box<sim::Message> message) {
  co_await network_->send(server_index_, dst, message.take());
}

}  // namespace dtio::pfs
