#include "pfs/cluster.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>

#include "obs/chrome_trace.h"

namespace dtio::pfs {

namespace {

double fraction(double busy, SimTime elapsed) {
  return elapsed <= 0 ? 0.0 : busy / static_cast<double>(elapsed);
}

}  // namespace

std::vector<std::string> Cluster::node_names() const {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(config_.total_nodes()));
  for (int s = 0; s < config_.num_servers; ++s) {
    names.push_back("srv" + std::to_string(s));
  }
  for (int c = 0; c < config_.num_clients; ++c) {
    names.push_back("cli" + std::to_string(c));
  }
  return names;
}

ServerStats Cluster::cache_stats_total() const {
  // Every field is a std::uint64_t counter, so the total is a word-wise
  // sum. A field of any other type, or a new one, trips the assert.
  constexpr std::size_t kFields = 56;
  static_assert(sizeof(ServerStats) == kFields * sizeof(std::uint64_t),
                "ServerStats must stay all std::uint64_t; update kFields");
  using Words = std::array<std::uint64_t, kFields>;
  Words total{};
  std::uint64_t max_backlog = 0;
  for (const auto& server : servers_) {
    const Words words = std::bit_cast<Words>(server->stats());
    for (std::size_t i = 0; i < kFields; ++i) total[i] += words[i];
    max_backlog = std::max(max_backlog, server->stats().max_backlog);
  }
  ServerStats sum = std::bit_cast<ServerStats>(total);
  sum.max_backlog = max_backlog;  // a high-water mark, not a count
  return sum;
}

void Cluster::publish_metrics() {
  if (obs_ == nullptr) return;
  obs::MetricsRegistry& metrics = obs_->metrics;
  network_.publish_metrics(metrics);
  if (network_.fault_plan() != nullptr) {
    network_.fault_plan()->publish_metrics(metrics);
  }
  for (const auto& server : servers_) server->publish_metrics(metrics);
  for (const Client* client : clients_) client->publish_metrics(metrics);

  const SimTime elapsed = scheduler_.now();
  for (int s = 0; s < config_.num_servers; ++s) {
    metrics.gauge("server_disk_utilization", obs::label("node", s))
        .set(fraction(server(s).disk().busy_integral(), elapsed));
    metrics.gauge("server_cpu_utilization", obs::label("node", s))
        .set(fraction(server(s).cpu().busy_integral(), elapsed));
    metrics.gauge("server_tx_utilization", obs::label("node", s))
        .set(fraction(network_.tx_link(s).busy_integral(), elapsed));
    metrics.gauge("server_rx_utilization", obs::label("node", s))
        .set(fraction(network_.rx_link(s).busy_integral(), elapsed));
  }
  if (network_.fabric() != nullptr) {
    metrics.gauge("fabric_utilization")
        .set(fraction(network_.fabric()->busy_integral(), elapsed));
  }
}

// ---- Timeline sampler -------------------------------------------------------
//
// Runs on the scheduler's telemetry side-channel: callbacks consume no
// event-queue sequence numbers and are not counted in events_processed(),
// so a run with sampling attached is bit-identical to a detached run.
// Sampling stops by itself when the regular event queue drains (pending
// telemetry past the last real event never fires).

void Cluster::arm_sampler() {
  if (sampler_armed_) return;
  sampler_armed_ = true;
  sampler_last_.assign(servers_.size(), ResourceWindow{});
  sampler_last_time_ = scheduler_.now();
  schedule_next_sample();
}

void Cluster::schedule_next_sample() {
  scheduler_.schedule_telemetry(
      scheduler_.now() + obs_->config.sample_period, [this] {
        take_sample();
        if (obs_ != nullptr && obs_->config.sample_period > 0) {
          schedule_next_sample();
        }
      });
}

void Cluster::take_sample() {
  if (obs_ == nullptr) return;
  obs::Timeline& tl = obs_->timeline;
  const SimTime now = scheduler_.now();
  const auto window = static_cast<double>(now - sampler_last_time_);

  for (int s = 0; s < config_.num_servers; ++s) {
    const sim::Mailbox& mb = network_.mailbox(s);
    tl.series("queue_depth", s).push(now, static_cast<double>(mb.queued()));
    tl.series("queued_bytes", s)
        .push(now, static_cast<double>(mb.queued_bytes()));

    auto& last = sampler_last_[static_cast<std::size_t>(s)];
    const double disk = server(s).disk().busy_integral();
    const double cpu = server(s).cpu().busy_integral();
    if (window > 0) {
      tl.series("disk_util", s).push(now, (disk - last.disk) / window);
      tl.series("cpu_util", s).push(now, (cpu - last.cpu) / window);
    }
    last.disk = disk;
    last.cpu = cpu;

    // Gated on the replication knob so unreplicated exports stay
    // byte-identical: 1 while the server is in its restart resync phase.
    if (config_.replication > 1) {
      tl.series("srv_resyncing", s)
          .push(now, server(s).resyncing() ? 1.0 : 0.0);
    }

    // Gated on the scrubber knobs so default exports stay byte-identical:
    // 1 while the server's background scrub pass is walking its stores.
    if (config_.server.scrub_interval > 0 && config_.server.block_checksums) {
      tl.series("srv_scrubbing", s)
          .push(now, server(s).scrubbing() ? 1.0 : 0.0);
    }

    // Gated on the sharded-metadata knob so legacy exports stay
    // byte-identical: lock requests parked on this shard's queues.
    if (config_.meta_shards > 1 && server(s).is_meta_shard()) {
      tl.series("meta_qdepth", s)
          .push(now, static_cast<double>(server(s).meta_qdepth()));
    }

    if (const cache::BlockCache* cache = server(s).block_cache()) {
      tl.series("cache_bytes", s)
          .push(now, static_cast<double>(cache->resident_blocks()) *
                         static_cast<double>(cache->block_bytes()));
      tl.series("cache_dirty_bytes", s)
          .push(now, static_cast<double>(cache->dirty_bytes()));
    }
  }

  for (const Client* client : clients_) {
    int window_sum = 0;
    int outstanding = 0;
    int breakers_open = 0;
    for (int s = 0; s < config_.num_servers; ++s) {
      const Client::LaneHealth h = client->lane_health(s);
      window_sum += h.window;
      outstanding += h.outstanding;
      if (h.breaker != 0) ++breakers_open;
    }
    const int node = client->node_id();
    tl.series("cli_flow_window", node)
        .push(now, static_cast<double>(window_sum));
    tl.series("cli_outstanding", node)
        .push(now, static_cast<double>(outstanding));
    tl.series("cli_breakers_open", node)
        .push(now, static_cast<double>(breakers_open));
    // Gated on the knob so default-config exports stay byte-identical.
    if (client->write_behind_enabled()) {
      tl.series("cli_wb_staged_bytes", node)
          .push(now, static_cast<double>(client->write_behind_staged_bytes()));
    }
  }

  tl.series("net_inflight_bytes", -1)
      .push(now, static_cast<double>(network_.inflight_wire_bytes()));

  sampler_last_time_ = now;
}

bool Cluster::write_trace(const std::string& path) {
  if (obs_ == nullptr) return false;
  obs::ChromeTraceOptions options;
  options.node_names = node_names();
  return obs::write_chrome_trace_file(*obs_, path, options);
}

std::string Cluster::utilization_report(SimTime t0) {
  const SimTime elapsed = scheduler_.now() - t0;
  // busy_integral() covers [0, now]; utilization over a window starting at
  // t0 is approximated by attributing all busy time to the window, which
  // is exact when the cluster idled before t0 (the usual bench pattern:
  // setup is cheap, then measure).
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "utilization over %.3f sim s:\n",
                to_seconds(elapsed));
  out += line;

  double disk_max = 0, cpu_max = 0, stx_max = 0, srx_max = 0;
  double disk_sum = 0, cpu_sum = 0, stx_sum = 0, srx_sum = 0;
  for (int s = 0; s < config_.num_servers; ++s) {
    const double disk = fraction(server(s).disk().busy_integral(), elapsed);
    const double cpu = fraction(server(s).cpu().busy_integral(), elapsed);
    const double tx = fraction(network_.tx_link(s).busy_integral(), elapsed);
    const double rx = fraction(network_.rx_link(s).busy_integral(), elapsed);
    disk_max = std::max(disk_max, disk);
    cpu_max = std::max(cpu_max, cpu);
    stx_max = std::max(stx_max, tx);
    srx_max = std::max(srx_max, rx);
    disk_sum += disk;
    cpu_sum += cpu;
    stx_sum += tx;
    srx_sum += rx;
  }
  const double n = config_.num_servers;
  std::snprintf(line, sizeof line,
                "  servers: disk %.0f%% (max %.0f%%)  cpu %.0f%% (max "
                "%.0f%%)  tx %.0f%% (max %.0f%%)  rx %.0f%% (max %.0f%%)\n",
                100 * disk_sum / n, 100 * disk_max, 100 * cpu_sum / n,
                100 * cpu_max, 100 * stx_sum / n, 100 * stx_max,
                100 * srx_sum / n, 100 * srx_max);
  out += line;

  double ctx_sum = 0, crx_sum = 0, ctx_max = 0, crx_max = 0;
  for (int c = 0; c < config_.num_clients; ++c) {
    const int node = config_.client_node(c);
    const double tx = fraction(network_.tx_link(node).busy_integral(),
                               elapsed);
    const double rx = fraction(network_.rx_link(node).busy_integral(),
                               elapsed);
    ctx_sum += tx;
    crx_sum += rx;
    ctx_max = std::max(ctx_max, tx);
    crx_max = std::max(crx_max, rx);
  }
  const double m = config_.num_clients;
  std::snprintf(line, sizeof line,
                "  clients: tx %.0f%% (max %.0f%%)  rx %.0f%% (max %.0f%%)\n",
                100 * ctx_sum / m, 100 * ctx_max, 100 * crx_sum / m,
                100 * crx_max);
  out += line;

  if (network_.fabric() != nullptr) {
    std::snprintf(line, sizeof line, "  fabric:  %.0f%%\n",
                  100 * fraction(network_.fabric()->busy_integral(), elapsed));
    out += line;
  }
  return out;
}

}  // namespace dtio::pfs
