// Cluster: one-stop assembly of the simulated testbed — scheduler,
// interconnect, and the PVFS server fleet — configured like the paper's
// Chiba City setup by default (16 I/O servers, 64 KiB strips, fast
// ethernet). Benches and tests construct a Cluster, create Clients for
// their simulated application processes, spawn those processes, and run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "net/cost_model.h"
#include "net/fault.h"
#include "net/network.h"
#include "obs/observability.h"
#include "pfs/client.h"
#include "pfs/server.h"
#include "sim/scheduler.h"

namespace dtio::pfs {

class Cluster {
 public:
  explicit Cluster(net::ClusterConfig config)
      : config_(config),
        network_(scheduler_, config_.total_nodes(), config_.net) {
    // One seed reproduces a whole run: DTIO_SEED overrides the config so a
    // failing chaos run can be replayed without recompiling.
    config_.seed = run_seed(config_.seed);
    DTIO_INFO("cluster seed " << config_.seed << " (" << config_.num_servers
                              << " servers, " << config_.num_clients
                              << " clients)");
    servers_.reserve(static_cast<std::size_t>(config_.num_servers));
    for (int s = 0; s < config_.num_servers; ++s) {
      servers_.push_back(std::make_unique<IOServer>(scheduler_, network_,
                                                    config_, s));
      servers_.back()->start();
    }
    // Log lines produced during the run carry the simulated clock; the
    // last-constructed cluster wins if several coexist.
    set_log_sim_clock([this] { return scheduler_.now(); });
  }

  ~Cluster() { set_log_sim_clock(nullptr); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] const net::ClusterConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] IOServer& server(int index) {
    return *servers_.at(static_cast<std::size_t>(index));
  }

  /// A client for application rank `rank` (node num_servers + rank).
  /// Inherits the cluster's observability context, if attached. The
  /// cluster keeps a non-owning pointer for the timeline sampler and
  /// publish_metrics(), so clients must outlive the run (they already
  /// must: they own the running coroutines).
  [[nodiscard]] std::unique_ptr<Client> make_client(int rank) {
    auto client = std::make_unique<Client>(scheduler_, network_, config_,
                                           rank);
    if (obs_ != nullptr) client->set_observability(obs_);
    clients_.push_back(client.get());
    return client;
  }

  /// Run the simulation to completion (servers stay parked on their
  /// mailboxes; the event queue drains when all clients finish).
  void run() { scheduler_.run(); }

  /// Attach the observability context (metrics + spans) to the network,
  /// every server, and every client created afterwards. Call before
  /// make_client; nullptr detaches. Not owned — must outlive the run.
  /// When obs->config.sample_period > 0 this also arms the timeline
  /// sampler on the scheduler's telemetry side-channel — a pure observer
  /// that perturbs neither the event sequence nor events_processed().
  void set_observability(obs::Observability* obs) {
    obs_ = obs;
    network_.set_observability(obs);
    for (auto& server : servers_) server->set_observability(obs);
    if (obs != nullptr && obs->config.sample_period > 0) arm_sampler();
  }
  [[nodiscard]] obs::Observability* observability() noexcept { return obs_; }

  /// Attach a fault plan to the interconnect (nullptr detaches; not
  /// owned). A plan without a corruptor gets the protocol-aware one, so
  /// kCorrupt faults flip bits in actual request/reply payloads; a
  /// corruptor set on the plan beforehand is kept. Detached — the default
  /// — the send path pays one pointer test.
  void set_fault_plan(net::FaultPlan* plan) {
    network_.set_fault_plan(plan);
    if (plan != nullptr) {
      if (!plan->has_corruptor()) {
        plan->set_corruptor(&corrupt_message_payload);
      }
      // Storage-media faults are per-server state, not wire state: install
      // each server's DiskFaultSpec into its media context.
      if (plan->has_disk_specs()) {
        for (int s = 0; s < config_.num_servers; ++s) {
          server(s).set_disk_fault_spec(plan->disk_spec(s));
        }
      }
    }
  }

  /// Crash server `index` at simulated time `at`; it restarts
  /// `restart_delay` later with caches cold (see IOServer::schedule_crash).
  void schedule_server_crash(int index, SimTime at, SimTime restart_delay) {
    server(index).schedule_crash(at, restart_delay);
  }

  /// Host-side settle of every server's buffer cache: staged write-back
  /// data reaches the bstreams at zero simulated cost (the sim analogue of
  /// unmount). For tests comparing final file contents; no-op when the
  /// cache is off.
  void flush_caches() {
    for (auto& server : servers_) server->flush_cache();
  }

  /// Every ServerStats field summed over all servers (max_backlog is the
  /// deepest backlog any server saw).
  [[nodiscard]] ServerStats cache_stats_total() const;

  /// Display names for the trace exporter: "srv<k>" for I/O servers,
  /// "cli<k>" for client nodes.
  [[nodiscard]] std::vector<std::string> node_names() const;

  /// Writes the run's counters and final utilization gauges into the
  /// attached metrics registry; no-op when detached. Every counter is set
  /// (not added) from its owner's counter table — the network, the fault
  /// plan, every server and every client made by make_client, which must
  /// still be alive — and the gauges are disk/cpu/link busy fractions over
  /// [0, now]. Call after the run, before reading or exporting metrics.
  void publish_metrics();

  /// Export the attached observability context as a Chrome trace-event
  /// file (Perfetto-loadable). False when detached or the file won't open.
  bool write_trace(const std::string& path);

  /// Resource-utilization summary over [t0, now] — where the simulated
  /// time went: server disks, CPUs, links, and the shared fabric.
  /// Fractions of busy time; the bottleneck resource reads near 1.0.
  [[nodiscard]] std::string utilization_report(SimTime t0 = 0);

 private:
  /// Arms the periodic timeline sampler (idempotent). Samples are pushed
  /// into obs_->timeline every obs_->config.sample_period of simulated
  /// time, on the telemetry side-channel.
  void arm_sampler();
  void schedule_next_sample();
  void take_sample();

  net::ClusterConfig config_;
  sim::Scheduler scheduler_;
  net::Network network_;
  std::vector<std::unique_ptr<IOServer>> servers_;
  std::vector<Client*> clients_;  ///< registered by make_client; not owned
  obs::Observability* obs_ = nullptr;
  /// Utilization is sampled as busy_integral deltas over the last window.
  struct ResourceWindow {
    double disk = 0;
    double cpu = 0;
  };
  std::vector<ResourceWindow> sampler_last_;
  SimTime sampler_last_time_ = 0;
  bool sampler_armed_ = false;
};

}  // namespace dtio::pfs
