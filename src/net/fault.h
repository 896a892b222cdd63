// Deterministic fault injection for the simulated interconnect.
//
// A FaultPlan sits on Network::send and decides, per message, whether to
// drop, duplicate, corrupt, or delay it. Decisions are driven by a single
// seeded Rng plus declarative scheduled windows ("server 3 unreachable
// from t=50ms to t=120ms"), so a chaos run replays bit-for-bit from one
// seed. The plan is payload-agnostic: bit-flips are delegated to a
// corruptor callback installed by the protocol layer, which keeps net/
// free of pfs/ dependencies and lets the corruptor copy-on-write shared
// buffers (retries must resend clean data).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/mailbox.h"

namespace dtio::net {

enum class FaultKind : std::uint8_t {
  kDrop = 0,   ///< message vanishes after transmission (lost on the wire)
  kDuplicate,  ///< a second full copy of the message is transmitted
  kCorrupt,    ///< payload bit-flip (via the installed corruptor)
  kDelay,      ///< extra delivery latency; doubles as reordering
  kOutage,     ///< dropped by a scheduled unreachability window
};

/// Per-link fault probabilities. All default to zero (clean link).
struct FaultSpec {
  double drop = 0.0;
  double duplicate = 0.0;
  double corrupt = 0.0;
  double delay = 0.0;
  /// Extra latency range for kDelay, uniform in [delay_min, delay_max].
  SimTime delay_min = 500 * kMicrosecond;
  SimTime delay_max = 5 * kMillisecond;

  [[nodiscard]] bool active() const noexcept {
    return drop > 0 || duplicate > 0 || corrupt > 0 || delay > 0;
  }
};

/// Storage-media fault probabilities for one server's ByteStore. All
/// default to zero (honest disk). Unlike FaultSpec these act *below* the
/// server — on the bytes at rest — so they model latent sector errors,
/// silent bit rot, and torn writes rather than wire faults. Draws come
/// from the server's own media RNG at write time, keeping the network
/// fault stream untouched (adding disk faults never shifts a link
/// verdict).
struct DiskFaultSpec {
  /// Per-page probability that a write leaves a silently flipped bit
  /// behind (detected only by checksum verification or a scrub).
  double bit_rot = 0.0;
  /// Per-page probability that the written page turns into a latent
  /// sector error: a later read of it fails with a typed media error.
  double sector_error = 0.0;
  /// When true, a server crash applies a deterministic prefix of each
  /// in-flight (write-back dirty) extent instead of dropping it
  /// atomically — the torn tail is detectable by checksum.
  bool torn_writes = false;

  [[nodiscard]] bool active() const noexcept {
    return bit_rot > 0 || sector_error > 0 || torn_writes;
  }
};

/// One recorded injection, for determinism assertions and debugging.
struct FaultEvent {
  SimTime time = 0;
  FaultKind kind = FaultKind::kDrop;
  int src = 0;
  int dst = 0;
  std::uint64_t tag = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Injection totals by kind, published as faults_injected_total{kind}.
struct FaultCounters {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t delayed = 0;
  std::uint64_t outage_dropped = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return dropped + duplicated + corrupted + delayed + outage_dropped;
  }
  friend bool operator==(const FaultCounters&, const FaultCounters&) = default;
};

class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed) : rng_(seed) {}
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Baseline probabilities applied to every in-scope message.
  void set_default_spec(const FaultSpec& spec) { default_ = spec; }

  /// Additional probabilities while `now` is in [from, until) on any link
  /// touching `node` (as source or destination). Probabilities combine
  /// with the default by taking the maximum per kind.
  void add_window(int node, SimTime from, SimTime until,
                  const FaultSpec& spec) {
    windows_.push_back(Window{node, from, until, spec, /*outage=*/false});
  }

  /// `node` is unreachable during [from, until): every message to or from
  /// it is dropped, deterministically (no RNG draw consumed).
  void add_outage(int node, SimTime from, SimTime until) {
    windows_.push_back(Window{node, from, until, FaultSpec{}, /*outage=*/true});
  }

  /// Degraded-node window: server `node`'s disk and CPU service times are
  /// inflated by `factor` (> 1) during [from, until) — a straggler, not a
  /// corpse. Purely declarative and RNG-free (the server queries
  /// degraded_factor() when charging service time), so adding a window
  /// neither consumes a draw nor perturbs the probabilistic fault stream;
  /// straggler scenarios replay bit-for-bit like outages.
  void add_degraded(int node, SimTime from, SimTime until, double factor) {
    degraded_.push_back(Degraded{node, from, until, factor});
  }

  /// Service-time inflation for `node` at time `now`: the max factor over
  /// matching degraded windows, 1.0 when none match. No RNG draw.
  [[nodiscard]] double degraded_factor(int node, SimTime now) const noexcept {
    double factor = 1.0;
    for (const Degraded& d : degraded_) {
      if (d.node == node && now >= d.from && now < d.until) {
        factor = std::max(factor, d.factor);
      }
    }
    return factor;
  }
  [[nodiscard]] bool has_degraded_windows() const noexcept {
    return !degraded_.empty();
  }

  /// Restrict injection to links with at least one endpoint below
  /// `max_node`. Lets chaos runs fault only client<->server links (nodes
  /// [0, num_servers)) while collective client<->client exchanges, which
  /// have no retry layer, stay clean.
  void set_scope_max_node(int max_node) noexcept { scope_max_node_ = max_node; }

  /// Payload mutator installed by the protocol layer: flip bits in `msg`'s
  /// body using `rng`, returning false when the message carries nothing
  /// corruptible (the corruption then does not count as injected).
  using Corruptor = std::function<bool(sim::Message&, Rng&)>;
  void set_corruptor(Corruptor corruptor) { corruptor_ = std::move(corruptor); }
  [[nodiscard]] bool has_corruptor() const noexcept {
    return static_cast<bool>(corruptor_);
  }

  /// Storage-media faults for server `node`'s ByteStore (see
  /// DiskFaultSpec). Declarative only: Cluster::set_fault_plan pushes the
  /// spec into the server, which drives its own seeded media RNG — the
  /// plan's network RNG is never consumed, so adding disk faults does not
  /// shift any wire fault verdict.
  void set_disk_spec(int node, const DiskFaultSpec& spec) {
    disk_specs_.push_back(DiskEntry{node, spec});
  }

  /// The media spec for `node` (zero spec when none was declared).
  [[nodiscard]] DiskFaultSpec disk_spec(int node) const noexcept {
    for (const DiskEntry& e : disk_specs_) {
      if (e.node == node) return e.spec;
    }
    return DiskFaultSpec{};
  }
  [[nodiscard]] bool has_disk_specs() const noexcept {
    return !disk_specs_.empty();
  }

  /// Record every injection in events() (off by default; chaos tests use
  /// it to assert identical sequences across same-seed runs).
  void set_log_events(bool on) noexcept { log_events_ = on; }

  /// One faults_injected_total{kind=...} row per FaultCounters field.
  static std::span<const obs::CounterRow<FaultCounters>> counter_table();
  /// Sets every counter_table() row in `registry` from counters().
  void publish_metrics(obs::MetricsRegistry& registry) const;

  /// The verdict for one message. `deliver == false` means the message is
  /// transmitted but never delivered; `duplicate_copy`, when present, is a
  /// second copy for the network to transmit (taken before any corruption,
  /// so a duplicated-then-corrupted message still gets one clean copy
  /// through — the case that exercises rejection + idempotent replay);
  /// `extra_delay` is added before delivery.
  struct Decision {
    bool deliver = true;
    SimTime extra_delay = 0;
    std::optional<sim::Message> duplicate_copy;
  };

  /// Decide the fate of `msg` (may corrupt it in place via the corruptor).
  /// Called by Network::send for every non-loopback message when a plan is
  /// attached.
  Decision apply(int src, int dst, SimTime now, sim::Message& msg);

  [[nodiscard]] const FaultCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }

 private:
  struct Window {
    int node;
    SimTime from;
    SimTime until;
    FaultSpec spec;
    bool outage;
  };
  struct Degraded {
    int node;
    SimTime from;
    SimTime until;
    double factor;
  };
  struct DiskEntry {
    int node;
    DiskFaultSpec spec;
  };

  void record(FaultKind kind, int src, int dst, SimTime now,
              std::uint64_t tag);

  Rng rng_;
  FaultSpec default_;
  std::vector<Window> windows_;
  std::vector<Degraded> degraded_;
  std::vector<DiskEntry> disk_specs_;
  int scope_max_node_ = std::numeric_limits<int>::max();
  Corruptor corruptor_;
  bool log_events_ = false;
  std::vector<FaultEvent> events_;
  FaultCounters counters_;
};

}  // namespace dtio::net
