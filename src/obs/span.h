// Request spans: the causal skeleton of a simulated run. Every client
// operation opens a root span and allocates a trace id; the ids ride the
// request/reply protocol so servers and the network attach their own
// child spans (decode, dataloop expansion, disk, transmission) to the
// same trace. Counter samples (queue depths, utilization) share the
// collector so one export carries both tracks.
//
// Capacity is bounded with a keep-first policy: once full, new spans are
// dropped (begin() returns the null id) and `dropped()` counts them, so
// long runs degrade gracefully instead of exhausting memory while the
// front of the timeline stays intact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace dtio::obs {

/// 1-based handle into the collector; 0 means "no span" and is accepted
/// (and ignored) everywhere, so disabled paths can pass it through.
using SpanId = std::uint64_t;

/// Typed latency phase of a span, for per-request attribution: the
/// analyzer (phase.h) decomposes a client op's latency into the union of
/// its typed descendant intervals, so "p99 is 83% server queue-wait" is a
/// computed fact. kNone marks structural spans (op root, rpc, rpc_attempt,
/// server_handle) that group children but claim no time of their own.
enum class Phase : std::uint8_t {
  kNone = 0,
  kClientPrep,     ///< issue overhead + segment/reassemble processing
  kClientQueue,    ///< AIMD flow-window wait before an RPC may start
  kClientBackoff,  ///< retry backoff sleep between attempts
  kNetRequest,     ///< request transit: first byte out -> mailbox delivery
  kServerQueue,    ///< delivered to the server mailbox -> dequeued
  kServerDecode,   ///< request decode overhead + dataloop decode
  kServerExpand,   ///< region walk / dataloop expansion CPU
  kServerCache,    ///< buffer-cache synchronous disk segments (miss fills)
  kServerDisk,     ///< uncached synchronous disk charge
  kNetReply,       ///< reply transit: first byte out -> mailbox delivery
  kClientFlush,    ///< write-behind flush: batch build + staged-data memcpy
  kServerResync,   ///< restart resync: replica pull round-trips + apply
  kClientLockWait, ///< lock grant wait: request sent -> FIFO grant received
};
inline constexpr int kPhaseCount = 14;

/// Stable wire name ("server_queue", ...); "none" for kNone.
[[nodiscard]] const char* phase_name(Phase p) noexcept;

/// Inverse of phase_name; kNone for unknown names (tolerant parsing).
[[nodiscard]] Phase phase_from_name(std::string_view name) noexcept;

struct Span {
  SpanId id = 0;
  SpanId parent = 0;          ///< 0 = root
  std::uint64_t trace = 0;    ///< groups one logical request chain
  std::string name;
  int node = -1;
  SimTime start = 0;
  SimTime end = -1;           ///< -1 while open
  std::int64_t value = 0;     ///< span-specific payload (e.g. bytes)
  Phase phase = Phase::kNone; ///< typed latency phase (kNone = structural)
};

struct CounterSample {
  std::string name;
  int node = -1;
  SimTime time = 0;
  double value = 0;
};

class SpanCollector {
 public:
  explicit SpanCollector(std::size_t capacity = 1 << 20)
      : capacity_(capacity) {}

  /// Allocates a trace id for a new logical request chain.
  [[nodiscard]] std::uint64_t new_trace() noexcept { return ++trace_seq_; }

  /// Opens a span; returns 0 (and records nothing) once at capacity.
  SpanId begin(std::string_view name, int node, SimTime start,
               SpanId parent = 0, std::uint64_t trace = 0,
               Phase phase = Phase::kNone);

  /// Closes a span; id 0 and out-of-range ids are ignored.
  void end(SpanId id, SimTime end) noexcept;

  /// Records a zero-length span at `at`: a point event (crash, shed,
  /// breaker transition, ...) with `value` as its payload.
  SpanId instant(std::string_view name, int node, SimTime at, SpanId parent,
                 std::uint64_t trace, std::int64_t value);

  /// Attaches a numeric payload (bytes moved, regions walked, ...).
  void set_value(SpanId id, std::int64_t value) noexcept;

  /// Records one point of a counter time series (Perfetto counter track).
  void sample(std::string_view name, int node, SimTime time, double value);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<CounterSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Lookup by id (1-based); nullptr for 0 / dropped ids.
  [[nodiscard]] const Span* find(SpanId id) const noexcept {
    return (id == 0 || id > spans_.size()) ? nullptr : &spans_[id - 1];
  }

 private:
  std::size_t capacity_;
  std::uint64_t trace_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<CounterSample> samples_;
};

}  // namespace dtio::obs
