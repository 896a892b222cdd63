// The discrete-event scheduler at the heart of the simulated cluster.
//
// Events are (time, sequence) ordered; ties resolve in insertion order so
// a given program is bit-for-bit deterministic. All cross-process resumption
// (resource grants, message delivery, barrier release) goes through this
// queue rather than resuming coroutines inline, which keeps stacks shallow
// and makes event ordering the single source of truth for interleaving.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "common/units.h"
#include "sim/fire.h"
#include "sim/task.h"

namespace dtio::sim {

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Resume `h` at absolute simulated time `t` (>= now).
  void schedule_at(SimTime t, std::coroutine_handle<> h);

  /// At absolute time `t`, re-queue `h` to resume `hold` later. The
  /// first event counts like any other and the second takes a fresh
  /// sequence number when the first pops, exactly as if a coroutine woken
  /// at `t` had itself awaited delay(hold). This is how Resource hands a
  /// unit to a waiting use(hold) without a coroutine frame of its own.
  void schedule_grant(SimTime t, std::coroutine_handle<> h, SimTime hold);

  /// Run an arbitrary callback at absolute time `t`.
  void schedule_call(SimTime t, std::function<void()> fn);

  /// Telemetry side-channel: run `fn` once the simulated clock first
  /// reaches `t`, BEFORE the next regular event at or after `t`. Unlike
  /// schedule_call, telemetry callbacks consume no event-queue sequence
  /// numbers and do not count toward events_processed(), so attaching a
  /// periodic sampler leaves the simulation's event sequence and every
  /// reported event count bit-identical ("record, never perturb"). The
  /// callback MUST be a pure observer: it may read simulation state and
  /// schedule further telemetry, but never resume coroutines or schedule
  /// regular events. Pending telemetry past the last regular event never
  /// fires (the run is over; there is nothing left to observe).
  void schedule_telemetry(SimTime t, std::function<void()> fn);

  /// Awaitable pause of `dt` simulated time. dt == 0 still round-trips
  /// through the event queue, yielding to same-time events queued earlier.
  struct DelayAwaiter {
    Scheduler* sched;
    SimTime dt;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      sched->schedule_at(sched->now_ + dt, h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] DelayAwaiter delay(SimTime dt) noexcept { return {this, dt}; }

  /// Register a top-level simulated process; it starts at the current time.
  /// The scheduler owns the coroutine frame from here on.
  void spawn(Task<void> process);

  /// Start a self-destroying Fire coroutine at the current time.
  void start(Fire fire) { start_at(now_, fire); }
  /// Start a self-destroying Fire coroutine at absolute time `t` (>= now).
  void start_at(SimTime t, Fire fire) { schedule_at(t, fire.handle()); }

  /// Process events until the queue is empty, then rethrow the first
  /// exception that escaped any spawned process.
  void run();

  /// Number of processes spawned that have run to completion.
  [[nodiscard]] std::size_t processes_finished() const noexcept;
  [[nodiscard]] std::size_t processes_spawned() const noexcept {
    return processes_.size();
  }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

 private:
  /// Trivially copyable, so heap moves are plain 32-byte copies. With a
  /// coroutine `frame`, `aux` is 0 to resume it or hold + 1 for a grant
  /// (schedule_grant); without one, `aux` indexes the callback in calls_.
  struct Event {
    SimTime time;
    std::uint64_t seq;
    void* frame;
    std::uint64_t aux;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  /// (time, seq) order. Keys are unique, so any heap pops the same order.
  static bool earlier(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  struct TelemetryEvent {
    SimTime time;
    std::uint64_t seq;  ///< separate counter: never touches next_seq_
    std::function<void()> fn;
  };
  struct TelemetryLater {
    bool operator()(const TelemetryEvent& a,
                    const TelemetryEvent& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void push(SimTime t, void* frame, std::uint64_t aux);
  /// Remove and return the next event in (time, seq) order: the heap top
  /// or the lane front, whichever is earlier.
  Event pop_next();
  void run_call(std::uint64_t slot);
  void check_process_exceptions();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  /// 4-ary min-heap under earlier(): the children of slot i are slots
  /// 4i+1 .. 4i+4. Half the depth of a binary heap, and a node's four
  /// children span two cache lines.
  std::vector<Event> queue_;
  /// Same-time lane: events pushed for time now_, in push (so seq) order.
  /// Every heap event at now_ was pushed before now_ was reached, so it
  /// precedes the whole lane; the lane drains before the clock moves.
  /// Pushing for the current time, as a zero delay, a resume at delivery
  /// or a grant hand-over does, costs an append instead of a heap sift.
  std::vector<Event> lane_;
  std::size_t lane_head_ = 0;  ///< first lane_ event not yet popped
  std::vector<std::function<void()>> calls_;
  std::vector<std::uint64_t> free_calls_;  ///< slots of calls_ not pending
  std::uint64_t next_telemetry_seq_ = 0;
  std::priority_queue<TelemetryEvent, std::vector<TelemetryEvent>,
                      TelemetryLater>
      telemetry_;
  std::vector<std::coroutine_handle<Task<void>::promise_type>> processes_;
};

}  // namespace dtio::sim
