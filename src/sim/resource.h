// FIFO-fair counted resources: disks, NIC tx links, server CPUs, and the
// closed-form stages of the network (the fabric and each rx link).
//
// A Resource with capacity 1 serializes its users in simulated time; the
// `use(hold)` helper models the common "occupy the device for a duration"
// pattern (e.g. a 64 KiB packet occupies a tx link for bytes/bandwidth).
// use(hold) is a plain awaiter, not a coroutine: every link, CPU and disk
// hold would otherwise allocate a frame of its own.
//
// A Stage is a capacity-1 FIFO whose users never wait on the event queue:
// each books its interval up front (Stage::reserve) and learns its end
// time at once.
#pragma once

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>

#include "common/units.h"
#include "sim/scheduler.h"

namespace dtio::sim {

class Resource {
 public:
  Resource(Scheduler& sched, std::size_t capacity = 1)
      : sched_(&sched), capacity_(capacity) {
    assert(capacity >= 1);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  struct AcquireAwaiter {
    Resource* res;
    bool await_ready() const noexcept {
      if (res->in_use_ < res->capacity_ && res->waiters_.empty()) {
        res->note_usage_change(+1);
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      res->waiters_.push_back(Waiter{h, kNoHold});
    }
    void await_resume() const noexcept {}
  };

  /// co_await res.acquire(); ... res.release();
  [[nodiscard]] AcquireAwaiter acquire() noexcept { return {this}; }

  /// Release one unit. If a waiter exists, ownership transfers to it (the
  /// waiter resumes through the event queue at the current time; a
  /// use(hold) waiter's resumption re-queues it `hold` later).
  void release() {
    assert(in_use_ > 0);
    if (!waiters_.empty()) {
      const Waiter w = waiters_.front();
      waiters_.pop_front();
      // in_use_ stays constant: the unit moves straight to the waiter.
      if (w.hold == kNoHold) {
        sched_->schedule_at(sched_->now(), w.handle);
      } else {
        sched_->schedule_grant(sched_->now(), w.handle, w.hold);
      }
    } else {
      note_usage_change(-1);
    }
  }

  /// Acquire, hold for `hold` simulated time, release. The events are
  /// those of acquire(), then delay(hold), then release(): one at the end
  /// of the hold when the unit is free, and when it is not, one more at
  /// the hand-over (Scheduler::schedule_grant).
  struct UseAwaiter {
    Resource* res;
    SimTime hold;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (res->in_use_ < res->capacity_ && res->waiters_.empty()) {
        res->note_usage_change(+1);
        res->sched_->schedule_at(res->sched_->now() + hold, h);
      } else {
        res->waiters_.push_back(Waiter{h, hold});
      }
    }
    void await_resume() const { res->release(); }
  };
  [[nodiscard]] UseAwaiter use(SimTime hold) noexcept { return {this, hold}; }

  [[nodiscard]] std::size_t in_use() const noexcept { return in_use_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t waiting() const noexcept { return waiters_.size(); }

  /// Integral of in_use over time, for utilization reporting:
  /// utilization = busy_integral / (elapsed * capacity).
  [[nodiscard]] double busy_integral() const noexcept {
    return busy_integral_ +
           static_cast<double>(in_use_) *
               static_cast<double>(sched_->now() - last_change_);
  }

 private:
  void note_usage_change(int delta) noexcept {
    const SimTime now = sched_->now();
    busy_integral_ += static_cast<double>(in_use_) *
                      static_cast<double>(now - last_change_);
    last_change_ = now;
    in_use_ = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(in_use_) +
                                       delta);
  }

  /// A queued acquire() (hold == kNoHold) or use(hold).
  struct Waiter {
    std::coroutine_handle<> handle;
    SimTime hold;
  };
  static constexpr SimTime kNoHold = -1;

  Scheduler* sched_;
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  std::deque<Waiter> waiters_;
  double busy_integral_ = 0.0;
  SimTime last_change_ = 0;
};

/// A capacity-1 FIFO stage with fixed holds, charged in closed form.
/// reserve(arrive, hold) starts at max(arrive, end of the previous
/// reservation) and returns the end, which is exactly when a Resource
/// would release a use(hold) awaited at `arrive` if its users arrived in
/// reservation order. Callers must reserve in arrival order; arrivals may
/// lie in the future.
class Stage {
 public:
  explicit Stage(Scheduler& sched) : sched_(&sched) {}
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  SimTime reserve(SimTime arrive, SimTime hold) {
    const SimTime now = sched_->now();
    assert(arrive >= now && hold >= 0);
    assert(runs_.empty() || arrive >= runs_.back().start);
    while (!runs_.empty() && runs_.front().end <= now) {
      past_busy_ += runs_.front().end - runs_.front().start;
      runs_.pop_front();
    }
    if (!runs_.empty() && arrive <= runs_.back().end) {
      runs_.back().end += hold;
    } else {
      runs_.push_back(Run{arrive, arrive + hold});
    }
    return runs_.back().end;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return 1; }

  /// Busy time up to now(), as Resource::busy_integral counts it: booked
  /// time that still lies in the future does not count yet.
  [[nodiscard]] double busy_integral() const noexcept {
    const SimTime now = sched_->now();
    SimTime busy = past_busy_;
    for (const Run& r : runs_) {
      if (r.start >= now) break;
      busy += std::min(r.end, now) - r.start;
    }
    return static_cast<double>(busy);
  }

 private:
  /// A maximal busy interval [start, end): back-to-back reservations merge.
  struct Run {
    SimTime start;
    SimTime end;
  };

  Scheduler* sched_;
  std::deque<Run> runs_;  ///< booked runs not yet wholly in the past
  SimTime past_busy_ = 0;  ///< busy time of the runs folded out of runs_
};

/// RAII-style scoped hold for code with multiple exit paths.
class ScopedResource {
 public:
  explicit ScopedResource(Resource& res) noexcept : res_(&res) {}
  ScopedResource(const ScopedResource&) = delete;
  ScopedResource& operator=(const ScopedResource&) = delete;
  ~ScopedResource() {
    if (held_) res_->release();
  }

  /// Must be awaited exactly once before the guard owns a unit.
  [[nodiscard]] Resource::AcquireAwaiter acquire() noexcept {
    held_ = true;
    return res_->acquire();
  }

 private:
  Resource* res_;
  bool held_ = false;
};

}  // namespace dtio::sim
