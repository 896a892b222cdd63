// FIFO-fair counted resources: disks, NIC links, server CPUs.
//
// A Resource with capacity 1 serializes its users in simulated time; the
// `use(hold)` helper models the common "occupy the device for a duration"
// pattern (e.g. a 64 KiB packet occupies a link for bytes/bandwidth).
// use(hold) is a plain awaiter, not a coroutine: every link, fabric, CPU
// and disk hold would otherwise allocate a frame of its own.
#pragma once

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
