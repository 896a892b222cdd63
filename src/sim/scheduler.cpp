#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dtio::sim {

Scheduler::~Scheduler() {
  // Destroy remaining frames (processes parked on never-delivered recvs at
  // teardown, or finished frames suspended at final_suspend).
  for (auto h : processes_) {
    if (h) h.destroy();
  }
}

void Scheduler::push(SimTime t, void* frame, std::uint64_t aux) {
  assert(t >= now_ && "cannot schedule into the simulated past");
  if (t == now_) {
    lane_.push_back(Event{t, next_seq_++, frame, aux});
    return;
  }
  const Event ev{t, next_seq_++, frame, aux};
  std::size_t i = queue_.size();
  queue_.push_back(ev);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(ev, queue_[parent])) break;
    queue_[i] = queue_[parent];
    i = parent;
  }
  queue_[i] = ev;
}

Scheduler::Event Scheduler::pop_next() {
  if (lane_head_ < lane_.size() &&
      (queue_.empty() || earlier(lane_[lane_head_], queue_.front()))) {
    const Event ev = lane_[lane_head_++];
    if (lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
    return ev;
  }
  const Event top = queue_.front();
  const Event last = queue_.back();
  queue_.pop_back();
  const std::size_t n = queue_.size();
  if (n == 0) return top;
  // Sift `last` down from the root: move the earliest child up while it
  // precedes `last`.
  std::size_t i = 0;
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(queue_[c], queue_[best])) best = c;
    }
    if (!earlier(queue_[best], last)) break;
    queue_[i] = queue_[best];
    i = best;
  }
  queue_[i] = last;
  return top;
}

void Scheduler::schedule_at(SimTime t, std::coroutine_handle<> h) {
  push(t, h.address(), 0);
}

void Scheduler::schedule_grant(SimTime t, std::coroutine_handle<> h,
                               SimTime hold) {
  assert(hold >= 0);
  push(t, h.address(), static_cast<std::uint64_t>(hold) + 1);
}

void Scheduler::schedule_call(SimTime t, std::function<void()> fn) {
  std::uint64_t slot = calls_.size();
  if (free_calls_.empty()) {
    calls_.push_back(std::move(fn));
  } else {
    slot = free_calls_.back();
    free_calls_.pop_back();
    calls_[slot] = std::move(fn);
  }
  push(t, nullptr, slot);
}

void Scheduler::run_call(std::uint64_t slot) {
  // Free the slot before the call: the callback may schedule another one,
  // which can take this slot or grow calls_ under our feet.
  std::function<void()> fn = std::move(calls_[slot]);
  calls_[slot] = nullptr;
  free_calls_.push_back(slot);
  fn();
}

void Scheduler::schedule_telemetry(SimTime t, std::function<void()> fn) {
  assert(t >= now_ && "cannot schedule into the simulated past");
  telemetry_.push(TelemetryEvent{t, next_telemetry_seq_++, std::move(fn)});
}

void Scheduler::spawn(Task<void> process) {
  auto h = process.release();
  assert(h && "spawn of an empty task");
  processes_.push_back(h);
  schedule_at(now_, h);
}

void Scheduler::run() {
  while (!queue_.empty() || lane_head_ < lane_.size()) {
    // Telemetry due at or before the next regular event observes the
    // simulation between events, at its own timestamp. Pure observation:
    // running it cannot change the regular queue, so the event sequence
    // is identical with or without telemetry attached. A telemetry
    // callback may schedule the next sample (periodic samplers), which
    // the loop picks up immediately if still due.
    const SimTime next_time =
        lane_head_ < lane_.size() ? now_ : queue_.front().time;
    while (!telemetry_.empty() && telemetry_.top().time <= next_time) {
      TelemetryEvent t = std::move(const_cast<TelemetryEvent&>(
          telemetry_.top()));
      telemetry_.pop();
      now_ = t.time;
      t.fn();
    }
    const Event ev = pop_next();
    now_ = ev.time;
    ++events_processed_;
    if (ev.frame == nullptr) {
      run_call(ev.aux);
    } else if (ev.aux == 0) {
      std::coroutine_handle<>::from_address(ev.frame).resume();
    } else {
      push(now_ + static_cast<SimTime>(ev.aux - 1), ev.frame, 0);
    }
  }
  check_process_exceptions();
}

void Scheduler::check_process_exceptions() {
  if (detail::g_fire_exception) {
    auto exc = detail::g_fire_exception;
    detail::g_fire_exception = nullptr;
    std::rethrow_exception(exc);
  }
  for (auto h : processes_) {
    if (h && h.done() && h.promise().exception) {
      auto exc = h.promise().exception;
      h.promise().exception = nullptr;
      std::rethrow_exception(exc);
    }
  }
}

std::size_t Scheduler::processes_finished() const noexcept {
  std::size_t n = 0;
  for (auto h : processes_) {
    if (h && h.done()) ++n;
  }
  return n;
}

}  // namespace dtio::sim
