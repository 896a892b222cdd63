// Fire-and-forget coroutines whose frames self-destroy on completion.
//
// The network layer starts one of these per message in flight, its
// delivery, and servers and clients start them for detached work; with
// millions of messages per run, retaining frames (as Scheduler::spawn
// does for long-lived processes) would exhaust memory. A Fire frame is
// owned by nobody: it destroys itself at final_suspend. Exceptions
// escaping a Fire body are parked in a thread-local slot that
// Scheduler::run rethrows.
#pragma once

#include <coroutine>
#include <exception>

#include "sim/frame_pool.h"

namespace dtio::sim {

namespace detail {
/// Exception that escaped a Fire coroutine, pending rethrow by the
/// scheduler loop (the frame that threw is already gone).
inline thread_local std::exception_ptr g_fire_exception;
}  // namespace detail

class Fire {
 public:
  struct promise_type : detail::PooledFrame {
    Fire get_return_object() noexcept {
      return Fire{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    std::suspend_never final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() noexcept {
      if (!detail::g_fire_exception) {
        detail::g_fire_exception = std::current_exception();
      }
    }
  };

  /// Non-owning: the frame manages its own lifetime once started.
  [[nodiscard]] std::coroutine_handle<> handle() const noexcept {
    return handle_;
  }

 private:
  explicit Fire(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace dtio::sim
