// Coroutine task types for the discrete-event simulator.
//
// A simulated process (PVFS client, I/O server, aggregator, ...) is a
// coroutine returning Task<void>; helper operations that need to block in
// simulated time (network transfer, disk access, barrier) are coroutines
// too and are awaited with `co_await`. Awaiting a Task starts it
// immediately via symmetric transfer and resumes the awaiter when the
// child finishes — there is no real concurrency, all interleaving happens
// through the Scheduler's event queue.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/frame_pool.h"

namespace dtio::sim {

namespace detail {

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    // Resume whoever co_awaited us; top-level tasks have no continuation
    // and simply return control to the scheduler loop.
    auto continuation = h.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// A lazily-started coroutine producing a T (or nothing). Move-only; owns
/// its coroutine frame. Award with `co_await` from another task, or hand to
/// Scheduler::spawn for top-level processes.
template <typename T = void>
class [[nodiscard]] Task;

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() noexcept {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task() noexcept = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    handle_.promise().continuation = cont;
    return handle_;  // start the child now
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    assert(p.value.has_value() && "Task<T> finished without a value");
    return std::move(*p.value);
  }

  [[nodiscard]] std::coroutine_handle<promise_type> handle() const noexcept {
    return handle_;
  }
  [[nodiscard]] bool done() const noexcept { return !handle_ || handle_.done(); }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}

  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() noexcept {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() const noexcept {}
  };

  Task() noexcept = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    handle_.promise().continuation = cont;
    return handle_;
  }
  void await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
  }

  [[nodiscard]] std::coroutine_handle<promise_type> handle() const noexcept {
    return handle_;
  }
  [[nodiscard]] bool done() const noexcept { return !handle_ || handle_.done(); }

  /// Releases ownership of the frame (used by Scheduler::spawn, which then
  /// manages the frame's lifetime itself).
  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(handle_, nullptr);
  }

 private:
  friend struct promise_type;
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}

  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace dtio::sim
