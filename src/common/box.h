// Box<T>: trivially-destructible ownership transfer into coroutines.
//
// RATIONALE (important): the GCC shipped here (12.2) mis-handles by-value
// coroutine parameters with non-trivial destructors — the parameter object
// is destroyed both by the coroutine frame and by the caller at the end of
// the full expression (double destruction; see tests/sim_test.cpp history
// and GCC bugzilla "coroutine parameter destroyed twice"). The project-wide
// convention is therefore:
//
//   * coroutine parameters must be trivially destructible
//     (ints, enums, raw/observer pointers, references, Box<T>);
//   * ownership of a non-trivial object is passed with Box<T>, and the
//     coroutine body calls take() exactly once;
//   * borrowed objects are passed by reference and must outlive the
//     scheduler run that drives the coroutine.
//
// A double-destroyed Box is harmless because its destructor is trivial;
// the heap object is freed exactly once, by take(). If a started coroutine
// is destroyed before its first resume the boxed object leaks — the
// simulator never abandons started coroutines, and tests run the scheduler
// to completion, so this is acceptable for the failure mode it replaces.
//
// Boxes are made and taken once per request and per message, so their
// slots come from the coroutine frame pool's size classes, not malloc
// (sim/frame_pool.h; compiled out under AddressSanitizer like frames).
#pragma once

#include <cassert>
#include <new>
#include <utility>

#include "sim/frame_pool.h"

namespace dtio {

template <typename T>
class Box {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "pool slots carry operator new's default alignment");

 public:
  Box() noexcept : ptr_(nullptr) {}
  explicit Box(T value) : ptr_(nullptr) {
    void* slot = sim::detail::frame_pool().allocate(sizeof(T));
    try {
      ptr_ = new (slot) T(std::move(value));
    } catch (...) {
      sim::detail::frame_pool().deallocate(slot, sizeof(T));
      throw;
    }
  }

  // Intentionally no destructor: triviality is the whole point.
  // Copying shares the raw pointer; exactly one copy may call take().

  [[nodiscard]] bool has_value() const noexcept { return ptr_ != nullptr; }

  /// Move the value out and free the heap slot. Call exactly once across
  /// all copies of this Box; returns T{} for an empty Box.
  [[nodiscard]] T take() {
    if (ptr_ == nullptr) return T{};
    T value = std::move(*ptr_);
    ptr_->~T();
    sim::detail::frame_pool().deallocate(ptr_, sizeof(T));
    ptr_ = nullptr;
    return value;
  }

  /// Peek without consuming (the Box must be non-empty).
  [[nodiscard]] const T& peek() const {
    assert(ptr_ != nullptr);
    return *ptr_;
  }

 private:
  T* ptr_;
};

}  // namespace dtio
