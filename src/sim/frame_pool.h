// Recycled coroutine frames.
//
// Every Task and Fire frame comes from here. A simulation creates and
// destroys frames at a high rate (request handlers, per-packet Fire
// frames, RPC helpers) but from a small set of sizes, so freed frames go
// onto per-thread free lists by size class (64-byte grain) and the next
// frame of that class reuses one instead of going through malloc. Frames
// above the largest class go straight to operator new.
//
// Under AddressSanitizer the pool is compiled out and every frame is a
// plain allocation, so a use of a destroyed frame is still reported
// instead of landing in a recycled block. This is a property of the
// build, not a runtime option.
#pragma once

#include <cstddef>
#include <new>

namespace dtio::sim::detail {

/// Whether this build recycles frames: off exactly when AddressSanitizer
/// instruments it (GCC and Clang spell the check differently).
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kFramePoolEnabled = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kFramePoolEnabled = false;
#else
inline constexpr bool kFramePoolEnabled = true;
#endif
#else
inline constexpr bool kFramePoolEnabled = true;
#endif

class FramePool {
 public:
  static constexpr std::size_t kGrain = 64;
  static constexpr std::size_t kClasses = 32;  ///< pooled frames < 2 KiB
  static constexpr bool kEnabled = kFramePoolEnabled;

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    for (Block*& head : free_) {
      while (head != nullptr) {
        Block* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  }

  /// Size class of an n-byte frame; kClasses and above are not pooled.
  static constexpr std::size_t size_class(std::size_t n) noexcept {
    return (n + kGrain - 1) / kGrain;
  }

  void* allocate(std::size_t n) {
    const std::size_t c = size_class(n);
    if (!kEnabled || c >= kClasses) return ::operator new(n);
    if (Block* b = free_[c]) {
      free_[c] = b->next;
      return b;
    }
    return ::operator new(c * kGrain);
  }

  void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t c = size_class(n);
    if (!kEnabled || c >= kClasses) {
      ::operator delete(p);
      return;
    }
    auto* b = static_cast<Block*>(p);
    b->next = free_[c];
    free_[c] = b;
  }

 private:
  struct Block {
    Block* next;
  };
  Block* free_[kClasses] = {};
};

/// This thread's pool. The scheduler is single-threaded; a frame freed on
/// another thread would simply join that thread's pool.
inline FramePool& frame_pool() noexcept {
  static thread_local FramePool pool;
  return pool;
}

/// Base for promise types: routes the frame's allocation through the pool.
struct PooledFrame {
  static void* operator new(std::size_t n) { return frame_pool().allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    frame_pool().deallocate(p, n);
  }
};

}  // namespace dtio::sim::detail
