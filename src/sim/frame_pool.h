// Recycled coroutine frames.
//
// Every Task and Fire frame comes from here. A simulation creates and
// destroys frames at a high rate (request handlers, RPC helpers, message
// deliveries) but from a small set of sizes, so freed frames go onto
// per-thread free lists by size class (64-byte grain) and the next frame
// of that class reuses one instead of going through malloc. Frames above
// the largest class go straight to operator new.
//
// Under AddressSanitizer the pool is compiled out and every frame is a
// plain allocation, so a use of a destroyed frame is still reported
// instead of landing in a recycled block. This is a property of the
// build, not a runtime option.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>

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

/// Frees this thread's pooled blocks when the thread exits. Armed by the
/// first fresh block (FramePool::allocate_fresh), off the allocation fast
/// path.
struct FramePoolReaper {
  FramePoolReaper() = default;
  FramePoolReaper(const FramePoolReaper&) = delete;
  FramePoolReaper& operator=(const FramePoolReaper&) = delete;
  ~FramePoolReaper();
};

class FramePool {
 public:
  static constexpr std::size_t kGrain = 64;
  static constexpr std::size_t kClasses = 32;  ///< pooled frames < 2 KiB
  static constexpr bool kEnabled = kFramePoolEnabled;

  // Trivially destructible on purpose (see t_frame_pool): release()
  // hands the free blocks back.
  constexpr FramePool() noexcept = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// Return every block on the free lists to ::operator delete.
  void release() noexcept {
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
    if (kEnabled && c < kClasses) {
      if (Block* b = free_[c]) {
        free_[c] = b->next;
        return b;
      }
    }
    return allocate_fresh(n);
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
  /// A new block for an n-byte frame: its whole size class when pooled.
  /// Kept out of line on purpose. Inlined into a coroutine's ramp, the
  /// ::operator new here would be the frame's visible allocation, and GCC
  /// (-Wmismatched-new-delete, at -O2) would then flag the promise's
  /// class operator delete that frees the frame as mismatched with it. The
  /// pairing is sound: deallocate() (at once, or through the free list and
  /// release()) hands every block back to ::operator delete, so that
  /// warning is a false positive. Also arms this thread's exit reaper.
  [[gnu::noinline]] static void* allocate_fresh(std::size_t n) {
    static thread_local FramePoolReaper reaper;
    const std::size_t c = size_class(n);
    return ::operator new(kEnabled && c < kClasses ? c * kGrain : n);
  }

  struct Block {
    Block* next;
  };
  Block* free_[kClasses] = {};
};
static_assert(std::is_trivially_destructible_v<FramePool>);

/// This thread's pool. Constant-initialised and trivially destructible,
/// so every frame allocation and free reads it directly, with no TLS
/// init guard. The scheduler is single-threaded; a frame freed on another
/// thread would simply join that thread's pool.
inline constinit thread_local FramePool t_frame_pool;

inline FramePool& frame_pool() noexcept { return t_frame_pool; }

inline FramePoolReaper::~FramePoolReaper() { t_frame_pool.release(); }

/// Base for promise types: routes the frame's allocation through the pool.
struct PooledFrame {
  static void* operator new(std::size_t n) { return frame_pool().allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    frame_pool().deallocate(p, n);
  }
};

}  // namespace dtio::sim::detail
