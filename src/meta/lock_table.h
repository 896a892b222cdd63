// File lock table: per-(handle, stripe) mutual exclusion with FIFO
// fairness, held by each metadata shard for the locks it serves. A
// striped byte-range lock is one stripe; a whole-file lock is stripe -1,
// the one stripe that covers the file. Pure synchronous structure — the
// server parks waiters here and grants them on release; clients never see
// the table directly.
//
// Lock state is process state: invalidate() drops every holder and
// surrenders the parked waiters so a restarting shard can re-grant them in
// deterministic FIFO order. Holders from before the crash simply find
// their later unlock a no-op.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

namespace dtio::meta {

class LockTable {
 public:
  using Key = std::pair<std::uint64_t, std::int64_t>;  ///< (handle, stripe)
  struct Waiter {
    int client_node = 0;
    std::uint64_t reply_tag = 0;
  };

  /// Acquire (handle, stripe) for `w`. Returns true if granted now; false
  /// parks the waiter at the back of the stripe's FIFO.
  bool acquire(std::uint64_t handle, std::int64_t stripe, Waiter w) {
    const Key key{handle, stripe};
    if (held_.insert(std::make_pair(key, true)).second) return true;
    waiters_[key].push_back(w);
    return false;
  }

  /// Release (handle, stripe). If a waiter is parked, ownership transfers
  /// to it and it is returned for the caller to notify; releasing an
  /// unheld stripe (e.g. after crash invalidation) is a safe no-op.
  std::optional<Waiter> release(std::uint64_t handle, std::int64_t stripe) {
    const Key key{handle, stripe};
    auto w = waiters_.find(key);
    if (w != waiters_.end()) {
      Waiter next = w->second.front();
      w->second.pop_front();
      if (w->second.empty()) waiters_.erase(w);
      return next;  // stripe stays held by the new owner
    }
    held_.erase(key);
    return std::nullopt;
  }

  /// Crash invalidation: drop all holders and return every parked waiter
  /// in deterministic (key, FIFO) order. The caller re-grants them — each
  /// returned waiter becomes the new holder of its stripe in turn, so the
  /// restarting shard immediately serves a consistent lock space.
  [[nodiscard]] std::vector<std::pair<Key, Waiter>> invalidate() {
    std::vector<std::pair<Key, Waiter>> parked;
    for (auto& [key, queue] : waiters_) {
      for (const Waiter& w : queue) parked.emplace_back(key, w);
    }
    held_.clear();
    waiters_.clear();
    return parked;
  }

  [[nodiscard]] std::size_t held() const noexcept { return held_.size(); }
  [[nodiscard]] std::size_t parked() const noexcept {
    std::size_t n = 0;
    for (const auto& [key, queue] : waiters_) n += queue.size();
    return n;
  }

 private:
  // std::map keys keep crash-drain order deterministic across runs.
  std::map<Key, bool> held_;
  std::map<Key, std::deque<Waiter>> waiters_;
};

}  // namespace dtio::meta
