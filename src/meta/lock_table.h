// File lock table: per-(handle, stripe) mutual exclusion with FIFO
// fairness, held by each metadata shard for the locks it serves. A
// striped byte-range lock is one stripe; a whole-file lock is stripe -1,
// the one stripe that covers the file. Pure synchronous structure — the
// server parks waiters here and grants them on release; clients never see
// the table directly.
//
// Lock state is process state: invalidate() drops every holder and
// surrenders the parked waiters so a restarting shard can re-grant them in
// deterministic FIFO order. Only a stripe's holder can release it, so a
// holder from before the crash finds its later unlock a no-op.
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
    if (held_.emplace(key, w.client_node).second) return true;
    waiters_[key].push_back(w);
    return false;
  }

  /// Release (handle, stripe) for `client_node`. If a waiter is parked,
  /// ownership transfers to it and it is returned for the caller to
  /// notify. Releasing a stripe `client_node` does not hold (unheld after
  /// crash invalidation, or re-granted to another client) is a no-op.
  std::optional<Waiter> release(std::uint64_t handle, std::int64_t stripe,
                                int client_node) {
    const Key key{handle, stripe};
    const auto held = held_.find(key);
    if (held == held_.end() || held->second != client_node) {
      return std::nullopt;
    }
    auto w = waiters_.find(key);
    if (w != waiters_.end()) {
      Waiter next = w->second.front();
      w->second.pop_front();
      if (w->second.empty()) waiters_.erase(w);
      held->second = next.client_node;  // the new owner holds the stripe
      return next;
    }
    held_.erase(held);
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
  std::map<Key, int> held_;  ///< holder's client node per held stripe
  std::map<Key, std::deque<Waiter>> waiters_;
};

}  // namespace dtio::meta
