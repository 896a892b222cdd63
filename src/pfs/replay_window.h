// ReplayWindow: the acks a server remembers for idempotent replay.
//
// A sequenced write's ack is stored under its (client, op_seq) key so a
// retry of the same logical op is re-acknowledged instead of re-applied.
// The window keeps the newest `limit` acks: acks sit in a ring in store
// order (which is time order), so count eviction and age expiry both pop
// the oldest, and an open-addressed table maps each key to its ring slot.
// The ring starts small and doubles on demand up to `limit`, so a server
// that sees few sequenced ops never pays for the whole window; a slot is
// reused in place once the ring is full, so a steady stream of writes
// stores its acks without allocating.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.h"
#include "pfs/protocol.h"

namespace dtio::pfs {

class ReplayWindow {
 public:
  /// Holds at most `limit` acks; 0 stores nothing.
  explicit ReplayWindow(std::size_t limit) : limit_(limit) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Ring slots allocated so far (grows on demand, never past limit
  /// rounded up to a power of two).
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// The ack stored under `key`, or nullptr.
  [[nodiscard]] const Reply* find(std::uint64_t key) const noexcept {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const Slot& slot = index_[i];
      if (slot.ring == kEmpty) return nullptr;
      if (slot.key == key) return &ring_[slot.ring].reply;
    }
  }

  /// Store `reply` under `key`, stamped `at`; a key already present keeps
  /// its first ack. At the limit, the oldest ack makes room.
  void insert(std::uint64_t key, SimTime at, const Reply& reply) {
    if (limit_ == 0 || find(key) != nullptr) return;
    if (size_ == limit_) pop_oldest();
    if (size_ == ring_.size()) grow();
    const std::size_t slot = (head_ + size_) & (ring_.size() - 1);
    Entry& e = ring_[slot];
    e.key = key;
    e.at = at;
    e.reply = reply;
    ++size_;
    place(key, slot);
  }

  /// Drop every ack stored strictly more than `max_age` before `now`;
  /// returns how many went.
  std::size_t expire(SimTime now, SimTime max_age) {
    std::size_t n = 0;
    while (size_ > 0 && now - ring_[head_].at > max_age) {
      pop_oldest();
      ++n;
    }
    return n;
  }

  /// Forget every ack (a crash: the window is process state).
  void clear() noexcept {
    std::fill(index_.begin(), index_.end(), Slot{});
    head_ = 0;
    size_ = 0;
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    SimTime at = 0;
    Reply reply;
  };
  static constexpr std::uint32_t kEmpty = 0xFFFF'FFFFU;
  /// An index slot keeps the key next to its ring position, so a probe
  /// never touches the ring.
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t ring = kEmpty;
  };
  static constexpr std::size_t kMinRing = 8;

  [[nodiscard]] std::size_t mask() const noexcept { return index_.size() - 1; }
  /// Fibonacci hashing: keys are (client << 48) ^ a dense sequence.
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E37'79B9'7F4A'7C15ULL) >>
                                    (64 - index_bits_));
  }

  /// Index `key` at ring position `ring` (the key must be absent).
  void place(std::uint64_t key, std::size_t ring) {
    std::size_t i = home(key);
    while (index_[i].ring != kEmpty) i = (i + 1) & mask();
    index_[i] = Slot{key, static_cast<std::uint32_t>(ring)};
  }

  void pop_oldest() {
    erase_index(ring_[head_].key);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
  }

  /// Linear-probing delete by backward shift: later members of the probe
  /// run move up so every lookup still meets them before an empty slot.
  void erase_index(std::uint64_t key) {
    std::size_t i = home(key);
    while (index_[i].key != key || index_[i].ring == kEmpty) {
      i = (i + 1) & mask();
    }
    for (std::size_t j = (i + 1) & mask(); index_[j].ring != kEmpty;
         j = (j + 1) & mask()) {
      const std::size_t h = home(index_[j].key);
      // The member at j may fill the hole at i unless its home lies
      // cyclically in (i, j].
      const bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
      if (stays) continue;
      index_[i] = index_[j];
      i = j;
    }
    index_[i] = Slot{};
  }

  /// Double the ring (oldest ack first in the new one) and rebuild the
  /// index at twice the ring size, so probes stay short.
  void grow() {
    const std::size_t cap = ring_.empty() ? kMinRing : 2 * ring_.size();
    std::vector<Entry> ring(cap);
    for (std::size_t k = 0; k < size_; ++k) {
      ring[k] = std::move(ring_[(head_ + k) & (ring_.size() - 1)]);
    }
    ring_ = std::move(ring);
    head_ = 0;
    index_bits_ = 1;
    while ((std::size_t{1} << index_bits_) < 2 * cap) ++index_bits_;
    index_.assign(std::size_t{1} << index_bits_, Slot{});
    for (std::size_t k = 0; k < size_; ++k) place(ring_[k].key, k);
  }

  std::size_t limit_;
  std::vector<Entry> ring_;  ///< power-of-two size; oldest at head_
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::vector<Slot> index_;  ///< open-addressed, linear probing
  int index_bits_ = 0;
};

}  // namespace dtio::pfs
