// Tagged mailboxes: the message-delivery endpoint of each simulated node.
//
// Matching follows MPI semantics: a receive names a (source, tag) pair,
// either of which may be a wildcard, and matches the earliest queued
// message satisfying the filter. Delivery and receipt are decoupled —
// the network layer calls deliver() when the last packet of a message
// arrives; receivers park in recv() until a match exists or their
// deadline, if they set one, expires.
//
// Replies have a lifetime. A requester claim()s its reply tag before the
// request goes out and retire()s it once the last receive that could
// accept it has returned, with a reply or on timeout. A reply delivered
// for a tag with no live claim (a late reply to an abandoned attempt, a
// duplicate, a losing hedge) is dropped and counted, never queued, and
// retiring a tag drops any copy already queued. Non-reply messages
// (requests, collective traffic) are never claimed and always queue.
#pragma once

#include <algorithm>
#include <any>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "sim/scheduler.h"

namespace dtio::sim {

inline constexpr int kAnySource = -1;
inline constexpr std::uint64_t kAnyTag = std::numeric_limits<std::uint64_t>::max();
/// Receive timeout meaning "no deadline": any negative value schedules no
/// timer. (A timeout of 0 is a real deadline that expires at once.)
inline constexpr SimTime kNoDeadline = -1;

/// A delivered message. `wire_bytes` is the simulated on-the-wire size
/// (headers + descriptors + data), which may exceed the in-memory size of
/// `body`; the cost model charges for wire_bytes, correctness uses body.
struct Message {
  int src = kAnySource;
  std::uint64_t tag = 0;
  std::uint64_t wire_bytes = 0;
  /// Observability annotations (0 = untraced): the trace this message
  /// belongs to and the sender-side span it continues. Carried so the
  /// network layer can parent its transmission spans; no semantic effect.
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  /// Observability phase tag (obs::Phase as uint8_t; 0 = untyped). Stamped
  /// by the sender so the network can type its transmission span without a
  /// net -> pfs dependency. No semantic effect.
  std::uint8_t phase = 0;
  /// An RPC reply, set by the replying server: deliver() queues it only
  /// while its tag is claimed at the destination mailbox.
  bool reply = false;
  /// Simulated time this message reached the destination mailbox, stamped
  /// by Mailbox::deliver(); -1 until delivered. Receivers use it to measure
  /// queue-wait. No semantic effect.
  SimTime delivered_at = -1;
  std::any body;

  Message() = default;
  Message(int src_, std::uint64_t tag_, std::uint64_t wire_bytes_,
          std::any body_) noexcept
      : src(src_), tag(tag_), wire_bytes(wire_bytes_), body(std::move(body_)) {}
  // The move operations are user-provided on purpose: the GCC in use
  // miscompiles by-value coroutine parameters whose move constructor is
  // implicitly defined (double destruction of the parameter object; see
  // common/box.h). A user-provided move makes Message safe to pass by
  // value into any coroutine, including as a prvalue.
  Message(Message&& other) noexcept
      : src(other.src),
        tag(other.tag),
        wire_bytes(other.wire_bytes),
        trace(other.trace),
        span(other.span),
        phase(other.phase),
        reply(other.reply),
        delivered_at(other.delivered_at),
        body(std::move(other.body)) {}
  Message& operator=(Message&& other) noexcept {
    src = other.src;
    tag = other.tag;
    wire_bytes = other.wire_bytes;
    trace = other.trace;
    span = other.span;
    phase = other.phase;
    reply = other.reply;
    delivered_at = other.delivered_at;
    body = std::move(other.body);
    return *this;
  }
  Message(const Message&) = default;
  Message& operator=(const Message&) = default;
  ~Message() = default;

  template <typename T>
  [[nodiscard]] const T& as() const {
    const T* p = std::any_cast<T>(&body);
    assert(p != nullptr && "message body type mismatch");
    return *p;
  }
  template <typename T>
  [[nodiscard]] T take() {
    T* p = std::any_cast<T>(&body);
    assert(p != nullptr && "message body type mismatch");
    return std::move(*p);
  }
};

/// What a mailbox counts; net::Network publishes it per node.
struct MailboxStats {
  /// Replies discarded because no live claim awaited their tag: dropped
  /// at delivery, or purged from the queue when their tag retired.
  std::uint64_t replies_dropped = 0;
};

class Mailbox {
 public:
  explicit Mailbox(Scheduler& sched) noexcept : sched_(&sched) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  struct RecvAwaiter {
    Mailbox* mailbox;
    int src_filter;
    std::uint64_t tag_filter;
    SimTime timeout;
    std::optional<std::uint64_t> tag_alt;
    Message message;
    bool expired = false;

    bool await_ready() {
      return mailbox->try_take(src_filter, tag_filter, message) ||
             (tag_alt && mailbox->try_take(src_filter, *tag_alt, message));
    }
    void await_suspend(std::coroutine_handle<> h) {
      const std::uint64_t id = timeout < 0 ? 0 : ++mailbox->next_waiter_id_;
      mailbox->waiters_.push_back(
          Waiter{src_filter, tag_filter, tag_alt, &message, h, id, &expired});
      if (id == 0) return;  // no deadline: no timer
      Mailbox* mb = mailbox;
      mb->sched_->schedule_call(mb->sched_->now() + timeout,
                                [mb, id] { mb->expire_waiter(id); });
    }
    std::optional<Message> await_resume() noexcept {
      if (expired) return std::nullopt;
      return std::move(message);
    }
  };

  /// Await a message matching (src, tag); wildcards allowed. With a
  /// `timeout` (simulated time, 0 included) the receive resumes with
  /// nullopt once it elapses without a match; kNoDeadline waits forever
  /// and schedules no timer, so only a deadline can yield nullopt. The
  /// timer always fires (no cancellation) but is a no-op if the waiter
  /// already matched — expiry is looked up by id, never by address.
  /// Deadline-exact arrivals lose: the expiry callback was scheduled when
  /// the waiter parked, so at the deadline tick it runs before a deliver
  /// scheduled later for the same instant.
  ///
  /// `tag_alt` also accepts a second tag from `src` — first delivery wins;
  /// inspect the returned Message's `tag` to see which. Built for hedged
  /// requests: the primary and the hedge carry distinct reply tags and one
  /// receive awaits both; once the requester retires both tags the losing
  /// reply is dropped at delivery and counted, never mistaken for anything.
  [[nodiscard]] RecvAwaiter recv(
      int src = kAnySource, std::uint64_t tag = kAnyTag,
      SimTime timeout = kNoDeadline,
      std::optional<std::uint64_t> tag_alt = std::nullopt) {
    return RecvAwaiter{this, src, tag, timeout, tag_alt, {}, false};
  }

  /// Hand a fully-arrived message to this mailbox. A reply whose tag has
  /// no live claim is dropped and counted. Otherwise, if a parked receiver
  /// matches, it is resumed through the event queue at the current time.
  void deliver(Message msg) {
    if (msg.reply && !claimed(msg.tag)) {
      ++stats_.replies_dropped;
      return;
    }
    msg.delivered_at = sched_->now();
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (matches(msg, it->src_filter, it->tag_filter) ||
          (it->tag_alt && matches(msg, it->src_filter, *it->tag_alt))) {
        *it->slot = std::move(msg);
        auto h = it->handle;
        waiters_.erase(it);
        sched_->schedule_at(sched_->now(), h);
        return;
      }
    }
    queued_bytes_ += msg.wire_bytes;
    queue_.push_back(std::move(msg));
  }

  /// Open the lifetime of reply tag `tag`: replies carrying it queue or
  /// match from now on. Claim before the request goes out, so a reply that
  /// lands before its receive is posted still waits in the queue.
  void claim(std::uint64_t tag) {
    assert(!claimed(tag) && "reply tag claimed twice");
    claims_.push_back(tag);
  }
  /// Close the lifetime of `tag` once the last receive that could accept
  /// it has returned: later replies carrying it are dropped at delivery,
  /// and any copy already queued (a duplicate, or the hedge loser that
  /// landed before the receiver resumed) is dropped now.
  void retire(std::uint64_t tag) {
    const auto it = std::find(claims_.begin(), claims_.end(), tag);
    assert(it != claims_.end() && "retiring an unclaimed reply tag");
    if (it != claims_.end()) {
      *it = claims_.back();
      claims_.pop_back();
    }
    for (auto q = queue_.begin(); q != queue_.end();) {
      if (q->reply && q->tag == tag) {
        queued_bytes_ -= q->wire_bytes;
        ++stats_.replies_dropped;
        q = queue_.erase(q);
      } else {
        ++q;
      }
    }
  }
  /// Reply tags currently claimed: bounded by the RPCs in flight.
  [[nodiscard]] std::size_t claims() const noexcept { return claims_.size(); }
  [[nodiscard]] const MailboxStats& stats() const noexcept { return stats_; }

  [[nodiscard]] std::size_t queued() const noexcept { return queue_.size(); }
  /// Wire bytes of the queued (undelivered) backlog — what a server's
  /// admission control weighs against ServerConfig::max_queued_bytes.
  [[nodiscard]] std::uint64_t queued_bytes() const noexcept {
    return queued_bytes_;
  }
  [[nodiscard]] std::size_t waiting() const noexcept { return waiters_.size(); }

  /// Discard every queued (undelivered) message; parked receivers are left
  /// alone. Returns the number discarded. Used by server crash simulation.
  std::size_t clear_queue() noexcept {
    const std::size_t n = queue_.size();
    queue_.clear();
    queued_bytes_ = 0;
    return n;
  }

 private:
  struct Waiter {
    int src_filter;
    std::uint64_t tag_filter;
    std::optional<std::uint64_t> tag_alt;  // second acceptable tag (hedges)
    Message* slot;
    std::coroutine_handle<> handle;
    std::uint64_t id = 0;     // nonzero only for waiters with a deadline
    bool* expired = nullptr;  // set before resuming on timeout
  };

  /// Timer callback for a timed waiter: if it is still parked, mark it
  /// expired and resume it empty-handed. No-op when the waiter already
  /// matched (its id is gone from the list).
  void expire_waiter(std::uint64_t id) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (it->id != id) continue;
      *it->expired = true;
      auto h = it->handle;
      waiters_.erase(it);
      sched_->schedule_at(sched_->now(), h);
      return;
    }
  }

  bool claimed(std::uint64_t tag) const noexcept {
    return std::find(claims_.begin(), claims_.end(), tag) != claims_.end();
  }

  static bool matches(const Message& m, int src_filter,
                      std::uint64_t tag_filter) noexcept {
    return (src_filter == kAnySource || src_filter == m.src) &&
           (tag_filter == kAnyTag || tag_filter == m.tag);
  }

  bool try_take(int src_filter, std::uint64_t tag_filter, Message& out) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (matches(*it, src_filter, tag_filter)) {
        out = std::move(*it);
        queued_bytes_ -= out.wire_bytes;
        queue_.erase(it);
        return true;
      }
    }
    return false;
  }

  Scheduler* sched_;
  std::deque<Message> queue_;
  std::deque<Waiter> waiters_;
  std::vector<std::uint64_t> claims_;  ///< live reply tags, unordered
  std::uint64_t next_waiter_id_ = 0;
  std::uint64_t queued_bytes_ = 0;
  MailboxStats stats_;
};

}  // namespace dtio::sim
