#pragma once

/// \file event_queue.hpp
/// The engine's per-shard pending-event queue (DESIGN.md §4.6).
///
/// Every event carries an intrinsic key: its time `at` and a `seq` that
/// packs the posting image and that image's own post counter (see
/// QueuedEvent). Between a third and a half of all events are scheduled *at
/// the current time* (unblock() wakes, posts at now, zero-length advances).
/// Those go to a FIFO in insertion order with no heap work; everything else
/// — events at future times — goes to a binary heap ordered by `(at, seq)`.
/// The queue's head is the earlier of the two heads, and on a tie in `at`
/// the heap's: a heap event at the current time was posted before the clock
/// reached it, so it precedes everything posted at that time.
///
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "support/error.hpp"

namespace caf2::sim {

/// A pending engine event: a POD. Wake events carry the participant to wake;
/// Call events carry an index into the shard's call pool where the closure
/// lives, and the participant the call runs at (its *run home*).
struct QueuedEvent {
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  double at = 0.0;
  /// `poster image << 40 | poster's post counter`: unique per event and a
  /// function of the program alone, so equal-time heap ties break the same
  /// way at every shard count.
  std::uint64_t seq = 0;
  std::int32_t participant = -1;      ///< woken participant or run home
  std::uint32_t call_slot = kNoSlot;  ///< != kNoSlot for Call events
};

/// "a dispatches after b": the comparator of the min-heap on (at, seq).
struct EventOrder {
  bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
    if (a.at != b.at) {
      return a.at > b.at;
    }
    return a.seq > b.seq;  // FIFO among equal times
  }
};

class EventQueue {
 public:
  bool empty() const { return heap_.empty() && fifo_count_ == 0; }

  std::size_t size() const { return heap_.size() + fifo_count_; }

  /// The earliest pending event. Requires !empty().
  const QueuedEvent& top() const {
    return fifo_first() ? fifo_[fifo_head_] : heap_.top();
  }

  /// Remove and return the earliest pending event. Requires !empty().
  QueuedEvent pop() {
    if (fifo_first()) {
      const QueuedEvent event = fifo_[fifo_head_];
      fifo_head_ = (fifo_head_ + 1) & (fifo_.size() - 1);
      --fifo_count_;
      return event;
    }
    const QueuedEvent event = heap_.top();
    heap_.pop();
    return event;
  }

  /// Queue an event at any time with any sequence number.
  void push(const QueuedEvent& event) { heap_.push(event); }

  /// Queue an event at the current clock: it dispatches after every event
  /// previously queued through push_now(), and after heap events at its
  /// time. O(1).
  void push_now(const QueuedEvent& event) {
    if (fifo_count_ == fifo_.size()) {
      grow();
    }
    const std::size_t mask = fifo_.size() - 1;
    CAF2_ASSERT(fifo_count_ == 0 ||
                    event.at >= fifo_[(fifo_head_ + fifo_count_ - 1) & mask].at,
                "push_now() event is earlier than the FIFO's tail");
    fifo_[(fifo_head_ + fifo_count_) & mask] = event;
    ++fifo_count_;
  }

 private:
  bool fifo_first() const {
    return fifo_count_ != 0 &&
           (heap_.empty() || fifo_[fifo_head_].at < heap_.top().at);
  }

  /// Double the ring (a power of two, so wrapping is a mask) and unwrap it.
  void grow() {
    std::vector<QueuedEvent> bigger(fifo_.empty() ? 64 : 2 * fifo_.size());
    for (std::size_t i = 0; i < fifo_count_; ++i) {
      bigger[i] = fifo_[(fifo_head_ + i) & (fifo_.size() - 1)];
    }
    fifo_.swap(bigger);
    fifo_head_ = 0;
  }

  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, EventOrder> heap_;
  std::vector<QueuedEvent> fifo_;  ///< ring buffer, power-of-two size
  std::size_t fifo_head_ = 0;
  std::size_t fifo_count_ = 0;
};

}  // namespace caf2::sim
