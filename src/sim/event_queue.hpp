#pragma once

/// \file event_queue.hpp
/// The engine's per-shard pending-event queue (DESIGN.md §4.6).
///
/// Events dispatch in `(at, seq)` order. Between a third and a half of all
/// events are scheduled *at the current time* with a fresh sequence number
/// (unblock() wakes, posts at now, zero-length advances, inbox wakes clamped
/// to the clock). Such an event is never earlier than anything scheduled the
/// same way before it — the clock never runs backwards and fresh sequence
/// numbers only grow — so those events arrive already sorted and a FIFO
/// holds them with no heap work. Everything else (future times, and events
/// carrying a reserved, older sequence number) goes to a binary heap. The
/// queue's head is the smaller of the two heads, so the pop order is exactly
/// the `(at, seq)` order a single heap would produce.

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "support/error.hpp"

namespace caf2::sim {

/// A pending engine event: a POD. Wake events carry the participant id; Call
/// events carry an index into the shard's call pool where the closure lives.
struct QueuedEvent {
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  double at = 0.0;
  std::uint64_t seq = 0;
  std::int32_t wake_participant = -1;  ///< >= 0 for Wake events
  std::uint32_t call_slot = kNoSlot;   ///< != kNoSlot for Call events
};

/// "a dispatches after b": the comparator of a min-heap on (at, seq).
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

  /// Queue an event that dispatches after every event previously queued
  /// through push_now() — true of one stamped at the current clock with a
  /// fresh sequence number. O(1).
  void push_now(const QueuedEvent& event) {
    if (fifo_count_ == fifo_.size()) {
      grow();
    }
    const std::size_t mask = fifo_.size() - 1;
    CAF2_ASSERT(fifo_count_ == 0 ||
                    EventOrder{}(event,
                                 fifo_[(fifo_head_ + fifo_count_ - 1) & mask]),
                "push_now() event sorts before the FIFO's tail");
    fifo_[(fifo_head_ + fifo_count_) & mask] = event;
    ++fifo_count_;
  }

 private:
  bool fifo_first() const {
    return fifo_count_ != 0 &&
           (heap_.empty() || EventOrder{}(heap_.top(), fifo_[fifo_head_]));
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
