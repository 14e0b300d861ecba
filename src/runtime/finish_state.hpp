#pragma once

/// \file finish_state.hpp
/// Per-image accounting for one finish scope — the data structure behind the
/// paper's termination-detection algorithm (paper Fig. 7).
///
/// Each image keeps, per finish scope, two sets of four counters (an *even*
/// and an *odd* epoch):
///   sent       messages this image sent, charged to this finish;
///   delivered  of those, how many have been acknowledged as delivered;
///   received   tracked messages that arrived at this image;
///   completed  of those, how many finished executing locally.
///
/// The image is in the even epoch initially; it proceeds into the odd epoch
/// when it enters a detection allreduce or when it receives a message whose
/// sender was in an odd epoch. It proceeds back into an even epoch when it
/// exits the allreduce, at which point the odd counters fold into the even
/// ones. Counter updates for a message always use the *message's* parity so
/// a reduction wave sums a consistent cut.
///
/// Everything here is O(1) in the number of images except the
/// per-destination send counts, which grow with the number of *distinct*
/// destinations this image sent to in the scope (at most p; a few for the
/// usual fan-out).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.hpp"

namespace caf2::rt {

/// Per-destination send counts of one finish scope: an open-addressing hash
/// table keyed by world rank, with linear probing in one flat array kept at
/// most half full. No node per entry: memory is O(distinct destinations)
/// and an add costs O(1) amortised.
class SendCounts {
 public:
  /// One more message to world rank \p dest (>= 0).
  void add(int dest) {
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
    }
    slot(dest).count += 1;
  }

  /// Distinct destinations counted so far.
  std::size_t size() const { return size_; }

  /// Call \p fn(dest, count) once per destination, in no particular order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& entry : slots_) {
      if (entry.dest >= 0) {
        fn(static_cast<int>(entry.dest), entry.count);
      }
    }
  }

 private:
  struct Entry {
    std::int32_t dest = -1;  ///< -1 = empty slot
    std::int64_t count = 0;
  };

  /// \p dest's entry, claimed from the first empty slot on its probe path
  /// if absent. The table must have an empty slot.
  Entry& slot(int dest) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the top bits of the product spread strided ranks.
    std::size_t i = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(dest) * 0x9E3779B97F4A7C15ULL) >> shift_);
    for (;; i = (i + 1) & mask) {
      Entry& entry = slots_[i];
      if (entry.dest == dest) {
        return entry;
      }
      if (entry.dest < 0) {
        entry.dest = dest;
        ++size_;
        return entry;
      }
    }
  }

  void grow() {
    std::vector<Entry> old = std::move(slots_);
    slots_.assign(old.empty() ? 4 : 2 * old.size(), Entry{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    size_ = 0;
    for (const Entry& entry : old) {
      if (entry.dest >= 0) {
        slot(entry.dest).count = entry.count;
      }
    }
  }

  std::vector<Entry> slots_;  ///< power-of-two size, or empty
  std::size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(slots_.size())
};

struct EpochCounters {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t received = 0;
  std::uint64_t completed = 0;

  void fold_from(EpochCounters& other) {
    sent += other.sent;
    delivered += other.delivered;
    received += other.received;
    completed += other.completed;
    other = EpochCounters{};
  }
};

class FinishState {
 public:
  /// --- counter updates (parity = the message's epoch) ----------------------

  /// A tracked message to world rank \p dest left this image.
  void count_sent(bool odd, int dest) {
    epoch(odd).sent += 1;
    sent_to_.add(dest);
  }
  void count_delivered(bool odd) { epoch(odd).delivered += 1; }
  void count_received(bool odd) { epoch(odd).received += 1; }
  void count_completed(bool odd) { epoch(odd).completed += 1; }

  /// Receiving a message from an odd-epoch sender moves this image into its
  /// odd epoch (paper Fig. 7 line 32), so its subsequent sends carry odd
  /// parity and are excluded from the in-flight reduction wave.
  void on_receive_parity(bool odd) {
    if (odd) {
      present_odd_ = true;
    }
  }

  /// Parity that new sends from this image must carry.
  bool present_odd() const { return present_odd_; }

  /// Quiescence precondition (paper Fig. 7 line 4): every message this image
  /// sent in the even epoch has landed, and every message it received in the
  /// even epoch has completed execution. Waiting for this before reducing is
  /// what bounds detection to L+1 rounds (paper Theorem 1).
  bool even_quiesced() const {
    return even_.sent == even_.delivered && even_.received == even_.completed;
  }

  /// Enter a detection allreduce: proceed into the odd epoch.
  void enter_allreduce() { present_odd_ = true; }

  /// The value this image contributes to the detection sum.
  std::int64_t even_deficit() const {
    return static_cast<std::int64_t>(even_.sent) -
           static_cast<std::int64_t>(even_.completed);
  }

  /// Exit a detection allreduce: fold the odd counters into the even epoch
  /// and proceed into (the next) even epoch.
  void exit_allreduce() {
    even_.fold_from(odd_);
    present_odd_ = false;
    ++rounds_;
  }

  const EpochCounters& even() const { return even_; }
  const EpochCounters& odd() const { return odd_; }

  /// Detection allreduce rounds performed so far (reported by the Fig. 18
  /// benchmark).
  int rounds() const { return rounds_; }

  /// True once detection declared global termination for this scope.
  bool terminated() const { return terminated_; }
  void mark_terminated() { terminated_ = true; }

  /// --- epoch-free totals (used by the baseline detectors of §V) -----------

  std::uint64_t sent_total() const { return even_.sent + odd_.sent; }
  std::uint64_t delivered_total() const {
    return even_.delivered + odd_.delivered;
  }
  std::uint64_t received_total() const {
    return even_.received + odd_.received;
  }
  std::uint64_t completed_total() const {
    return even_.completed + odd_.completed;
  }
  bool quiesced_totals() const {
    return sent_total() == delivered_total() &&
           received_total() == completed_total();
  }

  /// Per-destination send counts, world rank -> messages sent there, for the
  /// X10-style centralized vector-counting detector. Sparse: one entry per
  /// distinct destination, so only that detector's wire carries X10's dense
  /// p-vector (it scatters these counts into one when it reports).
  const SendCounts& sent_to() const { return sent_to_; }

 private:
  EpochCounters& epoch(bool odd) { return odd ? odd_ : even_; }

  EpochCounters even_{};
  EpochCounters odd_{};
  SendCounts sent_to_;
  bool present_odd_ = false;
  bool terminated_ = false;
  int rounds_ = 0;
};

}  // namespace caf2::rt
