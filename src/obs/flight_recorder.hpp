#pragma once

/// \file flight_recorder.hpp
/// Always-on structured flight recorder (DESIGN.md §4.10).
///
/// A FlightRecorder keeps one fixed-size ring of POD events per image. It is
/// the "black box" counterpart to the span Recorder (obs.hpp): where spans
/// are opt-in and sized for whole-run profiling, the flight recorder is on by
/// default and sized for the *last few moments before a failure*. The
/// runtime sizes each ring to exactly the tail a postmortem embeds
/// (kPostmortemRecentEvents, postmortem.hpp), since the postmortem is its
/// only reader; tests may build rings of any capacity.
///
/// Invariants the rest of the runtime relies on:
///   - record() never allocates: every image's ring is a fixed window of one
///     slab allocated once at construction, and overwrites oldest-first.
///     Instrumented schedules stay bit-identical because recording never
///     touches the engine (no events scheduled, no blocking, no RNG draws).
///   - The slab is left uninitialised, so construction costs one allocation
///     however many images there are (640 B per image at the runtime's 16
///     entries of 40 B). Only slots that record() wrote are ever read:
///     recent() copies the last min(total, capacity) entries of a ring, and
///     nothing else reads the slab.
///   - No locking: an image's ring is written only on its home shard, where
///     exactly one simulated context runs at a time (the engine's token
///     discipline), and postmortem collection happens on a quiesced engine
///     (every shard parked at the window barrier, or the only running
///     context of a one-shard run), so reads are ordered after all writes.
///   - `label` fields must point at string literals (or other storage that
///     outlives the recorder); the ring stores the pointer, not a copy.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace caf2::obs {

/// What happened. Meanings of the generic payload fields `a`/`b`/`peer`
/// depend on the kind:
///   kSend            peer=dest    a=bytes         b=handler id
///   kDeliver         peer=source  a=bytes         b=handler id
///   kAck             peer=dest    a=link seq      b=0
///   kRetransmit      peer=dest    a=link seq      b=attempt number
///   kFaultDrop/kFaultDuplicate/kFaultDelay/kFaultAckLoss
///                    peer=dest    a=link seq      b=0
///                    (kFaultAckLoss is stamped with the delivery time on
///                    every path; the cross-shard reliable path records it
///                    eagerly at send time — recording must not schedule
///                    events — so its ring insertion order can run locally
///                    ahead of the stamp)
///   kWaitBegin/kWaitEnd
///                    peer=resource owner          a,b=resource payload
///   kHandler         peer=source  a=handler id    b=0
///   kEpochOdd        peer=source  a=finish team   b=finish seq
///   kEpochFold       peer=-1      a=finish team   b=finish seq
enum class FrKind : std::uint8_t {
  kSend,
  kDeliver,
  kAck,
  kRetransmit,
  kFaultDrop,
  kFaultDuplicate,
  kFaultDelay,
  kFaultAckLoss,
  kWaitBegin,
  kWaitEnd,
  kHandler,
  kEpochOdd,
  kEpochFold,
};

const char* to_string(FrKind kind);

/// One recorded moment. POD; copied by value into postmortems.
struct FrEvent {
  double t = 0.0;             ///< virtual time (us)
  std::uint64_t a = 0;        ///< kind-specific payload (see FrKind)
  std::uint64_t b = 0;        ///< kind-specific payload (see FrKind)
  std::int32_t peer = -1;     ///< kind-specific image rank, -1 = none
  FrKind kind = FrKind::kSend;
  const char* label = nullptr;  ///< optional literal (e.g. wait reason)
};

/// Per-image fixed-capacity rings of FrEvents, carved out of one slab:
/// image i's ring is the capacity() slots starting at i << log2(capacity()).
class FlightRecorder {
 public:
  /// \p entries_per_image is rounded up to a power of two (minimum 8) so the
  /// ring index is a mask, not a modulo.
  FlightRecorder(int num_images, std::size_t entries_per_image);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Append one event to \p image's ring, overwriting the oldest entry when
  /// full. Hot path: two stores and an increment.
  void record(int image, double t, FrKind kind, int peer = -1,
              std::uint64_t a = 0, std::uint64_t b = 0,
              const char* label = nullptr) {
    const std::size_t index = static_cast<std::size_t>(image);
    Ring& ring = rings_[index];
    slab_[(index << shift_) + (ring.total & mask_)] =
        FrEvent{t, a, b, peer, kind, label};
    ++ring.total;
  }

  /// The last min(max_n, recorded) events of \p image, oldest first.
  std::vector<FrEvent> recent(int image, std::size_t max_n) const;

  /// Total events ever recorded for \p image (>= what the ring retains).
  std::uint64_t total(int image) const {
    return rings_[static_cast<std::size_t>(image)].total;
  }

  std::size_t capacity() const { return mask_ + 1; }
  int num_images() const { return static_cast<int>(rings_.size()); }

 private:
  struct Ring {
    std::uint64_t total = 0;  ///< monotone; the ring holds the tail
  };

  /// Frees the slab's raw storage (FrEvent is trivially destructible).
  struct SlabDelete {
    void operator()(FrEvent* slab) const { ::operator delete(slab); }
  };

  std::vector<Ring> rings_;
  /// num_images() * capacity() slots, uninitialised until recorded.
  std::unique_ptr<FrEvent[], SlabDelete> slab_;
  unsigned shift_ = 0;  ///< log2(capacity())
  std::uint64_t mask_ = 0;
};

}  // namespace caf2::obs
