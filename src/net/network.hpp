#pragma once

/// \file network.hpp
/// Simulated interconnect: timing model + delivery.
///
/// A message initiated at virtual time t traverses four points that realize
/// the paper's completion spectrum (paper Fig. 1, DESIGN.md §4.2):
///
///   initiation  t                       send()/send_staged() returns
///   staging     t + size/bandwidth      source buffer read ("injected");
///                                       on_staged fires -> local data
///                                       completion of the operation
///   delivery    staging + latency + U[0, jitter]
///                                       message lands in the destination
///                                       mailbox; destination is unblocked
///   ack         delivery + ack_latency  on_acked fires at the initiator ->
///                                       local operation completion
///
/// Jitter makes channels non-FIFO, which the paper's termination-detection
/// algorithm must tolerate (its §III-A2 rejects FIFO-dependent algorithms).
///
/// send_staged() defers reading the source buffer to staging time: this is
/// what makes "overwrite the source before cofence()" a real data hazard in
/// the simulation, exactly as on hardware with a zero-copy NIC.
///
/// Reliable delivery (DESIGN.md §4.7). With an active FaultPlan (or
/// ReliabilityParams::Mode::kOn) the network layers a retransmission
/// protocol over the lossy wire:
///  - every message carries a per-(source, dest) sequence number and is
///    retained at the sender until acknowledged;
///  - the receiver keeps a per-link dedup window (a compacted set of seen
///    sequence numbers), so duplicated or retransmitted deliveries land in
///    the mailbox exactly once — and acks are re-sent for duplicates, which
///    recovers from lost acks;
///  - a virtual-time retransmit timer with exponential backoff resends
///    unacknowledged messages; after ReliabilityParams::max_attempts the
///    engine fails the run with a watchdog report naming the undeliverable
///    message instead of hanging.
/// on_staged fires exactly once (at the first attempt's staging point) and
/// on_acked exactly once (at the first acknowledgement), so finish counters
/// and cofence hazards are oblivious to loss. When the protocol is off, the
/// seed's bare three-event flight chain runs unchanged.
///
/// Sharded engines (DESIGN.md §4.11, §4.12). When the engine partitions
/// images across worker threads, a send whose source and destination live on
/// the same shard takes the legacy path verbatim. A cross-shard send draws
/// its whole timing plan at initiation from the *source shard's* jitter
/// stream (one independent stream per shard keeps multi-shard runs
/// deterministic for a fixed shard count), runs on_staged and on_acked on
/// the source shard at their planned times, and hands the delivery to the
/// destination shard through Engine::post_for(), which stages it into that
/// shard's inbox for the next window merge. deliver_at >= now + latency >=
/// now + lookahead by construction, so the conservative-window contract
/// holds.
///
/// The reliable-delivery protocol runs sharded too (DESIGN.md §4.12).
/// Protocol state is owned by the *source* shard: retained flights, flight
/// ids, retransmit timers, and the fault counters live in per-shard cells
/// (ReliableShard), and each shard rolls its attempts from its own fault
/// stream. A link's sender fields (next_seq, initiated) are only ever
/// touched by the source image's shard and its dedup fields (dedup_floor,
/// seen) only by the destination's, so LinkState needs no further
/// partitioning. Every fault decision of an attempt — including both ack
/// losses — is rolled at the sender before anything is scheduled, and the
/// receiver acknowledges every non-ack-dropped physical delivery regardless
/// of its dedup outcome; the sender can therefore schedule handle_ack at the
/// delivery's known time plus ack latency *itself*, with no cross-shard
/// return event (an ack latency below the lookahead would otherwise violate
/// the conservative window). Ack cancellation is then a plain source-local
/// map erase — no tombstones cross shards. A cross-shard delivery carries
/// its metadata (seq, first-sent, expected-delivery marks) in the event
/// closure instead of reading the sender-owned flight record.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/mailbox.hpp"
#include "net/message.hpp"
#include "sim/engine.hpp"
#include "support/config.hpp"
#include "support/rng.hpp"

namespace caf2::obs {
class Recorder;
class FlightRecorder;
struct PmNetwork;
}

namespace caf2::net {

/// Completion callbacks of one send. Both run as engine callbacks (no
/// participant token): they may post messages and unblock images but must
/// not block.
struct SendCallbacks {
  /// Source buffer has been read; local data completion on the source image.
  std::function<void()> on_staged;
  /// Delivery acknowledged at the initiator; local operation completion.
  std::function<void()> on_acked;
};

/// Per-image traffic counters (used by the detector-ablation benchmark to
/// expose the X10-style centralized hotspot).
struct ImageTraffic {
  std::uint64_t messages_in = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t messages_out = 0;
  std::uint64_t bytes_out = 0;
};

class Network {
 public:
  Network(sim::Engine& engine, NetworkParams params, std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Send a message whose payload is already materialized (spawn arguments
  /// are evaluated at initiation, paper Fig. 4 "Spawn" row). Staging still
  /// models injection time for the payload size.
  void send(Message message, SendCallbacks callbacks = {});

  /// Send a message whose payload is produced at *staging time* by \p read
  /// (asynchronous copies: the network reads the source buffer when the
  /// transfer is injected, not when the call returns). \p size_hint must be
  /// the number of bytes \p read will produce.
  void send_staged(MessageHeader header, std::size_t size_hint,
                   std::function<std::vector<std::uint8_t>()> read,
                   SendCallbacks callbacks = {});

  Mailbox& mailbox(int image);
  const Mailbox& mailbox(int image) const;

  const NetworkParams& params() const { return params_; }
  int size() const { return static_cast<int>(mailboxes_.size()); }

  std::uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  const ImageTraffic& traffic(int image) const { return traffic_[image]; }

  /// Reset the per-image traffic counters (benchmarks call this between
  /// measurement phases).
  void reset_traffic();

  /// --- reliability / fault introspection -----------------------------------

  /// True when the reliable-delivery protocol is layered in for this run.
  bool reliable() const { return reliable_; }

  /// Injected-fault and protocol counters, aggregated over shards (all zero
  /// when reliable() is off).
  FaultStats fault_stats() const;

  /// Per-shard fault/protocol counters (one entry per engine shard; a single
  /// entry for serial runs). Deliveries dropped/duplicated/delayed, ack
  /// losses, and retransmits are charged to the *source* shard;
  /// duplicates_suppressed to the destination shard.
  std::vector<FaultStats> shard_fault_stats() const;

  /// Number of reliable messages currently unacknowledged (summed over
  /// shards).
  std::size_t inflight_reliable() const;

  /// Snapshot the network's postmortem section: reliability mode, in-flight
  /// reliable messages (first obs::kMaxListedFlights of them), fault stats.
  void fill_postmortem(obs::PmNetwork& net) const;

  /// Attach an observability recorder (nullptr detaches; see obs/obs.hpp).
  /// Deliveries and acks then record flight spans on the network track, note
  /// unblock causes, and bump message counters — without ever scheduling or
  /// reordering events, so the flight chains are unchanged.
  void set_observer(obs::Recorder* observer) { observer_ = observer; }

  /// Attach the always-on flight recorder (nullptr detaches; see
  /// obs/flight_recorder.hpp). Sends, deliveries, acks, retransmissions, and
  /// injected faults then land in the per-image rings — plain ring stores,
  /// never scheduling or reordering events.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    flight_recorder_ = recorder;
  }

 private:
  struct Timing {
    double stage_at;
    double deliver_at;
    double ack_at;
  };
  Timing plan(double now, std::size_t bytes);

  /// The jitter stream timing draws come from: the per-shard stream of the
  /// calling shard on a sharded engine, the single legacy stream otherwise.
  Xoshiro256ss& jitter_rng();

  /// The fault stream attempt decisions come from: the per-shard stream of
  /// the calling shard on a sharded engine, the single legacy stream
  /// otherwise.
  Xoshiro256ss& fault_rng();

  /// True when source and destination images live on different shards.
  bool cross_shard(int source, int dest) const;

  /// The calling context's shard index (0 on an unsharded engine) — the
  /// recorder net lane and ReliableShard cell every source-side operation
  /// uses.
  int calling_shard_index() const;

  /// One in-flight message. A flight owns the message plus its completion
  /// callbacks and walks the stage → deliver → ack chain as a *single*
  /// self-rescheduling engine event: later phases' sequence numbers are
  /// reserved up front (Engine::reserve_seq) so lazy scheduling dispatches
  /// in exactly the order the seed's eager three-event schedule produced,
  /// and consecutive phases that fall on the same virtual time are run
  /// inline within one event instead of bouncing through the heap.
  struct Flight {
    Message message;
    SendCallbacks callbacks;
    Timing timing{};
    std::uint64_t deliver_seq = 0;
    std::uint64_t ack_seq = 0;
    bool has_ack = false;
    double init_us = 0.0;  ///< initiation time (observability only)
  };

  /// Source-side accounting charged when the message is injected.
  void account_send(const Message& message);

  /// Post the delivery event at (timing.deliver_at, deliver_seq).
  void schedule_deliver(Flight flight);

  /// Execute the delivery (and, when ack_at coincides, the ack) now.
  void run_deliver_phase(Flight flight);

  /// --- cross-shard delivery (sharded engines only) --------------------------

  /// send() when source and destination live on different shards.
  void send_cross(Message message, SendCallbacks callbacks);

  /// send_staged() when source and destination live on different shards.
  void send_staged_cross(MessageHeader header, std::size_t size_hint,
                         std::function<std::vector<std::uint8_t>()> read,
                         SendCallbacks callbacks);

  /// Destination-shard half of a cross-shard send: runs as a staged call on
  /// the destination shard (mailbox push, unblock, flight-recorder entry,
  /// observer spans on the destination shard's net lane). \p init_us is the
  /// send's initiation time, carried in the closure because the flight
  /// record stays on the source shard.
  void deliver_cross(Message message, double init_us);

  /// --- reliable-delivery protocol ------------------------------------------

  /// Per-(source, dest) link state. The sender side assigns sequence numbers
  /// and initiation ordinals; the receiver side keeps the dedup window: the
  /// set of seen sequence numbers at or above `dedup_floor`, compacted by
  /// advancing the floor over contiguous runs (everything below the floor
  /// has been seen).
  struct LinkState {
    std::uint64_t next_seq = 0;
    std::uint64_t initiated = 0;
    std::uint64_t dedup_floor = 0;
    std::set<std::uint64_t> seen;

    /// First sighting of \p seq? (Inserts and compacts when it is.)
    bool accept(std::uint64_t seq);
  };

  /// Fault decisions and timing draws for one delivery attempt. A fixed
  /// number of RNG values is consumed per attempt regardless of outcomes, so
  /// the fault stream stays aligned across configuration tweaks.
  struct AttemptFaults {
    bool drop = false;
    bool duplicate = false;
    bool ack_drop = false;      ///< ack of the primary delivery is lost
    bool dup_ack_drop = false;  ///< ack of the duplicate delivery is lost
    double extra_delay_us = 0.0;
    double jitter_us = 0.0;
    double dup_offset_us = 0.0;  ///< duplicate lands this much later
  };

  /// One unacknowledged reliable message, retained for retransmission.
  struct ReliableFlight {
    std::shared_ptr<const Message> message;
    SendCallbacks callbacks;
    std::uint64_t seq = 0;      ///< per-link sequence number
    std::uint64_t ordinal = 0;  ///< per-link initiation ordinal (1-based)
    int attempts = 0;           ///< delivery attempts made so far
    double first_sent_us = 0.0;
    double inject_us = 0.0;     ///< injection cost charged per attempt
    double rto_us = 0.0;        ///< current retransmit timeout
    // Observability only. "Expected" marks include the *maximum* jitter, so
    // a fault-free reliable run records no retransmit-delay spans and blame
    // reattribution fires only on genuinely fault-lengthened waits.
    double expected_deliver_us = 0.0;
    double expected_ack_us = 0.0;
    std::uint64_t obs_span = 0;  ///< flight span id (parent of the ack wake)
  };

  void send_reliable(Message message, SendCallbacks callbacks);
  void send_staged_reliable(MessageHeader header, std::size_t size_hint,
                            std::function<std::vector<std::uint8_t>()> read,
                            SendCallbacks callbacks);

  /// Register a new flight (assigns link seq + ordinal) in the calling
  /// shard's cell and return its id (source shard in the top 16 bits, cell-
  /// local counter below — serial ids are the plain counter).
  std::uint64_t admit_flight(Message message, SendCallbacks callbacks,
                             double inject_us);

  /// Launch the next delivery attempt of flight \p id: roll faults, post the
  /// delivery (and duplicate) events, and arm the retransmit timer. For a
  /// cross-shard flight the deliveries go through Engine::post_for and the
  /// sender schedules handle_ack itself at the known delivery time plus ack
  /// latency (see the file comment), so no event ever crosses back against
  /// the conservative window.
  void start_attempt(std::uint64_t id);

  AttemptFaults roll_faults(const ReliableFlight& flight);

  /// Receiver side of one physical delivery (primary or duplicate) when both
  /// endpoints share a shard: may read the sender-owned flight record
  /// directly and posts the ack itself.
  void deliver_attempt(const std::shared_ptr<const Message>& message,
                       std::uint64_t seq, std::uint64_t flight_id,
                       bool ack_dropped);

  /// Receiver side of one cross-shard physical delivery: all metadata rides
  /// in the arguments, the sender-owned flight record is never touched, and
  /// no ack is posted (the sender simulated it at schedule time).
  void deliver_attempt_cross(const std::shared_ptr<const Message>& message,
                             std::uint64_t seq, double first_sent_us,
                             double expected_deliver_us);

  /// Sender side of one acknowledgement; idempotent (late/duplicate acks of
  /// an already-completed flight are ignored).
  void handle_ack(std::uint64_t id);

  void on_retransmit_timer(std::uint64_t id, int attempt);

  /// Default initial retransmit timeout: a little over twice the worst-case
  /// round trip, including the largest configured fault delay.
  double auto_rto(double inject_us) const;

  LinkState& link(int source, int dest);

  sim::Engine& engine_;
  NetworkParams params_;
  Xoshiro256ss jitter_rng_;
  /// One jitter stream per shard on a sharded engine (empty otherwise):
  /// each shard's timing draws are then a pure function of that shard's
  /// deterministic execution, independent of cross-shard interleaving.
  std::vector<Xoshiro256ss> shard_jitter_;
  std::vector<Mailbox> mailboxes_;
  /// traffic_[x] is only ever written by image x's shard (out-fields at the
  /// source, in-fields at the destination), so plain counters stay safe.
  std::vector<ImageTraffic> traffic_;
  /// Global totals are bumped from every shard: relaxed atomics.
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};

  // reliable-delivery state (empty when reliable_ is false)
  bool reliable_ = false;
  bool faults_active_ = false;
  Xoshiro256ss fault_rng_;
  /// One fault stream per shard on a sharded engine (empty otherwise),
  /// mirroring shard_jitter_: each shard's attempt decisions are a pure
  /// function of its own deterministic execution.
  std::vector<Xoshiro256ss> shard_fault_;
  std::vector<LinkState> links_;  ///< size() * size(), row-major by source
  /// Per-shard reliable-protocol cell: the flights retained by this (source)
  /// shard, its flight-id counter, and its fault counters. Flight ids are
  /// (shard << 48) | local, so id >> 48 recovers the owning cell from
  /// anywhere (serial runs use cell 0 and get the plain counter).
  struct ReliableShard {
    std::map<std::uint64_t, ReliableFlight> inflight;
    std::uint64_t next_flight_id = 0;
    FaultStats stats;
  };
  std::vector<ReliableShard> rel_shards_;  ///< engine shard count cells (>= 1)

  /// The calling shard's protocol cell.
  ReliableShard& rel_shard() {
    return rel_shards_[static_cast<std::size_t>(calling_shard_index())];
  }
  /// The cell owning flight \p id (its source shard's).
  ReliableShard& rel_shard_of(std::uint64_t id) {
    return rel_shards_[static_cast<std::size_t>(id >> 48)];
  }

  double max_extra_delay_us_ = 0.0;
  obs::Recorder* observer_ = nullptr;
  obs::FlightRecorder* flight_recorder_ = nullptr;
};

}  // namespace caf2::net
