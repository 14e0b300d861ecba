#pragma once

/// \file network.hpp
/// Simulated interconnect: timing model + delivery.
///
/// A message initiated at virtual time t traverses four points that realize
/// the paper's completion spectrum (paper Fig. 1, DESIGN.md §4.2):
///
///   initiation  t                       send()/send_staged() returns
///   staging     t + size/bandwidth      source buffer read ("injected");
///                                       kStaged reported -> local data
///                                       completion of the operation
///   delivery    staging + latency + U[0, jitter]
///                                       message lands in the destination
///                                       mailbox; destination is unblocked
///   ack         delivery + ack_latency  kAcked reported at the initiator ->
///                                       local operation completion
///
/// Jitter makes channels non-FIFO, which the paper's termination-detection
/// algorithm must tolerate (its §III-A2 rejects FIFO-dependent algorithms).
///
/// send_staged() defers reading the source buffer to staging time: this is
/// what makes "overwrite the source before cofence()" a real data hazard in
/// the simulation, exactly as on hardware with a zero-copy NIC.
///
/// One pipeline in both delivery modes (DESIGN.md §4.7, §4.11, §4.12). Every
/// send is initiated, planned, staged and accounted the same way whether or not
/// the reliable-delivery protocol is on: plan() draws the whole timing at
/// initiation (the only jitter draw of a first attempt), kStaged is reported by
/// a source-side stage event at the planned staging time, account_send()
/// charges the message once its payload exists, and the send's callbacks wait
/// in its send record (below) until its last source-side event: the stage event
/// or the first acknowledgement. The modes part only in launch(), which puts
/// the message on the wire: bare mode posts the delivery and the ack, reliable
/// mode admits a flight and starts its first attempt at the same planned stage
/// and delivery times. A delivery goes to the destination through
/// Engine::post_for() — a plain post when both images share a shard, otherwise
/// a stage into the destination shard's inbox for the next window merge.
/// deliver_at >= now + latency >= now + lookahead by construction, so the
/// conservative-window contract holds. With an observer attached, the sender
/// reserves the flight span's id from its own image's counter at launch; the
/// receiver records the span under that id and the ack wake names it as its
/// cause, so the blame analyzer's ack edge survives shard boundaries.
///
/// Randomness is drawn per source image: every image owns one jitter stream
/// and one fault stream, both children of the network seed, and only the
/// sender draws from them. Draws then follow the image's own execution, so a
/// run draws the same values at every shard count, and a fault plan that
/// never fires leaves every delivery and ack time of the bare run in place.
///
/// Send records (DESIGN.md §4.6). What a send needs after initiation on the
/// source side — a staged send's header, timing and StageReader, and the
/// SendCallbacks of any send that reports kStaged or kAcked — lives in a
/// SendRecord in the slab of the source image's shard (sim::SlotPool),
/// recycled through a free list. The stage and ack closures carry only the
/// record's address, so every posted closure fits an engine slot
/// (sim::InlineFn, checked by a static_assert at each post site). A record
/// is touched only by events that run at its poster's home, on the shard
/// that made it, and the last of them releases it: the stage event, or the
/// first acknowledgement (a bare ack event or a reliable flight's first
/// handle_ack). The delivery, which may cross shards, carries its message in
/// its own closure. Records change no event: a send posts the same stage,
/// delivery and ack events at the same times either way.
///
/// Reliable delivery (DESIGN.md §4.7). With an active FaultPlan the network
/// layers a retransmission protocol over the lossy wire:
///  - every message carries a per-(source, dest) sequence number and is
///    retained at the sender (a ReliableFlight) until acknowledged;
///  - the receiver keeps a per-link dedup window (a compacted set of seen
///    sequence numbers), so duplicated or retransmitted deliveries land in
///    the mailbox exactly once — and acks are re-sent for duplicates, which
///    recovers from lost acks;
///  - a virtual-time retransmit timer with exponential backoff, running from
///    each attempt's staging point, resends unacknowledged messages with
///    fresh jitter; after ReliabilityParams::max_attempts the engine fails
///    the run with a watchdog report naming the undeliverable message
///    instead of hanging.
/// kStaged is reported exactly once (by the shared stage event) and kAcked
/// exactly once (at the first acknowledgement), so finish counters and
/// cofence hazards are oblivious to loss.
///
/// The protocol's state lives in per-image cells (ReliableImage), touched
/// only by the image's own shard: as a source, an image's cell holds its
/// retained flights, retransmit bookkeeping, fault counters and the sender
/// halves of its links (next_seq, initiated) keyed by destination; as a
/// destination, its dedup windows keyed by source. Link halves are created
/// on first use, so no state is shared and none is sized p². A flight id
/// names its source image, so acks and retransmit timers find their cell
/// without knowing the partition. Every fault decision of an attempt —
/// including both ack losses — is rolled at the sender before anything is
/// scheduled, and the receiver acknowledges every non-ack-dropped physical
/// delivery regardless of its dedup outcome; the sender therefore schedules
/// handle_ack at the delivery's known time plus ack latency *itself*, with
/// no return event (an ack latency below the lookahead would otherwise
/// violate the conservative window). Ack cancellation is then a plain
/// source-local map erase. A delivery carries its metadata (seq,
/// initiation time, expected-delivery mark, span id) in the event closure
/// instead of reading the sender-owned flight record.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/mailbox.hpp"
#include "net/message.hpp"
#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/slot_pool.hpp"
#include "support/config.hpp"
#include "support/rng.hpp"

namespace caf2::obs {
class Recorder;
class FlightRecorder;
struct PmNetwork;
}

namespace caf2::net {

/// The completion points a send reports (paper Fig. 1), as mask bits.
enum SendPoint : std::uint8_t {
  /// Source buffer has been read; local data completion on the source image.
  kStaged = 1,
  /// Delivery acknowledged at the initiator; local operation completion.
  kAcked = 2,
};

/// Completion callbacks of one send: a single move-only callable, invoked
/// as fn(point) once for each point in the mask it was given — kStaged
/// before kAcked — and destroyed after the last. Callbacks run as engine
/// callbacks (no participant token): they may post messages and unblock
/// images but must not block. The callable is stored in place, so a send's
/// callbacks allocate nothing; one that does not fit fails to compile.
class SendCallbacks {
 public:
  using Fn = sim::InlineFunction<void(SendPoint), 72>;

  SendCallbacks() = default;

  /// \p points is a mask of SendPoint bits.
  template <class F>
  SendCallbacks(unsigned points, F&& fn)
      : fn_(std::forward<F>(fn)), points_(static_cast<std::uint8_t>(points)) {
    static_assert(Fn::stores_inline<std::remove_cvref_t<F>>,
                  "send callbacks outgrow SendCallbacks::Fn");
  }

  SendCallbacks(SendCallbacks&& other) noexcept
      : fn_(std::move(other.fn_)), points_(std::exchange(other.points_, 0)) {}
  SendCallbacks& operator=(SendCallbacks&& other) noexcept {
    fn_ = std::move(other.fn_);
    points_ = std::exchange(other.points_, 0);
    return *this;
  }

  bool wants(SendPoint point) const { return (points_ & point) != 0; }

  void reset() {
    fn_.reset();
    points_ = 0;
  }

  /// Report \p point (which must be wanted) and drop it from the mask.
  void operator()(SendPoint point) {
    points_ = static_cast<std::uint8_t>(points_ & ~point);
    fn_(point);
  }

 private:
  Fn fn_;
  std::uint8_t points_ = 0;
};

/// Produces a staged send's payload at staging time (Network::send_staged).
/// Post sites check StageReader::stores_inline<> for their reader.
using StageReader = sim::InlineFunction<std::vector<std::uint8_t>(), 48>;

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
                   StageReader read, SendCallbacks callbacks = {});

  /// Install the hook run at the initiator when the delivery of a
  /// finish-tracked message (MessageHeader::tracked) is acknowledged, before
  /// the send's own kAcked callback. The runtime counts the finish scope's
  /// `delivered` there. A tracked send gets an ack event whenever the hook
  /// is installed, whether or not its callbacks want kAcked.
  void set_tracked_ack(std::function<void(const MessageHeader&)> hook) {
    tracked_ack_ = std::move(hook);
  }

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
  const ImageTraffic& traffic(int image) const;

  /// Reset the per-image traffic counters (benchmarks call this between
  /// measurement phases).
  void reset_traffic();

  /// --- reliability / fault introspection -----------------------------------

  /// True when the reliable-delivery protocol is layered in for this run.
  bool reliable() const { return reliable_; }

  /// Injected-fault and protocol counters, summed over images (all zero when
  /// reliable() is off).
  FaultStats fault_stats() const;

  /// Number of reliable messages currently unacknowledged.
  std::size_t inflight_reliable() const;

  /// Send records (see the file comment) in use now, and the most ever in
  /// use, each summed over shards.
  std::size_t send_records_in_use() const;
  std::size_t send_records_high_water() const;

  /// Snapshot the network's postmortem section: reliability mode, in-flight
  /// reliable messages (first obs::kMaxListedFlights of them), fault stats.
  void fill_postmortem(obs::PmNetwork& net) const;

  /// Attach an observability recorder (nullptr detaches; see obs/obs.hpp).
  /// Deliveries and acks then record flight spans on the network track, note
  /// unblock causes, and bump message counters — without ever scheduling or
  /// reordering events, so the schedule is unchanged.
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
  /// Plan a send (or a retransmission) of \p bytes by \p source initiated
  /// at \p now; the network's one jitter draw.
  Timing plan(int source, double now, std::size_t bytes);

  /// Source-side accounting charged when the message is injected.
  void account_send(const Message& message);

  /// A send's source-side state between initiation and its last
  /// source-side event, kept in a per-shard slab (sim::SlotPool) so the
  /// staging and ack closures carry only its address. A staged send keeps
  /// its header, timing and reader here until staging; any send whose
  /// callbacks (or finish tracking) want an ack keeps the record until the
  /// ack, which releases it.
  struct SendRecord {
    MessageHeader header;
    Timing timing{};
    double init_us = 0.0;
    std::uint64_t span = 0;  ///< flight span id (0 without an observer)
    StageReader read;
    SendCallbacks callbacks;

    /// Drop the reader and callbacks (sim::SlotPool::release); the plain
    /// fields are rewritten by the next send that takes the slot.
    void reset() {
      read.reset();
      callbacks.reset();
    }
  };

  /// A send record's address: its shard's slab and its slot there.
  struct RecordRef {
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
  };

  /// A fresh record in the slab of \p source's shard. A send runs on its
  /// source image's shard, like every per-source state here, and so do the
  /// stage and ack events it posts at its own home.
  RecordRef new_record(int source);
  SendRecord& record(RecordRef ref) {
    return records_[ref.shard][ref.slot];
  }
  void release(RecordRef ref) { records_[ref.shard].release(ref.slot); }

  /// True when the ack of a send with \p header and \p callbacks must be
  /// simulated: its callbacks want kAcked, or it is finish-tracked and a
  /// tracked-ack hook is installed.
  bool wants_ack(const MessageHeader& header,
                 const SendCallbacks& callbacks) const {
    return callbacks.wants(kAcked) || (header.tracked && tracked_ack_);
  }

  /// Initiator side of an acknowledgement: the tracked-ack hook, then the
  /// send's kAcked callback.
  void report_ack(const MessageHeader& header, SendCallbacks& callbacks);

  /// Put \p message on the wire, the one place the two delivery modes part.
  /// Bare: post the delivery at timing.deliver_at to its destination and,
  /// when \p acked is set, the ack at timing.ack_at to the calling (source)
  /// context. Reliable: admit the flight and start its first attempt at
  /// \p timing. Either way the first acknowledgement reports through the
  /// \p acked record and releases it.
  void launch(Message message, std::optional<RecordRef> acked,
              const Timing& timing, double init_us);

  /// Staging event of a staged send: read the payload, report kStaged, and
  /// launch.
  void stage(RecordRef ref);

  /// Ack event of a bare send.
  void ack(RecordRef ref);

  /// What an observed delivery carries besides the message. Boxed, so the
  /// delivery closure fits an InlineFn slot: only observed runs allocate it.
  struct ObservedFlight {
    double init_us = 0.0;
    std::uint64_t span = 0;
  };

  /// Receiver half of a send, on the destination's shard: mailbox push,
  /// unblock, flight-recorder entry, and the flight span (under the id the
  /// sender reserved, 0 without an observer). \p init_us is the send's
  /// initiation time.
  void deliver(Message message, double init_us, std::uint64_t span);

  /// --- reliable-delivery protocol ------------------------------------------

  /// Sender half of a (source, dest) link: per-link sequence numbers and
  /// initiation ordinals. Lives in the source image's cell.
  struct LinkSender {
    std::uint64_t next_seq = 0;
    std::uint64_t initiated = 0;
  };

  /// Receiver half of a link: the dedup window, i.e. the set of seen
  /// sequence numbers at or above `floor`, compacted by advancing the floor
  /// over contiguous runs (everything below the floor has been seen). Lives
  /// in the destination image's cell.
  struct DedupWindow {
    std::uint64_t floor = 0;
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
    double dup_offset_us = 0.0;  ///< duplicate lands this much later
  };

  /// One unacknowledged reliable message, retained for retransmission.
  struct ReliableFlight {
    std::shared_ptr<const Message> message;
    /// The send record its first acknowledgement reports through and
    /// releases, when the send wants an ack (see launch()).
    std::optional<RecordRef> acked;
    std::uint64_t seq = 0;      ///< per-link sequence number
    std::uint64_t ordinal = 0;  ///< per-link initiation ordinal (1-based)
    int attempts = 0;           ///< delivery attempts made so far
    double first_sent_us = 0.0;  ///< initiation time
    double rto_us = 0.0;        ///< current retransmit timeout
    // Observability only. "Expected" marks include the *maximum* jitter, so
    // a fault-free reliable run records no retransmit-delay spans and blame
    // reattribution fires only on genuinely fault-lengthened waits.
    double expected_deliver_us = 0.0;
    double expected_ack_us = 0.0;
    std::uint64_t obs_span = 0;  ///< flight span id (parent of the ack wake)
  };

  /// Register a new flight initiated at \p init_us (assigns link seq +
  /// ordinal, and reserves the flight span id when an observer is attached)
  /// in its source image's cell and return its id (source image in the top
  /// 32 bits, the cell's counter below).
  std::uint64_t admit_flight(Message message, std::optional<RecordRef> acked,
                             double init_us);

  /// Launch the next delivery attempt of flight \p id, planned by \p timing
  /// (the send's own plan for the first attempt, a fresh one for each
  /// retransmission): roll faults, post the delivery (and duplicate) events
  /// through Engine::post_for, schedule handle_ack at each delivery's known
  /// time plus ack latency (see the file comment), and arm the retransmit
  /// timer at timing.stage_at plus the flight's timeout.
  void start_attempt(std::uint64_t id, const Timing& timing);

  AttemptFaults roll_faults(const ReliableFlight& flight);

  /// Receiver side of one physical delivery (primary or duplicate), on the
  /// destination's shard: the dedup check, then deliver() for a first
  /// sighting. All metadata rides in the arguments, the sender-owned flight
  /// record is never touched, and no ack is posted (the sender scheduled it
  /// at attempt time).
  void deliver_attempt(const std::shared_ptr<const Message>& message,
                       std::uint64_t seq, double first_sent_us,
                       double expected_deliver_us, std::uint64_t span);

  /// Sender side of one acknowledgement; idempotent (late/duplicate acks of
  /// an already-completed flight are ignored). The first one erases the
  /// flight, then reports through its send record and releases it, as ack()
  /// does.
  void handle_ack(std::uint64_t id);

  void on_retransmit_timer(std::uint64_t id, int attempt);

  /// Default initial retransmit timeout of a \p bytes message: a little over
  /// twice the worst-case round trip, including the largest configured fault
  /// delay.
  double auto_rto(std::size_t bytes) const;

  sim::Engine& engine_;
  NetworkParams params_;
  /// Per source image: the jitter streams, and the fault streams when a
  /// FaultPlan is active. Only the image's own shard draws from them.
  std::vector<Xoshiro256ss> jitter_;
  std::vector<Xoshiro256ss> fault_;
  std::vector<Mailbox> mailboxes_;
  /// traffic_[x] is only ever written by image x's shard (out-fields at the
  /// source, in-fields at the destination), so plain counters stay safe.
  std::vector<ImageTraffic> traffic_;
  /// Global totals are bumped from every shard: relaxed atomics.
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};

  // reliable-delivery state (empty when reliable_ is false)
  bool reliable_ = false;
  /// Per-image reliable-protocol cell. Only the image's own shard touches
  /// it, so its maps need no locking: as a source it adds flights, rolls
  /// faults, handles acks and fires retransmit timers; as a destination it
  /// checks dedup windows (and counts duplicates_suppressed).
  struct ReliableImage {
    std::map<std::uint64_t, ReliableFlight> inflight;  ///< by flight id
    std::uint64_t next_flight = 0;
    FaultStats stats;
    std::unordered_map<int, LinkSender> senders;     ///< by destination
    std::unordered_map<int, DedupWindow> receivers;  ///< by source
  };
  std::vector<ReliableImage> rel_;  ///< one cell per image

  /// The cell of flight \p id's source image.
  ReliableImage& rel_of(std::uint64_t id) {
    return rel_[static_cast<std::size_t>(id >> 32)];
  }

  /// Send records, one slab per engine shard.
  std::vector<sim::SlotPool<SendRecord>> records_;
  std::function<void(const MessageHeader&)> tracked_ack_;

  double max_extra_delay_us_ = 0.0;
  obs::Recorder* observer_ = nullptr;
  obs::FlightRecorder* flight_recorder_ = nullptr;
};

}  // namespace caf2::net
