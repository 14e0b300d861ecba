#pragma once

/// \file obs.hpp
/// caf2::obs — op-level span recorder and metrics registry (DESIGN.md §4.9).
///
/// The paper's central claims are *attributional*: cofence costs less than
/// events costs less than finish (Fig. 12), and SPMD termination detection
/// converges in a bounded number of reduction waves (Fig. 18). End-to-end
/// virtual times cannot show where an image's time went; this subsystem can.
/// Every user-visible operation — put/get, event wait/notify, finish
/// enter/body/detect, cofence, collective phases, spawn, steal idling — opens
/// a span on the *virtual* clock, and every message delivery links the span
/// of the waiter it unblocked to the flight that woke it, so the span set
/// forms a happens-before DAG that the blame analyzer (obs/blame.hpp) can
/// replay after the run.
///
/// Layering: obs sits directly above caf2_support and below caf2_sim — the
/// engine, network, and runtime all hold a raw `Recorder*` (null when
/// ObsConfig::enabled is false). Recording discipline, which is what keeps
/// instrumented runs bit-identical to uninstrumented ones:
///  - a hook may only append to per-image buffers and bump counters;
///  - a hook never schedules events, blocks, allocates engine resources, or
///    reads engine-private state;
///  - the engine runs at most one context at a time *per shard* (participant
///    or engine callback), and every per-image hook fires on the image's
///    home shard, so per-image recorder state needs no locking — exactly the
///    argument that covers Image state (runtime/image.hpp).
///
/// Sharded runs (DESIGN.md §4.12): the single network track of the serial
/// recorder would be a cross-shard race, so the recorder keeps one network
/// *lane* per engine shard (the net_lanes constructor argument); the network
/// layer records each flight on the delivering shard's lane, under an id the
/// sending shard reserved from its own lane's counter at initiation. Span ids
/// are composite — (track ordinal, per-track counter) packed into 64 bits —
/// so id assignment is track-local and deterministic without any cross-shard
/// coordination. take()/snapshot() merge the lanes into the capture's single
/// network track by (begin, end, image, peer, id), a total order, so the
/// exported capture is deterministic for a fixed shard count. Each of the n
/// lanes holds ObsConfig::max_net_track_bytes / n, so the cap bounds the
/// whole track; once it binds, which flights are kept depends on the
/// partition.

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/config.hpp"
#include "support/error.hpp"

namespace caf2::obs {

/// What a span measures. kCompute/kBlocked tile each image's virtual
/// timeline (the engine emits them from advance()/block()); the remaining
/// kinds annotate operations on top and may nest or overlap freely.
enum class SpanKind : std::uint8_t {
  kCompute,          ///< modeled local computation (Engine::advance)
  kBlocked,          ///< parked in Engine::block (blame field says why)
  kHandler,          ///< active-message handler execution
  kPut,              ///< async copy, local source -> remote dest (init..ack)
  kGet,              ///< async copy, remote source -> local dest (init..data)
  kSpawn,            ///< function shipping (init..ack)
  kEventWait,        ///< Event::wait / wait_many
  kEventNotify,      ///< notify's release wait (op completion of the scope)
  kCofence,          ///< cofence() wait for local data completion
  kFinishBody,       ///< finish block: enter..body-returned
  kFinishDetect,     ///< finish block: detection (payload a = rounds)
  kCollective,       ///< blocking collective wrapper (team_barrier, ...)
  kStealIdle,        ///< work-stealing scheduler waiting on a steal response
  kFlight,           ///< network track: message initiation..delivery
  kRetransmitDelay,  ///< network track: fault-induced extra wait (image =
                     ///< the image whose completion the fault delayed)
};

const char* to_string(SpanKind kind);

/// Blame category of one blocked interval — the synchronization construct
/// (or resource) an image was waiting on. Assigned from a per-image *blame
/// context stack*: constructs push their category around their internal
/// waits, so e.g. the allreduce-internal event waits of finish's termination
/// detection are blamed on finish, not on events. Event::wait pushes
/// kEventWait only when the stack is empty for the same reason.
enum class Blame : std::uint8_t {
  kCompute,      ///< not blocked at all (used only by the analyzer)
  kNetwork,      ///< wire latency / retransmission (assigned by the analyzer)
  kFinishWait,   ///< finish termination detection
  kCofenceWait,  ///< cofence (local data completion)
  kEventWait,    ///< explicit Event wait (local operation completion)
  kStealIdle,    ///< work-stealing scheduler idling
  kOther,        ///< anything else (exit rendezvous, collective waits, ...)
};

const char* to_string(Blame blame);

/// Intern \p text into a process-global label pool and return a pointer with
/// static lifetime; repeated calls with equal text return the same pointer.
/// Operations whose label is composed at runtime (e.g. a collective's
/// "kind/algorithm" identity) intern it once here. The pool is never freed
/// and insertion is mutex-guarded.
const char* intern_label(const std::string& text);

/// Id of \p text in the label pool (interning it on first use); 0 for null.
/// Ids are dense from 1 and stable for the process lifetime, so a span
/// stores a label in two bytes. More than 65,535 distinct labels is a usage
/// error.
std::uint16_t intern_label_id(const char* text);

/// Text of label \p id (static lifetime), or nullptr for id 0.
const char* label_text(std::uint16_t id);

/// One recorded span. Trivially copyable, fixed-size (48 B); [begin, end)
/// on the virtual clock. The kind-specific payload `a` and the parent link
/// share one slot: only kBlocked spans have a parent, and they carry no
/// payload.
struct Span {
  double begin = 0.0;
  double end = 0.0;
  std::uint64_t id = 0;      ///< recorder-global id (deterministic)
  std::uint32_t b = 0;       ///< second payload (team size, finish seq)
  std::int32_t image = -1;   ///< owning image (-1 = network track)
  std::int32_t peer = -1;    ///< other endpoint, where meaningful
  std::uint16_t label_id = 0;        ///< label_text() id (block reason, ...)
  SpanKind kind = SpanKind::kCompute;
  Blame blame = Blame::kOther;       ///< meaningful for kBlocked

  /// Span that unblocked this one (0 = none); kBlocked spans only.
  std::uint64_t parent() const {
    return kind == SpanKind::kBlocked ? slot_ : 0;
  }
  /// Kind-specific payload (bytes, rounds, ...); 0 on kBlocked spans.
  std::uint64_t a() const { return kind == SpanKind::kBlocked ? 0 : slot_; }
  const char* label() const { return label_text(label_id); }

  /// Set the parent link; the span's kind must already be kBlocked.
  void set_parent(std::uint64_t span_id) {
    CAF2_ASSERT(kind == SpanKind::kBlocked,
                "Span: parent link on a non-blocked span");
    slot_ = span_id;
  }
  /// Set the payload; the span's kind must already be set and not kBlocked.
  void set_a(std::uint64_t value) {
    CAF2_ASSERT(kind != SpanKind::kBlocked, "Span: payload on a blocked span");
    slot_ = value;
  }

 private:
  std::uint64_t slot_ = 0;  ///< parent() on kBlocked, a() otherwise
};

static_assert(sizeof(Span) <= 48, "obs::Span grew past 48 bytes");

/// Typed per-image counters.
enum class Counter : std::uint8_t {
  kMessagesSent,           ///< messages injected by this image
  kMessagesDelivered,      ///< messages landed in this image's mailbox
  kMessagesRetransmitted,  ///< reliable-delivery resends from this image
  kHandlersRun,            ///< active-message handlers executed here
  kFinishScopes,           ///< finish blocks completed on this image
  kFinishRounds,           ///< total detection reduction waves
  kStealAttempts,          ///< work-stealing steal requests issued
  kMailboxHighWater,       ///< max mailbox depth observed (gauge)
  kSpansDropped,           ///< spans discarded by the memory cap
  kCount,
};

const char* to_string(Counter counter);

/// Virtual-time histogram: log2 buckets over microseconds. Bucket 0 holds
/// values <= kBaseUs; bucket i holds (kBaseUs * 2^(i-1), kBaseUs * 2^i].
struct Histogram {
  static constexpr int kBuckets = 32;
  static constexpr double kBaseUs = 0.001;  ///< one simulated nanosecond

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  double sum_us = 0.0;

  void add(double us);
};

/// Per-image histograms.
enum class Hist : std::uint8_t {
  kMessageLatency,  ///< initiation -> delivery, per destination image
  kBlockedTime,     ///< duration of each blocked interval
  kHandlerTime,     ///< duration of each handler execution
  kCount,
};

const char* to_string(Hist hist);

/// Counters + histograms of one image.
struct Metrics {
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counters{};
  std::array<Histogram, static_cast<std::size_t>(Hist::kCount)> hists{};

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const Histogram& hist(Hist h) const {
    return hists[static_cast<std::size_t>(h)];
  }
};

/// One span buffer (an image's timeline, or the network's).
struct Track {
  std::vector<Span> spans;
  std::uint64_t dropped = 0;  ///< spans discarded by the memory cap
};

/// Immutable snapshot of everything recorded during one run. Deterministic:
/// for a given options + body (and shard count) it is bit-identical across
/// repeats (export::to_text serializes it byte-stably for exactly that
/// comparison). Across shard counts the network span ids (per-lane
/// composites), the parent links naming them, and the order of network spans
/// that tie on (begin, end, image, peer) differ; so do the kept network
/// spans once the network-track cap binds (kept + dropped does not).
struct Capture {
  ObsConfig config{};
  int images = 0;
  double end_us = 0.0;                       ///< final virtual time
  std::vector<Track> tracks;   ///< size images + 1; tracks[images] = network
  std::vector<Metrics> metrics;  ///< size images

  const Track& image_track(int image) const {
    return tracks[static_cast<std::size_t>(image)];
  }
  const Track& net_track() const { return tracks.back(); }
};

/// The live recorder. One per Runtime; hooks in the engine, network, and
/// runtime layers call it through a raw pointer that is null when obs is
/// disabled (callers test the pointer, so a disabled run pays one branch).
class Recorder {
 public:
  /// \p net_lanes is the number of independent network-track lanes (one per
  /// engine shard; 1 for serial runs), each capped at an equal share of
  /// ObsConfig::max_net_track_bytes. Lanes are merged into the capture's
  /// single network track at take()/snapshot().
  Recorder(int images, ObsConfig config, int net_lanes = 1);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  int images() const { return static_cast<int>(images_.size()); }

  /// --- engine hooks --------------------------------------------------------

  /// Modeled computation [begin, end) on \p image (Engine::advance).
  void on_compute(int image, double begin, double end);

  /// \p image parked in Engine::block at \p at; \p reason is the static
  /// block-reason string (the span's label).
  void on_block_begin(int image, double at, const char* reason);

  /// \p image resumed at \p at: closes the blocked span, classifies it from
  /// the blame-context stack, and consumes the pending unblock cause (if a
  /// delivery or ack noted one) as the span's parent link.
  void on_block_end(int image, double at);

  /// --- blame-context stack -------------------------------------------------

  void push_blame(int image, Blame blame);
  void pop_blame(int image);
  bool blame_empty(int image) const;

  /// --- op spans (runtime / ops / kernels layers) ---------------------------

  /// Record a finished operation span on \p image's track. \p b must fit
  /// in 32 bits; \p label must have static lifetime (the recorder caches
  /// its label id by address).
  void op_span(int image, SpanKind kind, double begin, double end,
               std::uint64_t a = 0, std::uint64_t b = 0, int peer = -1,
               const char* label = nullptr);

  /// --- network hooks -------------------------------------------------------

  /// Reserve the span id of a message flight at its initiation, from
  /// network lane \p lane (the sending engine shard; 0 for serial runs). The
  /// flight's span is recorded later, possibly on another lane, under this
  /// id, and the ack that completes the send names it as the cause of the
  /// sender's wake — so the link needs no cross-shard coordination.
  std::uint64_t reserve_flight_id(int lane);

  /// Record a delivered message [initiation, delivery) under the id
  /// reserve_flight_id() returned, on network lane \p lane (the delivering
  /// engine shard; 0 for serial runs).
  void flight_span(std::uint64_t id, int source, int dest, double begin,
                   double end, std::uint64_t bytes, int lane);

  /// Record fault-induced extra wait [expected, actual) charged to \p image
  /// (the endpoint whose completion the fault delayed) on network lane
  /// \p lane.
  void retransmit_span(int image, int peer, double begin, double end,
                       int lane = 0);

  /// Note that \p span_id is about to unblock \p image (delivery into its
  /// mailbox, or an ack completing its operation). The next blocked span
  /// closing on \p image takes it as parent.
  void note_cause(int image, std::uint64_t span_id);

  /// --- metrics -------------------------------------------------------------

  void add(int image, Counter c, std::uint64_t v = 1);
  void maxed(int image, Counter c, std::uint64_t v);  ///< gauge high-water
  void observe(int image, Hist h, double us);

  /// --- snapshot ------------------------------------------------------------

  /// Move everything recorded so far into an immutable Capture.
  Capture take(double end_us);

  /// Copy everything recorded so far, leaving the recorder untouched. Used
  /// by the postmortem collector: a failing run's blame summary must not
  /// consume the capture a later take() would return.
  Capture snapshot(double end_us) const;

 private:
  struct PerImage {
    Track track;
    Metrics metrics;
    std::vector<Blame> blame_stack;
    double block_begin = 0.0;
    const char* block_reason = nullptr;
    bool blocked = false;
    std::uint64_t cause = 0;  ///< pending parent for the next blocked span
    std::uint64_t next_local = 0;  ///< per-track span id counter
    /// Label ids this image has used, by label address (a handful; a miss
    /// interns the text in the process-global pool).
    std::vector<std::pair<const char*, std::uint16_t>> label_ids;
  };

  /// One shard's slice of the network track (serial runs have exactly one).
  struct NetLane {
    Track track;
    std::uint64_t next_local = 0;  ///< per-lane span id counter
  };

  PerImage& at(int image);
  const PerImage& at(int image) const;
  NetLane& lane_at(int lane);

  /// Label id of \p label (0 for null) through \p state's address cache.
  static std::uint16_t label_of(PerImage& state, const char* label);

  /// Composite span id of the next span on track \p ordinal (image rank for
  /// image tracks, images + lane for network lanes): nonzero, unique across
  /// tracks, and assigned without cross-shard coordination. Uniqueness is
  /// what the deterministic (begin, end, image, peer, id) lane merge and
  /// note_cause links rely on, so guard both packed fields: a local counter
  /// spilling past 2^40 (or a track ordinal past 2^24) would silently bleed
  /// into the neighboring bits.
  static std::uint64_t compose_id(std::uint64_t ordinal,
                                  std::uint64_t& next_local) {
    CAF2_ASSERT(ordinal + 1 < (std::uint64_t{1} << 24),
                "compose_id: track ordinal exceeds the 24-bit field");
    CAF2_ASSERT(next_local < (std::uint64_t{1} << 40) - 1,
                "compose_id: per-track span counter overflow");
    return ((ordinal + 1) << 40) | ++next_local;
  }

  /// Append \p span (assigning its id from \p ordinal / \p next_local) under
  /// \p cap_bytes; counts drops into the track and, when \p image_metrics is
  /// set, Counter::kSpansDropped.
  void push_span(Track& track, std::uint64_t ordinal,
                 std::uint64_t& next_local, std::size_t cap_bytes, Span span,
                 Metrics* image_metrics);

  /// Append \p span (its id already set) under \p cap_bytes, counting drops
  /// as push_span() does.
  static void store_span(Track& track, std::size_t cap_bytes,
                         const Span& span, Metrics* image_metrics);

  /// The capture's single network track: lane 0 verbatim for serial runs,
  /// else the deterministic (begin, end, image, peer, id) merge.
  Track merged_net_track() const;

  ObsConfig config_;
  std::vector<PerImage> images_;
  std::vector<NetLane> net_lanes_;
  std::size_t lane_cap_bytes_ = 0;  ///< each lane's share of the net-track cap
};

/// RAII blame-context scope. Pass a null recorder to make it a no-op (the
/// idiom for conditional pushes, e.g. Event::wait's only-when-stack-empty
/// rule: `BlameScope scope(rec && rec->blame_empty(i) ? rec : nullptr, ...)`).
class BlameScope {
 public:
  BlameScope(Recorder* recorder, int image, Blame blame)
      : recorder_(recorder), image_(image) {
    if (recorder_ != nullptr) {
      recorder_->push_blame(image_, blame);
    }
  }
  ~BlameScope() {
    if (recorder_ != nullptr) {
      recorder_->pop_blame(image_);
    }
  }

  BlameScope(const BlameScope&) = delete;
  BlameScope& operator=(const BlameScope&) = delete;

 private:
  Recorder* recorder_;
  int image_;
};

}  // namespace caf2::obs
