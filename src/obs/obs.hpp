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
/// Span ids (DESIGN.md §4.12) are composite — compose_id(ordinal, counter)
/// packed into 64 bits — and every counter belongs to one image: ordinal i
/// numbers image i's track, ordinal images + i the network spans image i
/// records (flights it sends, reserved at initiation; retransmit delays
/// charged to it). Id assignment therefore follows each image's own
/// execution and is the same at every shard count. An image-track span's id
/// is implicit: the k-th span kept on image i's track is compose_id(i, k),
/// so its record stores neither id nor image (DESIGN.md §4.9). Network spans
/// of images on different shards would race on one buffer, so the recorder
/// appends them to per-shard *lanes* (the lane_of_image partition given at
/// construction, keyed by the recording image); take()/snapshot() gather
/// the lanes' blocks into the capture's single network track and sort it in
/// place by (begin, end, image, peer, id), a total order. The capture is
/// thus byte-identical at every shard count, with one exception: each of
/// the n lanes holds ObsConfig::max_net_track_bytes / n, so the cap bounds
/// the whole track, but once it binds, which network spans are kept depends
/// on the partition.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
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
  kFlight,           ///< network track: message initiation..delivery
  kRetransmitDelay,  ///< network track: fault-induced extra wait (image =
                     ///< the image whose completion the fault delayed)
};

const char* to_string(SpanKind kind);

/// Whether \p kind's spans carry `peer` (the other endpoint) rather than the
/// second payload `b`. No kind uses both, so a span log record stores one
/// 32-bit word for whichever its kind carries.
constexpr bool carries_peer(SpanKind kind) {
  switch (kind) {
    case SpanKind::kHandler:
    case SpanKind::kPut:
    case SpanKind::kGet:
    case SpanKind::kSpawn:
    case SpanKind::kEventNotify:
    case SpanKind::kFlight:
    case SpanKind::kRetransmitDelay:
      return true;
    default:
      return false;
  }
}

/// Composite span id of the \p counter-th span (from 1) of track ordinal
/// \p ordinal (image rank for image tracks, images + rank for an image's
/// network spans): nonzero, unique, and assigned without cross-shard
/// coordination. Uniqueness is what the (begin, end, image, peer, id)
/// net-track order and note_cause links rely on, so guard both packed fields:
/// a counter past 2^40 (or an ordinal past 2^24) would silently bleed into
/// the neighboring bits.
inline std::uint64_t compose_id(std::uint64_t ordinal, std::uint64_t counter) {
  CAF2_ASSERT(ordinal + 1 < (std::uint64_t{1} << 24),
              "compose_id: track ordinal exceeds the 24-bit field");
  CAF2_ASSERT(counter < (std::uint64_t{1} << 40),
              "compose_id: per-track span counter overflow");
  return ((ordinal + 1) << 40) | counter;
}

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
/// and insertion is mutex-guarded; reading a label by id takes no lock.
const char* intern_label(const std::string& text);

/// Id of \p text in the label pool (interning it on first use); 0 for null.
/// Ids are dense from 1 and stable for the process lifetime, so a span
/// stores a label in two bytes. More than 65,535 distinct labels is a usage
/// error.
std::uint16_t intern_label_id(const char* text);

/// Text of label \p id (static lifetime), or nullptr for id 0. Lock-free:
/// exporters call it once per span.
const char* label_text(std::uint16_t id);

/// One recorded span, as tracks yield it (they store it more compactly; see
/// SpanLog). Trivially copyable, fixed-size (48 B); [begin, end) on the
/// virtual clock. The kind-specific payload `a` and the parent link share one
/// slot: only kBlocked spans have a parent, and they carry no payload.
struct Span {
  double begin = 0.0;
  double end = 0.0;
  std::uint64_t id = 0;      ///< recorder-global id (deterministic)
  std::uint32_t b = 0;       ///< second payload (team size, finish seq)
  std::int32_t image = -1;   ///< owning image (-1 = network track)
  std::int32_t peer = -1;    ///< other endpoint (carries_peer() kinds)
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
  friend class SpanLog;
  std::uint64_t slot_ = 0;  ///< parent() on kBlocked, a() otherwise
};

static_assert(sizeof(Span) <= 48, "obs::Span grew past 48 bytes");

/// Append-only span storage of one track (DESIGN.md §4.9). Spans live in
/// blocks of kBlockSpans records, so an append never reallocates or moves a
/// stored span, and a growing log's slack is at most one partly filled
/// block. Each span is a 32-byte record: begin, end, the parent/payload
/// slot, one word holding `peer` or `b` (carries_peer() decides), label id,
/// kind and blame. An image track's log (owner >= 0) derives the rest from
/// its owner and the record's index: image = owner, id =
/// compose_id(owner, index + 1) — caps drop only a track's tail, so kept ids
/// stay dense. Any other log (owner -1: the network track, its lanes) adds
/// a 12-byte (id, image) column, 44 B per span. Every log, from recording
/// through capture to export, keeps this one blocked layout: the capture's
/// network track is the lanes' blocks moved over by gather(), then sorted
/// in place.
///
/// Reading is by value: indexing and iteration yield Span, so
/// `for (const Span& s : track.spans)` binds each span to a temporary.
class SpanLog {
  static constexpr std::size_t kBlockShift = 8;

 public:
  static constexpr std::size_t kBlockSpans = std::size_t{1} << kBlockShift;

  /// Empty log of image \p owner's track, or (-1) of a network track.
  explicit SpanLog(int owner = -1) : owner_(owner) {}
  SpanLog(const SpanLog& other);
  SpanLog& operator=(const SpanLog& other);
  /// A moved-from log is empty, with its owner kept.
  SpanLog(SpanLog&& other) noexcept { *this = std::move(other); }
  SpanLog& operator=(SpanLog&& other) noexcept {
    if (this != &other) {
      owner_ = other.owner_;
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
      records_ = std::exchange(other.records_, {});
      origins_ = std::exchange(other.origins_, {});
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Bytes of span storage allocated: records plus the (id, image) column.
  std::size_t storage_bytes() const {
    return capacity_ * (sizeof(Record) + (owner_ < 0 ? sizeof(Origin) : 0));
  }

  /// Append \p span. Its kind must not carry both `b` and `peer` (see
  /// carries_peer()); on an image track its image and id must be the ones
  /// its index implies.
  void push_back(const Span& span) {
    CAF2_ASSERT(carries_peer(span.kind) ? span.b == 0 : span.peer < 0,
                "SpanLog: a span carries `b` or `peer` (by kind), not both");
    CAF2_ASSERT(owner_ < 0 || (span.image == owner_ &&
                               span.id == compose_id(
                                              static_cast<std::uint64_t>(owner_),
                                              size_ + 1)),
                "SpanLog: an image-track span's image and id are implied by "
                "its track and index");
    append(Record{span.begin,
                  span.end,
                  span.slot_,
                  carries_peer(span.kind)
                      ? static_cast<std::uint32_t>(span.peer)
                      : span.b,
                  span.label_id,
                  span.kind,
                  span.blame},
           Origin{static_cast<std::uint32_t>(span.id),
                  static_cast<std::uint32_t>(span.id >> 32), span.image});
  }

  /// Span \p i, decoded.
  Span operator[](std::size_t i) const {
    const Record& record = record_at(i);
    Span span;
    span.begin = record.begin;
    span.end = record.end;
    span.slot_ = record.slot;
    span.label_id = record.label_id;
    span.kind = record.kind;
    span.blame = record.blame;
    if (carries_peer(record.kind)) {
      span.peer = static_cast<std::int32_t>(record.word);
    } else {
      span.b = record.word;
    }
    if (owner_ >= 0) {
      // compose_id(owner, i + 1); push_back checked both fields.
      span.image = owner_;
      span.id = ((static_cast<std::uint64_t>(owner_) + 1) << 40) | (i + 1);
    } else {
      const Origin& origin = origin_at(i);
      span.image = origin.image;
      span.id = (static_cast<std::uint64_t>(origin.id_high) << 32) |
                origin.id_low;
    }
    return span;
  }

  /// Input iterator yielding spans by value.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Span;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Span;

    const_iterator() = default;
    const_iterator(const SpanLog* log, std::size_t index)
        : log_(log), index_(index) {}
    Span operator*() const { return (*log_)[index_]; }
    const_iterator& operator++() {
      index_ += 1;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      index_ += 1;
      return before;
    }
    bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }

   private:
    const SpanLog* log_ = nullptr;
    std::size_t index_ = 0;
  };

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  /// Every span of \p parts (owner -1 logs) in one log, leaving the parts
  /// empty. Each part's full blocks move over whole and only its partly
  /// filled last block is copied, so the spans are never held twice; their
  /// order is the parts' full blocks, then the parts' tails.
  static SpanLog gather(const std::vector<SpanLog*>& parts);

  /// Sort the log in place by (begin, end, image, peer, id) — a total order
  /// where ids are unique, as on the network track. The only scratch space
  /// is a 4-byte-per-span order.
  void sort_by_time();

 private:
  struct Record {
    double begin;
    double end;
    std::uint64_t slot;   ///< Span::slot_
    std::uint32_t word;   ///< peer if carries_peer(kind), else b
    std::uint16_t label_id;
    SpanKind kind;
    Blame blame;
  };
  struct Origin {  ///< (id, image) column of owner -1 logs
    std::uint32_t id_low;
    std::uint32_t id_high;
    std::int32_t image;
  };
  static_assert(sizeof(Record) == 32, "SpanLog record must stay 32 bytes");
  static_assert(sizeof(Origin) == 12, "SpanLog origin must stay 12 bytes");

  Record& record_at(std::size_t i) {
    return records_[i >> kBlockShift][i & (kBlockSpans - 1)];
  }
  const Record& record_at(std::size_t i) const {
    return records_[i >> kBlockShift][i & (kBlockSpans - 1)];
  }
  Origin& origin_at(std::size_t i) {
    return origins_[i >> kBlockShift][i & (kBlockSpans - 1)];
  }
  const Origin& origin_at(std::size_t i) const {
    return origins_[i >> kBlockShift][i & (kBlockSpans - 1)];
  }

  /// Append one stored span; \p origin is kept on owner -1 logs only.
  void append(const Record& record, const Origin& origin) {
    const std::size_t slot = size_ & (kBlockSpans - 1);
    if (slot == 0) {
      add_block();
    }
    records_.back()[slot] = record;
    if (owner_ < 0) {
      origins_.back()[slot] = origin;
    }
    size_ += 1;
  }
  /// Allocate the next fixed-size block.
  void add_block();
  /// Reorder the log so span k becomes former span order[k].
  void permute(std::vector<std::uint32_t>& order);

  int owner_ = -1;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;  ///< spans allocated
  std::vector<std::unique_ptr<Record[]>> records_;
  std::vector<std::unique_ptr<Origin[]>> origins_;  ///< owner -1 only
};

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
  /// Bucket of \p us, in O(1); NaN lands in bucket 0, +inf in the last.
  static int bucket_of(double us);
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

/// One span track: an image's timeline (owner = the image, implicit ids) or
/// the network's (owner -1, ids and source images stored). Spans are read
/// by value through `spans` (SpanLog).
struct Track {
  explicit Track(int owner = -1) : spans(owner) {}

  SpanLog spans;
  std::uint64_t dropped = 0;  ///< spans discarded by the memory cap
};

/// Immutable snapshot of everything recorded during one run. Deterministic:
/// for a given options + body it is bit-identical across repeats and shard
/// counts (export::to_text serializes it byte-stably for exactly that
/// comparison). The one exception is which network spans are kept once the
/// network-track cap binds (kept + dropped does not change). Every track
/// keeps the recorder's fixed-size blocks; the network track holds the
/// lanes' blocks, sorted in place. Caps charge sizeof(Span) per kept span
/// whatever the storage costs, so a cap keeps the same spans as with
/// 48-byte storage.
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
  /// \p lane_of_image[i] is the network-track lane image i's shard appends
  /// to (its engine shard); empty puts every image on one lane. Each lane is
  /// capped at an equal share of ObsConfig::max_net_track_bytes, and the
  /// lanes become the capture's single network track at take()/snapshot().
  explicit Recorder(int images, ObsConfig config,
                    const std::vector<int>& lane_of_image = {});

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
  /// in 32 bits, and a span carries either `b` or `peer`, as its kind says
  /// (carries_peer()); \p label must have static lifetime (the recorder
  /// caches its label id by address).
  void op_span(int image, SpanKind kind, double begin, double end,
               std::uint64_t a = 0, std::uint64_t b = 0, int peer = -1,
               const char* label = nullptr);

  /// --- network hooks -------------------------------------------------------

  /// Reserve the span id of a flight \p source initiates, from \p source's
  /// network counter. The flight's span is recorded later by its destination
  /// under this id, and the ack that completes the send names it as the
  /// cause of the sender's wake — so the link needs no cross-shard
  /// coordination.
  std::uint64_t reserve_flight_id(int source);

  /// Record a delivered message [initiation, delivery) under the id
  /// reserve_flight_id() returned; called from \p dest's shard.
  void flight_span(std::uint64_t id, int source, int dest, double begin,
                   double end, std::uint64_t bytes);

  /// Record fault-induced extra wait [expected, actual) charged to \p image
  /// (the endpoint whose completion the fault delayed), with an id from
  /// \p image's network counter; called from \p image's shard.
  void retransmit_span(int image, int peer, double begin, double end);

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
    std::uint64_t next_net = 0;    ///< network span id counter
    std::size_t lane = 0;          ///< network lane this image appends to
    /// Label ids this image has used, by label address (a handful; a miss
    /// interns the text in the process-global pool).
    std::vector<std::pair<const char*, std::uint16_t>> label_ids;
  };

  PerImage& at(int image);
  const PerImage& at(int image) const;

  /// Label id of \p label (0 for null) through \p state's address cache.
  static std::uint16_t label_of(PerImage& state, const char* label);

  /// Append \p span to \p image's track under the image-track cap (its id
  /// follows from its index).
  void push_image_span(int image, PerImage& state, Span span);

  /// Append \p span (its id already set) under \p cap_bytes; counts drops
  /// into the track and, when \p image_metrics is set,
  /// Counter::kSpansDropped.
  static void store_span(Track& track, std::size_t cap_bytes,
                         const Span& span, Metrics* image_metrics);

  ObsConfig config_;
  std::vector<PerImage> images_;
  /// Per-shard append buffers of the network track; they share the cap.
  std::vector<Track> net_lanes_;
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
