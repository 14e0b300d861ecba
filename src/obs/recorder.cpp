#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace caf2::obs {

namespace {

/// The capture's network track: every span of \p lanes (left empty)
/// gathered into one log, its lanes' blocks moved rather than copied, and
/// sorted in place into the track's one order, (begin, end, image, peer,
/// id). Ids are unique, so the order is total: the track is identical for
/// any lane fill order and any shard count.
Track net_track_of(std::vector<Track>& lanes) {
  std::vector<SpanLog*> logs;
  Track net;
  for (Track& lane : lanes) {
    logs.push_back(&lane.spans);
    net.dropped += std::exchange(lane.dropped, 0);
  }
  net.spans = SpanLog::gather(logs);
  net.spans.sort_by_time();
  return net;
}

/// The process-global label pool, never freed. unordered_map nodes never
/// move, so each key's c_str() is that label's stable address.
struct LabelPool {
  std::mutex mutex;
  std::unordered_map<std::string, std::uint16_t> ids;  ///< guarded by mutex
};

LabelPool& label_pool() {
  static auto* pool = new LabelPool();
  return *pool;
}

/// Text of each label id, by id. An id's entry is stored once (release)
/// before the id is handed out, so label_text() reads it without the pool's
/// lock (acquire); 0 and unassigned ids read null.
std::array<std::atomic<const char*>,
           std::size_t{std::numeric_limits<std::uint16_t>::max()} + 1>
    label_texts;

/// Intern \p text; returns its stable address and id.
std::pair<const char*, std::uint16_t> intern(const std::string& text) {
  LabelPool& pool = label_pool();
  const std::lock_guard<std::mutex> lock(pool.mutex);
  auto it = pool.ids.find(text);
  if (it == pool.ids.end()) {
    CAF2_REQUIRE(pool.ids.size() < std::numeric_limits<std::uint16_t>::max(),
                 "obs: more than 65,535 distinct span labels");
    const auto id = static_cast<std::uint16_t>(pool.ids.size() + 1);
    it = pool.ids.emplace(text, id).first;
    label_texts[id].store(it->first.c_str(), std::memory_order_release);
  }
  return {it->first.c_str(), it->second};
}

}  // namespace

const char* intern_label(const std::string& text) {
  return intern(text).first;
}

std::uint16_t intern_label_id(const char* text) {
  return text == nullptr ? 0 : intern(text).second;
}

const char* label_text(std::uint16_t id) {
  return label_texts[id].load(std::memory_order_acquire);
}

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCompute:
      return "compute";
    case SpanKind::kBlocked:
      return "blocked";
    case SpanKind::kHandler:
      return "handler";
    case SpanKind::kPut:
      return "put";
    case SpanKind::kGet:
      return "get";
    case SpanKind::kSpawn:
      return "spawn";
    case SpanKind::kEventWait:
      return "event_wait";
    case SpanKind::kEventNotify:
      return "event_notify";
    case SpanKind::kCofence:
      return "cofence";
    case SpanKind::kFinishBody:
      return "finish_body";
    case SpanKind::kFinishDetect:
      return "finish_detect";
    case SpanKind::kCollective:
      return "collective";
    case SpanKind::kFlight:
      return "flight";
    case SpanKind::kRetransmitDelay:
      return "retransmit_delay";
  }
  return "?";
}

const char* to_string(Blame blame) {
  switch (blame) {
    case Blame::kCompute:
      return "compute";
    case Blame::kNetwork:
      return "network";
    case Blame::kFinishWait:
      return "finish_wait";
    case Blame::kCofenceWait:
      return "cofence_wait";
    case Blame::kEventWait:
      return "event_wait";
    case Blame::kStealIdle:
      return "steal_idle";
    case Blame::kOther:
      return "other";
  }
  return "?";
}

const char* to_string(Counter counter) {
  switch (counter) {
    case Counter::kMessagesSent:
      return "messages_sent";
    case Counter::kMessagesDelivered:
      return "messages_delivered";
    case Counter::kMessagesRetransmitted:
      return "messages_retransmitted";
    case Counter::kHandlersRun:
      return "handlers_run";
    case Counter::kFinishScopes:
      return "finish_scopes";
    case Counter::kFinishRounds:
      return "finish_rounds";
    case Counter::kStealAttempts:
      return "steal_attempts";
    case Counter::kMailboxHighWater:
      return "mailbox_high_water";
    case Counter::kSpansDropped:
      return "spans_dropped";
    case Counter::kCount:
      break;
  }
  return "?";
}

const char* to_string(Hist hist) {
  switch (hist) {
    case Hist::kMessageLatency:
      return "message_latency_us";
    case Hist::kBlockedTime:
      return "blocked_time_us";
    case Hist::kHandlerTime:
      return "handler_time_us";
    case Hist::kCount:
      break;
  }
  return "?";
}

namespace {

/// kBaseUs = kBaseMantissa * 2^kBaseExp with kBaseMantissa in [0.5, 1), as
/// std::frexp splits it (scaling by 2 is exact).
constexpr std::pair<double, int> split_base() {
  double mantissa = Histogram::kBaseUs;
  int exp = 0;
  for (; mantissa < 0.5; mantissa *= 2.0) {
    exp -= 1;
  }
  for (; mantissa >= 1.0; mantissa /= 2.0) {
    exp += 1;
  }
  return {mantissa, exp};
}
constexpr double kBaseMantissa = split_base().first;
constexpr int kBaseExp = split_base().second;
/// Upper edge of the second-to-last bucket, kBaseUs * 2^(kBuckets - 2).
constexpr double kLastEdgeUs =
    Histogram::kBaseUs *
    static_cast<double>(std::uint64_t{1} << (Histogram::kBuckets - 2));

}  // namespace

int Histogram::bucket_of(double us) {
  if (!(us > kBaseUs)) {
    return 0;  // also NaN
  }
  if (us > kLastEdgeUs) {
    return kBuckets - 1;  // also +inf
  }
  // Edge i is kBaseMantissa * 2^(kBaseExp + i). us = m * 2^e with m in
  // [0.5, 1) lies above edge e - kBaseExp - 1 and at or below edge
  // e - kBaseExp + 1; its mantissa against kBaseMantissa picks between the
  // two buckets those edges bound.
  int exp = 0;
  const double mantissa = std::frexp(us, &exp);
  return exp - kBaseExp + (mantissa > kBaseMantissa ? 1 : 0);
}

void Histogram::add(double us) {
  count += 1;
  sum_us += us;
  buckets[static_cast<std::size_t>(bucket_of(us))] += 1;
}

Recorder::Recorder(int images, ObsConfig config,
                   const std::vector<int>& lane_of_image)
    : config_(config),
      images_(static_cast<std::size_t>(images > 0 ? images : 0)) {
  CAF2_REQUIRE(images > 0, "obs::Recorder needs at least one image");
  CAF2_REQUIRE(lane_of_image.empty() || lane_of_image.size() == images_.size(),
               "obs::Recorder: lane_of_image needs one entry per image");
  std::size_t lanes = 1;
  for (std::size_t image = 0; image < lane_of_image.size(); ++image) {
    CAF2_REQUIRE(lane_of_image[image] >= 0,
                 "obs::Recorder: net lane must be >= 0");
    images_[image].lane = static_cast<std::size_t>(lane_of_image[image]);
    lanes = std::max(lanes, images_[image].lane + 1);
  }
  for (std::size_t image = 0; image < images_.size(); ++image) {
    images_[image].track = Track(static_cast<int>(image));
  }
  net_lanes_.resize(lanes);
  lane_cap_bytes_ = config_.max_net_track_bytes / lanes;
}

Recorder::PerImage& Recorder::at(int image) {
  CAF2_REQUIRE(image >= 0 && image < images(),
               "obs::Recorder: image rank out of range");
  return images_[static_cast<std::size_t>(image)];
}

const Recorder::PerImage& Recorder::at(int image) const {
  CAF2_REQUIRE(image >= 0 && image < images(),
               "obs::Recorder: image rank out of range");
  return images_[static_cast<std::size_t>(image)];
}

std::uint16_t Recorder::label_of(PerImage& state, const char* label) {
  if (label == nullptr) {
    return 0;
  }
  for (const auto& [address, id] : state.label_ids) {
    if (address == label) {
      return id;
    }
  }
  const std::uint16_t id = intern_label_id(label);
  state.label_ids.emplace_back(label, id);
  return id;
}

void Recorder::push_image_span(int image, PerImage& state, Span span) {
  span.image = image;
  span.id = compose_id(static_cast<std::uint64_t>(image),
                       state.track.spans.size() + 1);
  store_span(state.track, config_.max_image_track_bytes, span,
             &state.metrics);
}

void Recorder::store_span(Track& track, std::size_t cap_bytes,
                          const Span& span, Metrics* image_metrics) {
  if ((track.spans.size() + 1) * sizeof(Span) > cap_bytes) {
    track.dropped += 1;
    if (image_metrics != nullptr) {
      image_metrics->counters[static_cast<std::size_t>(
          Counter::kSpansDropped)] += 1;
    }
    return;
  }
  track.spans.push_back(span);
}

void Recorder::on_compute(int image, double begin, double end) {
  PerImage& state = at(image);
  Span span;
  span.begin = begin;
  span.end = end;
  span.kind = SpanKind::kCompute;
  span.blame = Blame::kCompute;
  push_image_span(image, state, span);
}

void Recorder::on_block_begin(int image, double at_us, const char* reason) {
  PerImage& state = at(image);
  state.blocked = true;
  state.block_begin = at_us;
  state.block_reason = reason;
  state.cause = 0;  // only deliveries *during* this block count as the cause
}

void Recorder::on_block_end(int image, double at_us) {
  PerImage& state = at(image);
  if (!state.blocked) {
    return;
  }
  state.blocked = false;
  Span span;
  span.begin = state.block_begin;
  span.end = at_us;
  span.kind = SpanKind::kBlocked;
  span.set_parent(state.cause);
  span.blame = state.blame_stack.empty() ? Blame::kOther
                                         : state.blame_stack.back();
  span.label_id = label_of(state, state.block_reason);
  state.cause = 0;
  push_image_span(image, state, span);
  state.metrics.hists[static_cast<std::size_t>(Hist::kBlockedTime)].add(
      at_us - span.begin);
}

void Recorder::push_blame(int image, Blame blame) {
  at(image).blame_stack.push_back(blame);
}

void Recorder::pop_blame(int image) {
  PerImage& state = at(image);
  CAF2_REQUIRE(!state.blame_stack.empty(),
               "obs::Recorder: unbalanced blame scope pop");
  state.blame_stack.pop_back();
}

bool Recorder::blame_empty(int image) const {
  return at(image).blame_stack.empty();
}

void Recorder::op_span(int image, SpanKind kind, double begin, double end,
                       std::uint64_t a, std::uint64_t b, int peer,
                       const char* label) {
  CAF2_ASSERT(b <= std::numeric_limits<std::uint32_t>::max(),
              "obs::Recorder::op_span: payload b exceeds 32 bits");
  CAF2_ASSERT(carries_peer(kind) ? b == 0 : peer < 0,
              "obs::Recorder::op_span: a span carries `b` or `peer` (by "
              "kind), not both");
  PerImage& state = at(image);
  Span span;
  span.begin = begin;
  span.end = end;
  span.kind = kind;
  span.set_a(a);
  span.b = static_cast<std::uint32_t>(b);
  span.peer = peer;
  span.blame = Blame::kCompute;
  span.label_id = label_of(state, label);
  push_image_span(image, state, span);
}

std::uint64_t Recorder::reserve_flight_id(int source) {
  return compose_id(static_cast<std::uint64_t>(images() + source),
                    ++at(source).next_net);
}

void Recorder::flight_span(std::uint64_t id, int source, int dest,
                           double begin, double end, std::uint64_t bytes) {
  Span span;
  span.id = id;
  span.begin = begin;
  span.end = end;
  span.kind = SpanKind::kFlight;
  span.set_a(bytes);
  span.image = source;
  span.peer = dest;
  span.blame = Blame::kNetwork;
  store_span(net_lanes_[at(dest).lane], lane_cap_bytes_, span, nullptr);
}

void Recorder::retransmit_span(int image, int peer, double begin,
                               double end) {
  PerImage& state = at(image);
  Span span;
  span.id = compose_id(static_cast<std::uint64_t>(images() + image),
                       ++state.next_net);
  span.begin = begin;
  span.end = end;
  span.image = image;
  span.peer = peer;
  span.kind = SpanKind::kRetransmitDelay;
  span.blame = Blame::kNetwork;
  store_span(net_lanes_[state.lane], lane_cap_bytes_, span, nullptr);
}

void Recorder::note_cause(int image, std::uint64_t span_id) {
  PerImage& state = at(image);
  if (state.blocked) {
    state.cause = span_id;
  }
}

void Recorder::add(int image, Counter c, std::uint64_t v) {
  at(image).metrics.counters[static_cast<std::size_t>(c)] += v;
}

void Recorder::maxed(int image, Counter c, std::uint64_t v) {
  std::uint64_t& slot = at(image).metrics.counters[static_cast<std::size_t>(c)];
  slot = std::max(slot, v);
}

void Recorder::observe(int image, Hist h, double us) {
  at(image).metrics.hists[static_cast<std::size_t>(h)].add(us);
}

Capture Recorder::snapshot(double end_us) const {
  Capture capture;
  capture.config = config_;
  capture.images = images();
  capture.end_us = end_us;
  capture.tracks.reserve(images_.size() + 1);
  capture.metrics.reserve(images_.size());
  for (const PerImage& state : images_) {
    capture.tracks.push_back(state.track);
    capture.metrics.push_back(state.metrics);
  }
  std::vector<Track> lanes = net_lanes_;
  capture.tracks.push_back(net_track_of(lanes));
  return capture;
}

Capture Recorder::take(double end_us) {
  Capture capture;
  capture.config = config_;
  capture.images = images();
  capture.end_us = end_us;
  capture.tracks.reserve(images_.size() + 1);
  capture.metrics.reserve(images_.size());
  for (std::size_t image = 0; image < images_.size(); ++image) {
    PerImage& state = images_[image];
    capture.tracks.push_back(std::move(state.track));
    capture.metrics.push_back(state.metrics);
    state.track = Track(static_cast<int>(image));
    state.metrics = Metrics{};
  }
  capture.tracks.push_back(net_track_of(net_lanes_));
  return capture;
}

}  // namespace caf2::obs
