#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace caf2::obs {

namespace {

/// The process-global label pool, never freed. unordered_map nodes never
/// move, so each key's c_str() is that label's stable address.
struct LabelPool {
  std::mutex mutex;
  std::unordered_map<std::string, std::uint16_t> ids;  ///< guarded by mutex
  std::vector<const char*> texts{nullptr};  ///< by id; guarded by mutex
};

LabelPool& label_pool() {
  static auto* pool = new LabelPool();
  return *pool;
}

/// Intern \p text; returns its stable address and id.
std::pair<const char*, std::uint16_t> intern(const std::string& text) {
  LabelPool& pool = label_pool();
  const std::lock_guard<std::mutex> lock(pool.mutex);
  auto it = pool.ids.find(text);
  if (it == pool.ids.end()) {
    CAF2_REQUIRE(
        pool.texts.size() <= std::numeric_limits<std::uint16_t>::max(),
        "obs: more than 65,535 distinct span labels");
    it = pool.ids
             .emplace(text, static_cast<std::uint16_t>(pool.texts.size()))
             .first;
    pool.texts.push_back(it->first.c_str());
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
  LabelPool& pool = label_pool();
  const std::lock_guard<std::mutex> lock(pool.mutex);
  return id < pool.texts.size() ? pool.texts[id] : nullptr;
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
    case SpanKind::kStealIdle:
      return "steal_idle";
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

void Histogram::add(double us) {
  count += 1;
  sum_us += us;
  int bucket = 0;
  double edge = kBaseUs;
  while (bucket < kBuckets - 1 && us > edge) {
    edge *= 2.0;
    bucket += 1;
  }
  buckets[static_cast<std::size_t>(bucket)] += 1;
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

void Recorder::push_span(Track& track, std::uint64_t ordinal,
                         std::uint64_t& next_local, std::size_t cap_bytes,
                         Span span, Metrics* image_metrics) {
  span.id = compose_id(ordinal, next_local);
  store_span(track, cap_bytes, span, image_metrics);
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
  span.image = image;
  span.kind = SpanKind::kCompute;
  span.blame = Blame::kCompute;
  push_span(state.track, static_cast<std::uint64_t>(image), state.next_local,
            config_.max_image_track_bytes, span, &state.metrics);
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
  span.image = image;
  span.kind = SpanKind::kBlocked;
  span.set_parent(state.cause);
  span.blame = state.blame_stack.empty() ? Blame::kOther
                                         : state.blame_stack.back();
  span.label_id = label_of(state, state.block_reason);
  state.cause = 0;
  push_span(state.track, static_cast<std::uint64_t>(image), state.next_local,
            config_.max_image_track_bytes, span, &state.metrics);
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
  PerImage& state = at(image);
  Span span;
  span.begin = begin;
  span.end = end;
  span.kind = kind;
  span.set_a(a);
  span.b = static_cast<std::uint32_t>(b);
  span.image = image;
  span.peer = peer;
  span.blame = Blame::kCompute;
  span.label_id = label_of(state, label);
  push_span(state.track, static_cast<std::uint64_t>(image), state.next_local,
            config_.max_image_track_bytes, span, &state.metrics);
}

std::uint64_t Recorder::reserve_flight_id(int source) {
  return compose_id(static_cast<std::uint64_t>(images() + source),
                    at(source).next_net);
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
  span.begin = begin;
  span.end = end;
  span.image = image;
  span.peer = peer;
  span.kind = SpanKind::kRetransmitDelay;
  span.blame = Blame::kNetwork;
  push_span(net_lanes_[state.lane],
            static_cast<std::uint64_t>(images() + image), state.next_net,
            lane_cap_bytes_, span, nullptr);
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

void Recorder::collect_net_track(Track& net) const {
  std::size_t total = net.spans.size();
  for (const Track& lane : net_lanes_) {
    total += lane.spans.size();
  }
  net.spans.reserve(total);
  for (const Track& lane : net_lanes_) {
    net.spans.insert(net.spans.end(), lane.spans.begin(), lane.spans.end());
    net.dropped += lane.dropped;
  }
  // (begin, end, image, peer, id) is a total order — ids are unique — so the
  // track is identical for any lane fill order and any shard count.
  std::sort(net.spans.begin(), net.spans.end(),
            [](const Span& a, const Span& b) {
              if (a.begin != b.begin) {
                return a.begin < b.begin;
              }
              if (a.end != b.end) {
                return a.end < b.end;
              }
              if (a.image != b.image) {
                return a.image < b.image;
              }
              if (a.peer != b.peer) {
                return a.peer < b.peer;
              }
              return a.id < b.id;
            });
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
  Track net;
  collect_net_track(net);
  capture.tracks.push_back(std::move(net));
  return capture;
}

Capture Recorder::take(double end_us) {
  Capture capture;
  capture.config = config_;
  capture.images = images();
  capture.end_us = end_us;
  capture.tracks.reserve(images_.size() + 1);
  capture.metrics.reserve(images_.size());
  for (PerImage& state : images_) {
    capture.tracks.push_back(std::move(state.track));
    capture.metrics.push_back(state.metrics);
    state.track = Track{};
    state.metrics = Metrics{};
  }
  // The first lane becomes the network track and is sorted in place, so a
  // one-shard run's capture needs no second copy of it.
  Track net = std::move(net_lanes_.front());
  net_lanes_.front() = Track{};
  collect_net_track(net);
  for (Track& lane : net_lanes_) {
    lane = Track{};
  }
  capture.tracks.push_back(std::move(net));
  return capture;
}

}  // namespace caf2::obs
