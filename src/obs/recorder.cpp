#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <utility>

namespace caf2::obs {

const char* intern_label(const std::string& text) {
  // std::set is node-based, so element addresses are stable across later
  // insertions; the pool is process-global and intentionally never freed.
  static std::mutex mutex;
  static std::set<std::string>* pool = new std::set<std::string>();
  const std::lock_guard<std::mutex> lock(mutex);
  return pool->insert(text).first->c_str();
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

Recorder::Recorder(int images, ObsConfig config, int net_lanes)
    : config_(config),
      images_(static_cast<std::size_t>(images > 0 ? images : 0)),
      net_lanes_(static_cast<std::size_t>(net_lanes > 0 ? net_lanes : 0)),
      lane_cap_bytes_(config_.max_net_track_bytes /
                      static_cast<std::size_t>(net_lanes > 0 ? net_lanes : 1)) {
  CAF2_REQUIRE(images > 0, "obs::Recorder needs at least one image");
  CAF2_REQUIRE(net_lanes > 0, "obs::Recorder needs at least one net lane");
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

Recorder::NetLane& Recorder::lane_at(int lane) {
  CAF2_REQUIRE(lane >= 0 &&
                   static_cast<std::size_t>(lane) < net_lanes_.size(),
               "obs::Recorder: net lane out of range");
  return net_lanes_[static_cast<std::size_t>(lane)];
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
  span.parent = state.cause;
  span.image = image;
  span.kind = SpanKind::kBlocked;
  span.blame = state.blame_stack.empty() ? Blame::kOther
                                         : state.blame_stack.back();
  span.label = state.block_reason;
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
  PerImage& state = at(image);
  Span span;
  span.begin = begin;
  span.end = end;
  span.a = a;
  span.b = b;
  span.image = image;
  span.peer = peer;
  span.kind = kind;
  span.blame = Blame::kCompute;
  span.label = label;
  push_span(state.track, static_cast<std::uint64_t>(image), state.next_local,
            config_.max_image_track_bytes, span, &state.metrics);
}

std::uint64_t Recorder::reserve_flight_id(int lane) {
  return compose_id(
      static_cast<std::uint64_t>(images()) + static_cast<std::uint64_t>(lane),
      lane_at(lane).next_local);
}

void Recorder::flight_span(std::uint64_t id, int source, int dest,
                           double begin, double end, std::uint64_t bytes,
                           int lane) {
  Span span;
  span.id = id;
  span.begin = begin;
  span.end = end;
  span.a = bytes;
  span.image = source;
  span.peer = dest;
  span.kind = SpanKind::kFlight;
  span.blame = Blame::kNetwork;
  store_span(lane_at(lane).track, lane_cap_bytes_, span, nullptr);
}

void Recorder::retransmit_span(int image, int peer, double begin, double end,
                               int lane) {
  NetLane& slot = lane_at(lane);
  Span span;
  span.begin = begin;
  span.end = end;
  span.image = image;
  span.peer = peer;
  span.kind = SpanKind::kRetransmitDelay;
  span.blame = Blame::kNetwork;
  const std::uint64_t ordinal =
      static_cast<std::uint64_t>(images()) + static_cast<std::uint64_t>(lane);
  push_span(slot.track, ordinal, slot.next_local, lane_cap_bytes_, span,
            nullptr);
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

Track Recorder::merged_net_track() const {
  if (net_lanes_.size() == 1) {
    return net_lanes_[0].track;
  }
  Track merged;
  std::size_t total = 0;
  for (const NetLane& lane : net_lanes_) {
    total += lane.track.spans.size();
    merged.dropped += lane.track.dropped;
  }
  merged.spans.reserve(total);
  for (const NetLane& lane : net_lanes_) {
    merged.spans.insert(merged.spans.end(), lane.track.spans.begin(),
                        lane.track.spans.end());
  }
  // (begin, end, image, peer, id) is a total order — ids are unique across
  // lanes — so the merged track is identical for any lane fill order: the
  // capture stays deterministic for a fixed shard count.
  std::sort(merged.spans.begin(), merged.spans.end(),
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
  return merged;
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
  capture.tracks.push_back(merged_net_track());
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
  if (net_lanes_.size() == 1) {
    capture.tracks.push_back(std::move(net_lanes_[0].track));
  } else {
    capture.tracks.push_back(merged_net_track());
  }
  for (NetLane& lane : net_lanes_) {
    lane.track = Track{};
  }
  return capture;
}

}  // namespace caf2::obs
