#include "obs/blame.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

namespace caf2::obs {

double BlameBreakdown::total() const {
  double sum = 0.0;
  for (const double v : us) {
    sum += v;
  }
  return sum;
}

namespace {

/// Half-open interval of fault-induced extra delay on one image.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Merge overlapping/adjacent intervals in place; input need not be sorted.
void merge_intervals(std::vector<Interval>& intervals) {
  if (intervals.empty()) {
    return;
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::size_t out = 0;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].begin <= intervals[out].end) {
      intervals[out].end = std::max(intervals[out].end, intervals[i].end);
    } else {
      out += 1;
      intervals[out] = intervals[i];
    }
  }
  intervals.resize(out + 1);
}

/// Total overlap of [begin, end) with the merged \p intervals.
double overlap_us(const std::vector<Interval>& intervals, double begin,
                  double end) {
  double sum = 0.0;
  for (const Interval& iv : intervals) {
    if (iv.begin >= end) {
      break;
    }
    sum += std::max(0.0, std::min(end, iv.end) - std::max(begin, iv.begin));
  }
  return sum;
}

/// Chain value reaching the end of a node (a timeline span or a flight).
struct Chain {
  double us = 0.0;
  std::uint64_t hops = 0;  ///< 0 only for the empty chain
};

bool is_timeline(const Span& span) {
  return span.kind == SpanKind::kCompute || span.kind == SpanKind::kBlocked;
}

/// Index of the first timeline span of \p spans at or after \p from.
std::size_t next_timeline(const SpanLog& spans, std::size_t from) {
  while (from < spans.size() && !is_timeline(spans[from])) {
    from += 1;
  }
  return from;
}

/// Longest dependency chain through \p capture's span DAG, as (chain, image
/// it ends on).
///
/// One sweep visits every timeline span (kCompute/kBlocked) and every flight
/// in end-time order: flights first on ties (a delivery at t unblocks a wait
/// ending at t), then timeline spans by image and track order. A timeline
/// span chains from the previous one on its image and from its parent
/// flight; a flight chains from the best chain over its source image's spans
/// ending at or before its initiation, read off a per-image running maximum
/// when the sweep passes the initiation (a flight initiated at its own
/// delivery time reads it at its delivery). Timeline spans tile each image,
/// so every image track already arrives end-ordered and a k-way merge over
/// the images orders them in place; only the flights get index arrays, so
/// the extra memory is O(flights + images).
std::pair<Chain, int> critical_path(const Capture& capture) {
  const std::size_t images = static_cast<std::size_t>(capture.images);
  const SpanLog& net = capture.net_track().spans;
  CAF2_ASSERT(net.size() < std::numeric_limits<std::uint32_t>::max(),
              "analyze_blame: network track exceeds 2^32 spans");

  // Flights by end (stable: net-track order on ties), i.e. sweep order; a
  // flight's rank in it indexes `chains` and the id table.
  std::vector<std::uint32_t> by_end;
  by_end.reserve(net.size());
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    if (net[i].kind == SpanKind::kFlight) {
      by_end.push_back(i);
    }
  }
  std::stable_sort(by_end.begin(), by_end.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return net[x].end < net[y].end;
                   });
  const auto flight = [&](std::size_t rank) { return net[by_end[rank]]; };
  // Ranks of the flights initiated strictly before their delivery, by
  // initiation (equal initiations read the same running maximum).
  using IdRank = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<std::uint32_t> by_begin;
  std::vector<IdRank> ids;
  by_begin.reserve(by_end.size());
  ids.reserve(by_end.size());
  for (std::uint32_t rank = 0; rank < by_end.size(); ++rank) {
    if (flight(rank).begin < flight(rank).end) {
      by_begin.push_back(rank);
    }
    ids.emplace_back(flight(rank).id, rank);
  }
  std::sort(by_begin.begin(), by_begin.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              return flight(x).begin < flight(y).begin;
            });
  std::sort(ids.begin(), ids.end());
  // Flight ids are compose_id(images + source, counter) composites, so the
  // sorted ids group by their ordinal field (id >> 40): ids[first[f] ..
  // first[f + 1]) holds field f's flights, and a parent lookup searches only
  // its source's block instead of the whole array.
  std::vector<std::uint32_t> first;
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    first.resize(std::max(first.size(), (ids[i].first >> 40) + 1), i);
  }
  first.push_back(static_cast<std::uint32_t>(ids.size()));
  // Before a flight's delivery: the source chain read at its initiation.
  // After: the chain reaching its delivery.
  std::vector<Chain> chains(by_end.size());

  // The chain of the latest-swept flight named \p id, if one has been swept
  // by the time the sweep reaches \p at (ranks ascend in sweep order).
  const auto swept_flight = [&](std::uint64_t id, double at) -> const Chain* {
    const std::uint64_t field = id >> 40;
    if (field + 1 >= first.size()) {
      return nullptr;
    }
    const auto lo = ids.begin() + first[field];
    auto it = std::upper_bound(
        lo, ids.begin() + first[field + 1],
        IdRank{id, std::numeric_limits<std::uint32_t>::max()});
    for (; it != lo && std::prev(it)->first == id; --it) {
      const std::uint32_t rank = std::prev(it)->second;
      if (flight(rank).end <= at) {
        return &chains[rank];
      }
    }
    return nullptr;
  };

  std::vector<Chain> last(images);     // chain of each image's latest span
  std::vector<Chain> running(images);  // best chain so far on each image
  const auto source_chain = [&](const Span& span) {
    return span.image >= 0 && static_cast<std::size_t>(span.image) < images
               ? running[static_cast<std::size_t>(span.image)]
               : Chain{};
  };

  // Per-image track cursors, merged by (end, image).
  std::vector<std::size_t> cursor(images);
  using Head = std::pair<double, int>;
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
  for (std::size_t image = 0; image < images; ++image) {
    const SpanLog& spans = capture.tracks[image].spans;
    cursor[image] = next_timeline(spans, 0);
    if (cursor[image] < spans.size()) {
      heads.emplace(spans[cursor[image]].end, static_cast<int>(image));
    }
  }

  Chain best;
  int best_image = -1;
  std::size_t next_flight = 0;
  std::size_t next_begin = 0;
  while (next_flight < by_end.size() || !heads.empty()) {
    const bool is_flight =
        next_flight < by_end.size() &&
        (heads.empty() || flight(next_flight).end <= heads.top().first);
    const double end =
        is_flight ? flight(next_flight).end : heads.top().first;
    for (; next_begin < by_begin.size() &&
           flight(by_begin[next_begin]).begin < end;
         ++next_begin) {
      chains[by_begin[next_begin]] = source_chain(flight(by_begin[next_begin]));
    }

    if (is_flight) {
      const Span span = flight(next_flight);
      const Chain pred = span.begin < span.end ? chains[next_flight]
                                               : source_chain(span);
      Chain chain{span.end - span.begin, 1};
      if (pred.hops != 0) {
        chain.us += pred.us;
        chain.hops += pred.hops;
      }
      chains[next_flight] = chain;
      next_flight += 1;
      continue;
    }

    const auto image = static_cast<std::size_t>(heads.top().second);
    heads.pop();
    const SpanLog& spans = capture.tracks[image].spans;
    const Span span = spans[cursor[image]];
    Chain pred = last[image];
    if (span.parent() != 0) {
      const Chain* cause = swept_flight(span.parent(), span.end);
      if (cause != nullptr && cause->us > pred.us) {
        pred = *cause;
      }
    }
    const Chain chain{pred.us + (span.end - span.begin), pred.hops + 1};
    last[image] = chain;
    if (running[image].hops == 0 || chain.us > running[image].us) {
      running[image] = chain;
    }
    if (chain.us > best.us) {
      best = chain;
      best_image = static_cast<int>(image);
    }
    cursor[image] = next_timeline(spans, cursor[image] + 1);
    if (cursor[image] < spans.size()) {
      const double next_end = spans[cursor[image]].end;
      CAF2_ASSERT(next_end >= span.end,
                  "analyze_blame: an image's timeline spans are not in end "
                  "order");
      heads.emplace(next_end, static_cast<int>(image));
    }
  }
  return {best, best_image};
}

}  // namespace

BlameReport analyze_blame(const Capture& capture) {
  BlameReport report;
  report.per_image.resize(static_cast<std::size_t>(capture.images));

  // Fault-induced delay intervals, keyed by the affected image.
  std::vector<std::vector<Interval>> delays(
      static_cast<std::size_t>(capture.images));
  for (const Span& span : capture.net_track().spans) {
    if (span.kind == SpanKind::kRetransmitDelay && span.image >= 0 &&
        span.image < capture.images && span.end > span.begin) {
      delays[static_cast<std::size_t>(span.image)].push_back(
          {span.begin, span.end});
    }
  }
  for (auto& intervals : delays) {
    merge_intervals(intervals);
  }

  // --- per-image attribution ------------------------------------------------
  for (int image = 0; image < capture.images; ++image) {
    BlameBreakdown& breakdown =
        report.per_image[static_cast<std::size_t>(image)];
    const auto& intervals = delays[static_cast<std::size_t>(image)];
    for (const Span& span : capture.image_track(image).spans) {
      const double dur = span.end - span.begin;
      switch (span.kind) {
        case SpanKind::kCompute:
          breakdown[Blame::kCompute] += dur;
          break;
        case SpanKind::kBlocked: {
          // Causes are only ever flight span ids, so an un-scoped wait that
          // a message delivery released was waiting on the wire.
          Blame bucket = span.blame;
          if (bucket == Blame::kOther && span.parent() != 0) {
            bucket = Blame::kNetwork;
          }
          double charged = dur;
          if (!intervals.empty()) {
            const double delayed = overlap_us(intervals, span.begin, span.end);
            if (delayed > 0.0 && bucket != Blame::kNetwork) {
              breakdown[Blame::kNetwork] += delayed;
              report.retransmit_us += delayed;
              charged -= delayed;
            }
          }
          breakdown[bucket] += charged;
          break;
        }
        case SpanKind::kFinishDetect:
          report.finish_rounds_max =
              std::max(report.finish_rounds_max, span.a());
          break;
        default:
          break;  // op annotations overlay the timeline; don't double-count
      }
    }
  }
  for (const BlameBreakdown& breakdown : report.per_image) {
    for (std::size_t b = 0; b < kBlameBuckets; ++b) {
      report.total.us[b] += breakdown.us[b];
    }
  }

  // --- critical path --------------------------------------------------------
  const auto [path, path_image] = critical_path(capture);
  report.critical_path_us = path.us;
  report.critical_path_hops = path.hops;
  report.critical_path_image = path_image;
  return report;
}

std::string to_text(const BlameReport& report) {
  std::string out;
  char buf[256];
  const auto row = [&](const char* name, const BlameBreakdown& b) {
    std::snprintf(buf, sizeof buf,
                  "%-6s compute=%.3f network=%.3f finish=%.3f cofence=%.3f "
                  "event=%.3f steal=%.3f other=%.3f total=%.3f\n",
                  name, b[Blame::kCompute], b[Blame::kNetwork],
                  b[Blame::kFinishWait], b[Blame::kCofenceWait],
                  b[Blame::kEventWait], b[Blame::kStealIdle],
                  b[Blame::kOther], b.total());
    out += buf;
  };
  row("total", report.total);
  for (std::size_t i = 0; i < report.per_image.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "img%zu", i);
    row(name, report.per_image[i]);
  }
  std::snprintf(buf, sizeof buf,
                "critical path %.3f us over %llu spans ending on image %d; "
                "finish rounds max %llu; retransmit reattributed %.3f us\n",
                report.critical_path_us,
                static_cast<unsigned long long>(report.critical_path_hops),
                report.critical_path_image,
                static_cast<unsigned long long>(report.finish_rounds_max),
                report.retransmit_us);
  out += buf;
  return out;
}

}  // namespace caf2::obs
