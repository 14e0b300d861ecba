#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

SpanRecorder* g_recorder = nullptr;

std::uint64_t span_key(int lane, std::uint32_t index) {
  return (static_cast<std::uint64_t>(lane) << 32) | index;
}

}  // namespace

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder* active_recorder() { return g_recorder; }

void set_active_recorder(SpanRecorder* recorder) { g_recorder = recorder; }

SpanRecorder::SpanRecorder(int images)
    : lanes_(static_cast<std::size_t>(images) + 1) {}

void SpanRecorder::begin(int lane, const char* name) {
  Lane& own = lanes_[static_cast<std::size_t>(lane)];
  Span span;
  span.name = name;
  if (!own.open.empty()) {
    span.parent_lane = lane;
    span.parent_index = own.open.back();
  } else if (lane != 0 && !lanes_[0].open.empty()) {
    // The main-thread lane is not modified while images run: its open span is
    // the run_stats() call that hosts them.
    span.parent_lane = 0;
    span.parent_index = lanes_[0].open.back();
  }
  own.open.push_back(static_cast<std::uint32_t>(own.spans.size()));
  span.begin_ns = host_ns();
  own.spans.push_back(span);
}

void SpanRecorder::end(int lane) {
  const std::int64_t now = host_ns();
  Lane& own = lanes_[static_cast<std::size_t>(lane)];
  own.spans[own.open.back()].end_ns = now;
  own.open.pop_back();
}

std::vector<std::vector<double>> SpanRecorder::self_times() const {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Lane& lane : lanes_) {
    for (const Span& s : lane.spans) {
      if (s.parent_lane >= 0) {
        children[span_key(s.parent_lane, s.parent_index)].emplace_back(
            s.begin_ns, s.end_ns);
      }
    }
  }
  std::vector<std::vector<double>> self(lanes_.size());
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    const std::vector<Span>& spans = lanes_[lane].spans;
    self[lane].resize(spans.size());
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      double covered = 0.0;
      auto it = children.find(span_key(static_cast<int>(lane), i));
      if (it != children.end()) {
        // Union of the children's intervals, clipped to this span.
        auto& kids = it->second;
        std::sort(kids.begin(), kids.end());
        std::int64_t run_begin = 0;
        std::int64_t run_end = 0;
        for (auto [b, e] : kids) {
          b = std::max(b, s.begin_ns);
          e = std::min(e, s.end_ns);
          if (e <= b) {
            continue;
          }
          if (b > run_end) {
            covered += static_cast<double>(run_end - run_begin);
            run_begin = b;
            run_end = e;
          } else {
            run_end = std::max(run_end, e);
          }
        }
        covered += static_cast<double>(run_end - run_begin);
      }
      self[lane][i] = static_cast<double>(s.end_ns - s.begin_ns) - covered;
    }
  }
  return self;
}

std::map<std::string, SpanRecorder::Summary> SpanRecorder::summarize() const {
  std::map<std::string, Summary> out;
  const std::vector<std::vector<double>> self = self_times();
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    const std::vector<Span>& spans = lanes_[lane].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      Summary& s = out[spans[i].name];
      s.count += 1;
      s.total_ns += static_cast<double>(spans[i].end_ns - spans[i].begin_ns);
      s.self_ns += self[lane][i];
    }
  }
  return out;
}

double SpanRecorder::mean_ns(const std::string& name) const {
  double total = 0.0;
  std::uint64_t count = 0;
  for (const Lane& lane : lanes_) {
    for (const Span& s : lane.spans) {
      if (name == s.name) {
        total += static_cast<double>(s.end_ns - s.begin_ns);
        ++count;
      }
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // spans: [lane, name, begin_ns, end_ns, self_ns, parent_lane, parent_index]
  std::fprintf(f, "{\"spans\": [");
  bool first = true;
  const std::vector<std::vector<double>> self = self_times();
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    const std::vector<Span>& spans = lanes_[lane].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s\n[%zu, \"%s\", %lld, %lld, %.0f, %d, %u]",
                   first ? "" : ",", lane, s.name,
                   static_cast<long long>(s.begin_ns),
                   static_cast<long long>(s.end_ns), self[lane][i],
                   s.parent_lane, s.parent_index);
      first = false;
    }
  }
  std::fprintf(f, "],\n\"summary\": {");
  first = true;
  for (const auto& [name, s] : summarize()) {
    std::fprintf(f,
                 "%s\n\"%s\": {\"count\": %llu, \"total_ns\": %.0f, "
                 "\"self_ns\": %.0f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(s.count), s.total_ns,
                 s.self_ns);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
