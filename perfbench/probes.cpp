#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/caf2.hpp"
#include "sim/engine.hpp"
#include "sim/participant.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using namespace caf2;

constexpr int kRepeats = 3;  // each probe reports the median of its repeats

/// Host ns per engine event of one run of \p body on \p participants.
double engine_ns_per_event(int participants,
                           const std::function<void(int)>& body) {
  sim::EngineOptions options;
  options.backend = ExecBackend::kFibers;
  sim::Engine engine(participants, options);
  const std::int64_t t0 = host_ns();
  engine.run(body);
  const std::int64_t t1 = host_ns();
  return static_cast<double>(t1 - t0) /
         static_cast<double>(std::max<std::uint64_t>(engine.event_count(), 1));
}

double repeat_engine(const char* span, int participants,
                     const std::function<void(int)>& body) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    ScopedSpan s(span);
    samples.push_back(engine_ns_per_event(participants, body));
  }
  return median_of(samples);
}

std::atomic<std::uint64_t> g_landed{0};
std::atomic<std::uint64_t> g_sink{0};

void probe_land(std::uint64_t value) {
  g_landed.fetch_add(value, std::memory_order_relaxed);
}

}  // namespace

double median_of(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

EngineProbe probe_engine() {
  EngineProbe probe;
  probe.selfwake_ns = repeat_engine("sim.probe_selfwake", 1, [](int) {
    sim::Engine& e = sim::this_engine();
    for (int i = 0; i < 2'000'000; ++i) {
      e.advance(1.0);
    }
  });
  probe.handoff_ns = repeat_engine("sim.probe_handoff", 64, [](int) {
    sim::Engine& e = sim::this_engine();
    for (int i = 0; i < 12'500; ++i) {
      e.advance(1.0);
    }
  });
  probe.post_ns = repeat_engine("sim.probe_post", 1, [](int) {
    sim::Engine& e = sim::this_engine();
    for (int i = 0; i < 500'000; ++i) {
      e.post_in(0.5, [] {});
      e.advance(1.0);
    }
  });
  return probe;
}

IssueProbe probe_issue(std::uint64_t seed, bool& ok) {
  constexpr int kImages = 64;
  constexpr int kIssues = 256;  // per image and per operation
  RuntimeOptions options;
  options.num_images = kImages;
  options.net = NetworkParams::gemini_like();
  options.seed = seed;
  options.shards = 1;

  std::vector<double> spawn_samples;
  std::vector<double> copy_samples;
  for (int r = 0; r < kRepeats; ++r) {
    std::atomic<std::int64_t> spawn_ns{0};
    std::atomic<std::int64_t> copy_ns{0};
    g_landed.store(0);
    run_stats(options, [&] {
      Team world = team_world();
      Coarray<std::uint64_t> inbox(world, kIssues);
      std::vector<std::uint64_t> src(kIssues, 1);
      auto& rng = image_rng();
      std::int64_t spawn_local = 0;
      std::int64_t copy_local = 0;
      Event arrived;
      finish(world, [&] {
        for (int k = 0; k < kIssues; ++k) {
          const int target = static_cast<int>(rng.next_below(kImages));
          const std::int64_t t0 = host_ns();
          spawn<probe_land>(target, std::uint64_t{1});
          spawn_local += host_ns() - t0;
        }
        for (int k = 0; k < kIssues; ++k) {
          const int target = static_cast<int>(rng.next_below(kImages));
          const std::int64_t t0 = host_ns();
          copy_async(inbox.slice(target, static_cast<std::uint64_t>(k), 1),
                     std::span<const std::uint64_t>(&src[k], 1),
                     {.dst_done = arrived.handle()});
          copy_local += host_ns() - t0;
        }
        arrived.wait_many(kIssues);
      });
      spawn_ns.fetch_add(spawn_local);
      copy_ns.fetch_add(copy_local);
    });
    constexpr double kCalls = static_cast<double>(kImages) * kIssues;
    ok = ok && g_landed.load() == kImages * kIssues;
    spawn_samples.push_back(static_cast<double>(spawn_ns.load()) / kCalls);
    copy_samples.push_back(static_cast<double>(copy_ns.load()) / kCalls);
  }
  return {median_of(spawn_samples), median_of(copy_samples)};
}

double calibration_loop_s() {
  using Item = std::pair<double, std::uint64_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  auto uniform = [&state] {  // xorshift64
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  const std::int64_t t0 = host_ns();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    queue.push({uniform(), i});
  }
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < 400'000; ++i) {
    const Item event = queue.top();
    queue.pop();
    auto callback =
        std::make_unique<std::function<std::uint64_t(std::uint64_t)>>(
            [id = event.second](std::uint64_t x) { return x ^ id; });
    sum += (*callback)(i);
    queue.push({event.first + uniform(), event.second});
  }
  const std::int64_t t1 = host_ns();
  g_sink.fetch_add(sum, std::memory_order_relaxed);  // keep the loop observable
  return 1e-9 * static_cast<double>(t1 - t0);
}

}  // namespace perfbench
