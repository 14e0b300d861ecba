/// Determinism regression tests for repeated runs (DESIGN.md §4.6).
///
/// Every run must repeat exactly. These tests pin that down at both layers:
///  - engine level: schedule digests (every scheduler decision at every
///    participant), event counts and context switch counts must match
///    between repeats;
///  - runtime level: a seeded RandomAccess workload over the jittered
///    Gemini-class network must dispatch the same number of events, end at
///    the same virtual time, and compute the same kernel timings on every
///    repeat — with and without injected faults.
///
/// Deterministic RunStats fields (events, virtual_us, context_switches,
/// faults) are compared bit-for-bit; peak_rss_bytes describes the host and
/// is deliberately excluded.
///
/// The shard-invariance suite at the end runs scaled-down analogues of the
/// perfbench workloads, a fault plan and a team split at shards 1, 2 and 4,
/// and requires one schedule: the same event count, end time, fault totals,
/// per-participant schedule digests, and byte-identical obs text and
/// Chrome-trace exports and blame.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/caf2.hpp"
#include "core/detectors.hpp"
#include "kernels/randomaccess.hpp"
#include "kernels/uts_scheduler.hpp"
#include "obs/blame.hpp"
#include "obs/export.hpp"
#include "runtime/internal.hpp"
#include "runtime/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/participant.hpp"
#include "schedule_check.hpp"

namespace {

using namespace caf2::sim;

/// A workload that exercises every scheduling decision: self-wakes (advance
/// with an empty/later queue), contested wakes (equal-time events from other
/// participants), Call callbacks, blocking, and stray unblocks.
void mixed_body(int id) {
  Engine& e = this_engine();
  for (int i = 0; i < 25; ++i) {
    e.advance(0.1 * (id + 1));
    if (i % 3 == 0) {
      e.post_in(0.05, [] {});
    }
    if (i % 7 == 0) {
      e.unblock((id + 1) % e.size());
    }
    if (i % 5 == 0) {
      e.yield();
    }
  }
}

struct EngineResult {
  std::vector<ParticipantDigest> digests;
  std::uint64_t context_switches = 0;
  std::uint64_t events = 0;
};

EngineResult engine_run() {
  Engine engine(4);
  engine.run(mixed_body);
  EngineResult result{engine.participant_digests(),
                      engine.context_switch_count(), engine.event_count()};
  std::uint64_t decisions = 0;
  for (const ParticipantDigest& participant : result.digests) {
    decisions += participant.decisions;
  }
  EXPECT_GT(decisions, 100u);
  return result;
}

TEST(Determinism, EngineScheduleIdenticalAcrossRepeats) {
  const EngineResult first = engine_run();
  const EngineResult second = engine_run();
  EXPECT_TRUE(caf2::test::same_schedule(first.digests, second.digests));
  EXPECT_EQ(first.events, second.events);
  EXPECT_GT(first.context_switches, 0u);
  EXPECT_EQ(first.context_switches, second.context_switches);
}

/// One full-stack seeded run: RandomAccess with function shipping on the
/// jittered Gemini-class interconnect, returning simulator statistics plus
/// the kernel's own virtual-time measurement.
struct StackResult {
  caf2::RunStats stats;
  double elapsed_us = 0.0;
};

StackResult stack_run() {
  caf2::RuntimeOptions options;
  options.num_images = 4;
  options.net = caf2::NetworkParams::gemini_like();
  options.seed = 20130520;
  StackResult result;
  result.stats = caf2::run_stats(options, [&] {
    caf2::kernels::RaConfig config;
    config.log2_local_table = 10;
    config.updates_per_image = 256;
    config.bunch = 64;
    const auto stats =
        caf2::kernels::ra_run_function_shipping(caf2::team_world(), config);
    if (caf2::this_image() == 0) {
      result.elapsed_us = stats.elapsed_us;
    }
  });
  EXPECT_GT(result.stats.events, 1000u);
  return result;
}

TEST(Determinism, RuntimeWorkloadIdenticalAcrossRepeats) {
  const StackResult first = stack_run();
  const StackResult second = stack_run();
  // Deterministic RunStats fields must be bit-identical across repeats.
  EXPECT_EQ(first.stats.events, second.stats.events);
  EXPECT_EQ(first.stats.virtual_us, second.stats.virtual_us);
  EXPECT_EQ(first.stats.context_switches, second.stats.context_switches);
  EXPECT_EQ(first.stats.schedule_digest, second.stats.schedule_digest);
  EXPECT_EQ(first.elapsed_us, second.elapsed_us);
}

/// --- determinism under injected faults (DESIGN.md §4.7) ---------------------
///
/// Fault decisions come from dedicated RNG streams, so a seeded run with an
/// active FaultPlan must be bit-reproducible, down to every participant's
/// schedule digest.

void fault_bump(caf2::Coref<long> counter) { counter.local()[0] += 1; }

struct FaultyResult {
  caf2::RunStats stats;
  std::vector<ParticipantDigest> digests;
};

FaultyResult faulty_run() {
  caf2::RuntimeOptions options;
  options.num_images = 4;
  options.net = caf2::NetworkParams::gemini_like();
  options.net.jitter_us = 0.5;
  options.net.faults.all.drop_probability = 0.10;
  options.net.faults.all.dup_probability = 0.05;
  options.net.faults.all.ack_drop_probability = 0.05;
  options.net.faults.all.delay_probability = 0.10;
  options.net.faults.all.delay_max_us = 5.0;
  options.seed = 424242;

  caf2::rt::Runtime runtime(options);
  caf2::rt::install_event_handlers(runtime);
  caf2::ops::install_copy_handlers(runtime);
  caf2::ops::install_spawn_handlers(runtime);
  caf2::ops::install_collective_handlers(runtime);
  caf2::core::install_detector_handlers(runtime);
  runtime.run([] {
    caf2::Team world = caf2::team_world();
    caf2::Coarray<long> counter(world, 1);
    counter[0] = 0;
    caf2::team_barrier(world);
    caf2::finish(world, [&] {
      for (int target = 0; target < world.size(); ++target) {
        caf2::spawn<fault_bump>(target, counter.ref());
      }
    });
    EXPECT_EQ(counter[0], world.size());
    caf2::team_barrier(world);
  });

  FaultyResult result;
  result.stats.events = runtime.engine().event_count();
  result.stats.virtual_us = runtime.engine().now();
  result.stats.context_switches = runtime.engine().context_switch_count();
  result.stats.faults = runtime.network().fault_stats();
  result.digests = runtime.engine().participant_digests();
  EXPECT_GT(result.stats.faults.deliveries_dropped +
                result.stats.faults.deliveries_duplicated +
                result.stats.faults.acks_dropped,
            0u)
      << "the plan must actually inject faults for this test to mean much";
  return result;
}

TEST(Determinism, FaultyRunScheduleIdenticalAcrossRepeats) {
  const FaultyResult first = faulty_run();
  const FaultyResult second = faulty_run();
  EXPECT_TRUE(caf2::test::same_schedule(first.digests, second.digests));
  EXPECT_EQ(first.stats.events, second.stats.events);
  EXPECT_EQ(first.stats.virtual_us, second.stats.virtual_us);
  EXPECT_EQ(first.stats.context_switches, second.stats.context_switches);
  EXPECT_EQ(first.stats.faults.deliveries_dropped,
            second.stats.faults.deliveries_dropped);
  EXPECT_EQ(first.stats.faults.deliveries_duplicated,
            second.stats.faults.deliveries_duplicated);
  EXPECT_EQ(first.stats.faults.acks_dropped, second.stats.faults.acks_dropped);
  EXPECT_EQ(first.stats.faults.retransmits, second.stats.faults.retransmits);
}

/// --- one schedule at every shard count (DESIGN.md §4.11) -------------------

/// A double rendered exactly.
std::string exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

/// Everything about a run that must not depend on the shard count: the
/// per-participant schedule digests, and the counts and obs exports as text.
struct Outcome {
  std::vector<ParticipantDigest> digests;
  std::string text;
};

Outcome invariant_outcome(const caf2::RuntimeOptions& options,
                          const std::function<void()>& body) {
  caf2::rt::Runtime runtime(options);
  caf2::rt::install_event_handlers(runtime);
  caf2::ops::install_copy_handlers(runtime);
  caf2::ops::install_spawn_handlers(runtime);
  caf2::ops::install_collective_handlers(runtime);
  caf2::core::install_detector_handlers(runtime);
  runtime.run(body);
  EXPECT_EQ(runtime.engine().shard_count(), options.shards);
  const caf2::FaultStats faults = runtime.network().fault_stats();
  std::ostringstream os;
  os << "events " << runtime.engine().event_count() << " virtual_us "
     << exact(runtime.engine().now()) << "\nfaults "
     << faults.deliveries_dropped << " " << faults.deliveries_duplicated
     << " " << faults.deliveries_delayed << " " << faults.acks_dropped << " "
     << faults.retransmits << " " << faults.duplicates_suppressed << " "
     << faults.scripted_applied << "\n";
  if (const auto capture = runtime.take_capture()) {
    os << caf2::obs::to_text(*capture);
    os << caf2::obs::to_chrome_trace(*capture);
    os << caf2::obs::to_text(caf2::obs::analyze_blame(*capture));
  }
  return {runtime.engine().participant_digests(), os.str()};
}

caf2::RuntimeOptions invariance_options(int images, std::uint64_t seed) {
  caf2::RuntimeOptions options;
  options.num_images = images;
  options.net = caf2::NetworkParams::gemini_like();
  options.net.jitter_us = 0.5;
  options.seed = seed;
  options.max_events = 50'000'000;
  return options;
}

/// Run \p body three times each at shards 1, 2 and 4 and require one
/// outcome.
void expect_one_schedule(caf2::RuntimeOptions options,
                         const std::function<void()>& body) {
  options.shards = 1;
  const Outcome reference = invariant_outcome(options, body);
  ASSERT_EQ(reference.digests.size(),
            static_cast<std::size_t>(options.num_images));
  EXPECT_GT(reference.digests[0].decisions, 0u);
  for (const int shards : {1, 2, 4}) {
    options.shards = shards;
    for (int repeat = shards == 1 ? 1 : 0; repeat < 3; ++repeat) {
      const Outcome outcome = invariant_outcome(options, body);
      EXPECT_TRUE(
          caf2::test::same_schedule(outcome.digests, reference.digests))
          << "shards=" << shards << " repeat " << repeat;
      EXPECT_EQ(outcome.text, reference.text)
          << "shards=" << shards << " repeat " << repeat;
    }
  }
}

TEST(ShardInvariance, Uts) {
  caf2::kernels::UtsConfig config;
  config.tree.b0 = 3.0;
  config.tree.max_depth = 6;
  config.node_cost_us = 0.2;
  const std::uint64_t expected = config.tree.count_tree();
  expect_one_schedule(invariance_options(8, 5), [&] {
    const auto stats = caf2::kernels::uts_run(caf2::team_world(), config);
    EXPECT_EQ(stats.total_nodes, expected);
  });
}

TEST(ShardInvariance, RandomAccessSpawnAndGetPut) {
  caf2::kernels::RaConfig config;
  config.log2_local_table = 8;
  config.updates_per_image = 128;
  config.bunch = 32;
  expect_one_schedule(invariance_options(8, 20130520), [&] {
    caf2::kernels::ra_run_function_shipping(caf2::team_world(), config);
    caf2::kernels::ra_run_get_update_put(caf2::team_world(), config);
  });
}

TEST(ShardInvariance, ProducerConsumerWithObsAndBlame) {
  // The fig12 producer-consumer: image 0 streams copies to random images and
  // reuses its buffer after a cofence, an event wait and a finish in turn.
  caf2::RuntimeOptions options = invariance_options(8, 12);
  options.obs.enabled = true;
  expect_one_schedule(options, [] {
    caf2::Team world = caf2::team_world();
    caf2::Coarray<std::uint8_t> inbuf(world, 256);
    std::vector<std::uint8_t> src(256, 0xAB);
    auto& rng = caf2::image_rng();
    caf2::team_barrier(world);
    const auto put_round = [&](const caf2::CopyOptions& copy_options) {
      for (int c = 0; c < 4; ++c) {
        const int dest = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(world.size())));
        caf2::copy_async(inbuf(dest), std::span<const std::uint8_t>(src),
                         copy_options);
      }
    };
    for (int iter = 0; iter < 3; ++iter) {
      caf2::finish(world, [&] {
        if (world.rank() != 0) {
          return;
        }
        put_round({});
        caf2::cofence();
        caf2::Event delivered;
        put_round({.dst_done = delivered.handle()});
        delivered.wait_many(4);
      });
      caf2::compute(1.0);
    }
    caf2::team_barrier(world);
  });
}

TEST(ShardInvariance, AutoCollectives) {
  expect_one_schedule(invariance_options(16, 64), [] {
    caf2::Team world = caf2::team_world();
    const auto p = static_cast<std::int64_t>(world.size());
    std::vector<std::int64_t> big(512, 1);
    std::vector<std::int64_t> send(2, world.rank());
    std::vector<std::int64_t> recv(2 * static_cast<std::size_t>(p));
    for (int it = 0; it < 2; ++it) {
      EXPECT_EQ(caf2::allreduce<std::int64_t>(world, 1, caf2::RedOp::kSum), p);
      caf2::Event done;
      caf2::allreduce_async<std::int64_t>(world, std::span(big),
                                          caf2::RedOp::kSum,
                                          {.local_done = done.handle()});
      done.wait();
      caf2::Event cast;
      caf2::broadcast_async<std::int64_t>(world, std::span(big), it,
                                          {.local_done = cast.handle()});
      cast.wait();
      caf2::Event gathered;
      caf2::allgather_async<std::int64_t>(
          world, std::span<const std::int64_t>(send), std::span(recv),
          {.local_done = gathered.handle()});
      gathered.wait();
    }
  });
}

TEST(ShardInvariance, FaultPlan) {
  caf2::RuntimeOptions options = invariance_options(8, 424242);
  options.net.faults.all.drop_probability = 0.10;
  options.net.faults.all.dup_probability = 0.05;
  options.net.faults.all.ack_drop_probability = 0.05;
  options.net.faults.all.delay_probability = 0.10;
  options.net.faults.all.delay_max_us = 5.0;
  // Obs on: reliable flight ids and retransmit-delay spans are compared too.
  options.obs.enabled = true;
  expect_one_schedule(options, [] {
    caf2::Team world = caf2::team_world();
    caf2::Coarray<long> counter(world, 1);
    counter[0] = 0;
    caf2::team_barrier(world);
    caf2::finish(world, [&] {
      for (int target = 0; target < world.size(); ++target) {
        caf2::spawn<fault_bump>(target, counter.ref());
      }
    });
    EXPECT_EQ(counter[0], world.size());
    caf2::team_barrier(world);
  });
}

TEST(ShardInvariance, NestedSplit) {
  expect_one_schedule(invariance_options(8, 71), [] {
    caf2::Team world = caf2::team_world();
    const int me = world.rank();
    caf2::compute(0.5 * ((me * 5) % 8));
    caf2::Team half = world.split(me % 2, -me);
    caf2::compute(0.25 * ((me * 3) % 8));
    caf2::Team quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(caf2::allreduce<long>(quarter, 1, caf2::RedOp::kSum), 2);
  });
}

}  // namespace
