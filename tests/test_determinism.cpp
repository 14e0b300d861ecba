/// Determinism regression tests for the scheduler fast path (DESIGN.md §4.6)
/// and repeated runs.
///
/// The self-wake fast path and the pooled Call-event storage are pure
/// performance transformations: the engine must produce *bit-identical*
/// results with them enabled, disabled via EngineOptions, or disabled via
/// the CAF2_SIM_NO_FASTPATH environment variable, and every run must repeat
/// exactly. These tests pin that down at both layers:
///  - engine level: recorded traces (every scheduler decision) and context
///    switch counts must match entry for entry between fast path on and
///    off, and between repeats;
///  - runtime level: a seeded RandomAccess workload over the jittered
///    Gemini-class network must dispatch the same number of events, end at
///    the same virtual time, and compute the same kernel timings on every
///    repeat x fastpath combination — with and without injected faults.
///
/// Deterministic RunStats fields (events, virtual_us, context_switches,
/// faults) are compared bit-for-bit; fastpath/peak_rss_bytes describe the
/// configuration or the host and are deliberately excluded.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/caf2.hpp"
#include "core/detectors.hpp"
#include "kernels/randomaccess.hpp"
#include "runtime/internal.hpp"
#include "runtime/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/participant.hpp"

namespace {

using namespace caf2::sim;

/// A workload that exercises every fast-path decision point: self-wakes
/// (advance with an empty/later heap), contested wakes (equal-time events
/// from other participants), Call callbacks, blocking, and stray unblocks.
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
  std::string trace;
  std::uint64_t context_switches = 0;
  std::uint64_t events = 0;
};

EngineResult traced_engine_run(bool enable_fastpath) {
  EngineOptions options;
  options.record_trace = true;
  options.enable_fastpath = enable_fastpath;
  Engine engine(4, options);
  engine.run(mixed_body);
  EXPECT_EQ(engine.fastpath_enabled(), enable_fastpath);
  EXPECT_GT(engine.trace().size(), 100u);
  return {render_trace(engine.trace()), engine.context_switch_count(),
          engine.event_count()};
}

std::string traced_run(bool enable_fastpath) {
  return traced_engine_run(enable_fastpath).trace;
}

TEST(Determinism, EngineTraceIdenticalAcrossRepeats) {
  for (const bool fastpath : {true, false}) {
    const EngineResult first = traced_engine_run(fastpath);
    const EngineResult second = traced_engine_run(fastpath);
    EXPECT_EQ(first.trace, second.trace) << "fastpath=" << fastpath;
    EXPECT_EQ(first.events, second.events) << "fastpath=" << fastpath;
    EXPECT_EQ(first.context_switches, second.context_switches)
        << "fastpath=" << fastpath;
  }
}

TEST(Determinism, EngineTraceIdenticalFastPathOnAndOff) {
  EXPECT_EQ(traced_run(true), traced_run(false));
}

TEST(Determinism, EnvVarForcesSlowPathWithIdenticalTrace) {
  const std::string baseline = traced_run(true);
  ASSERT_EQ(setenv("CAF2_SIM_NO_FASTPATH", "1", 1), 0);
  EngineOptions options;
  options.record_trace = true;
  options.enable_fastpath = true;  // env var must win
  Engine engine(4, options);
  engine.run(mixed_body);
  unsetenv("CAF2_SIM_NO_FASTPATH");
  EXPECT_FALSE(engine.fastpath_enabled());
  EXPECT_EQ(render_trace(engine.trace()), baseline);
}

TEST(Determinism, ContextSwitchCountInvariantUnderFastPath) {
  // context_switches counts token handoffs (dispatches that move the token
  // to a different participant), which is a pure function of the dispatch
  // order — so it must not change when the fast path elides heap traffic.
  const EngineResult fast = traced_engine_run(true);
  const EngineResult slow = traced_engine_run(false);
  EXPECT_GT(fast.context_switches, 0u);
  EXPECT_EQ(fast.context_switches, slow.context_switches);
}

/// One full-stack seeded run: RandomAccess with function shipping on the
/// jittered Gemini-class interconnect, returning simulator statistics plus
/// the kernel's own virtual-time measurement.
struct StackResult {
  caf2::RunStats stats;
  double elapsed_us = 0.0;

  bool operator==(const StackResult& other) const {
    return stats.events == other.stats.events &&
           stats.virtual_us == other.stats.virtual_us &&
           elapsed_us == other.elapsed_us;
  }
};

StackResult stack_run(bool fastpath) {
  caf2::RuntimeOptions options;
  options.num_images = 4;
  options.net = caf2::NetworkParams::gemini_like();
  options.seed = 20130520;
  options.sim_fastpath = fastpath;
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
  EXPECT_EQ(result.stats.fastpath, fastpath);
  EXPECT_GT(result.stats.events, 1000u);
  return result;
}

TEST(Determinism, RuntimeWorkloadIdenticalAcrossRepeats) {
  for (const bool fastpath : {true, false}) {
    const StackResult first = stack_run(fastpath);
    const StackResult second = stack_run(fastpath);
    // Deterministic RunStats fields must be bit-identical across repeats.
    EXPECT_EQ(first.stats.events, second.stats.events)
        << "fastpath=" << fastpath;
    EXPECT_EQ(first.stats.virtual_us, second.stats.virtual_us)
        << "fastpath=" << fastpath;
    EXPECT_EQ(first.stats.context_switches, second.stats.context_switches)
        << "fastpath=" << fastpath;
    EXPECT_EQ(first.elapsed_us, second.elapsed_us) << "fastpath=" << fastpath;
  }
}

TEST(Determinism, RuntimeWorkloadIdenticalFastPathOnAndOff) {
  const StackResult fast = stack_run(true);
  const StackResult slow = stack_run(false);
  EXPECT_EQ(fast.stats.events, slow.stats.events);
  EXPECT_EQ(fast.stats.virtual_us, slow.stats.virtual_us);
  EXPECT_EQ(fast.elapsed_us, slow.elapsed_us);
}

/// --- determinism under injected faults (DESIGN.md §4.7) ---------------------
///
/// Fault decisions come from a dedicated RNG stream, so a seeded run with an
/// active FaultPlan must be bit-reproducible — including the full scheduler
/// trace with the fast path on vs off.

void fault_bump(caf2::Coref<long> counter) { counter.local()[0] += 1; }

struct FaultyResult {
  caf2::RunStats stats;
  std::string trace;
};

FaultyResult faulty_traced_run(bool fastpath) {
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
  options.sim_fastpath = fastpath;
  options.record_trace = true;

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
  result.stats.fastpath = runtime.engine().fastpath_enabled();
  result.stats.faults = runtime.network().fault_stats();
  result.trace = render_trace(runtime.engine().trace());
  EXPECT_GT(result.stats.faults.deliveries_dropped +
                result.stats.faults.deliveries_duplicated +
                result.stats.faults.acks_dropped,
            0u)
      << "the plan must actually inject faults for this test to mean much";
  return result;
}


TEST(Determinism, FaultyRunTraceIdenticalFastPathOnAndOff) {
  const FaultyResult fast = faulty_traced_run(true);
  const FaultyResult slow = faulty_traced_run(false);
  EXPECT_EQ(fast.stats.fastpath, true);
  EXPECT_EQ(slow.stats.fastpath, false);
  EXPECT_EQ(fast.trace, slow.trace);
  EXPECT_EQ(fast.stats.events, slow.stats.events);
  EXPECT_EQ(fast.stats.virtual_us, slow.stats.virtual_us);
  EXPECT_EQ(fast.stats.faults.deliveries_dropped,
            slow.stats.faults.deliveries_dropped);
  EXPECT_EQ(fast.stats.faults.retransmits, slow.stats.faults.retransmits);
  EXPECT_EQ(fast.stats.faults.duplicates_suppressed,
            slow.stats.faults.duplicates_suppressed);
}

TEST(Determinism, FaultyRunTraceIdenticalAcrossRepeats) {
  for (const bool fastpath : {true, false}) {
    const FaultyResult first = faulty_traced_run(fastpath);
    const FaultyResult second = faulty_traced_run(fastpath);
    EXPECT_EQ(first.trace, second.trace) << "fastpath=" << fastpath;
    EXPECT_EQ(first.stats.events, second.stats.events)
        << "fastpath=" << fastpath;
    EXPECT_EQ(first.stats.virtual_us, second.stats.virtual_us)
        << "fastpath=" << fastpath;
    EXPECT_EQ(first.stats.context_switches, second.stats.context_switches)
        << "fastpath=" << fastpath;
    EXPECT_EQ(first.stats.faults.deliveries_dropped,
              second.stats.faults.deliveries_dropped)
        << "fastpath=" << fastpath;
    EXPECT_EQ(first.stats.faults.deliveries_duplicated,
              second.stats.faults.deliveries_duplicated)
        << "fastpath=" << fastpath;
    EXPECT_EQ(first.stats.faults.acks_dropped,
              second.stats.faults.acks_dropped)
        << "fastpath=" << fastpath;
    EXPECT_EQ(first.stats.faults.retransmits,
              second.stats.faults.retransmits)
        << "fastpath=" << fastpath;
  }
}

}  // namespace
