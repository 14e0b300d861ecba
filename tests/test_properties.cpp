/// System-level property tests: conservation laws of the message
/// accounting, virtual-clock monotonicity, full-runtime trace determinism,
/// and invariants that must hold for any seed / image count / jitter.

#include <gtest/gtest.h>

#include <vector>

#include "core/caf2.hpp"
#include "runtime/runtime.hpp"
#include "sim/engine.hpp"

namespace {

using namespace caf2;

struct PropertyCase {
  int images;
  double jitter;
  std::uint64_t seed;
};

class PropertySweep : public ::testing::TestWithParam<PropertyCase> {};

RuntimeOptions options_for(const PropertyCase& param) {
  RuntimeOptions options;
  options.num_images = param.images;
  options.net.latency_us = 2.5;
  options.net.bandwidth_bytes_per_us = 600.0;
  options.net.handler_cost_us = 0.1;
  options.net.jitter_us = param.jitter;
  options.seed = param.seed;
  options.max_events = 10'000'000;
  return options;
}

void relay(std::int32_t hops, Coref<long> counter) {
  counter.local()[0] += 1;
  if (hops > 0) {
    const int next = (this_image() + 1) % num_images();
    spawn<relay>(next, hops - 1, counter);
  }
}

/// Mixed workload exercised under every parameter combination.
void workload() {
  Team world = team_world();
  Coarray<long> counter(world, 1);
  Coarray<int> ring(world, 8);
  counter[0] = 0;
  team_barrier(world);

  finish(world, [&] {
    spawn<relay>((this_image() + 1) % world.size(), std::int32_t{2},
                 counter.ref());
    // Plain local (NOT static/thread_local: images share one OS thread under
    // the fiber backend); cofence() below stages it before scope exit.
    std::vector<int> payload;
    payload.assign(8, this_image());
    copy_async(ring((world.rank() + 1) % world.size()),
               std::span<const int>(payload));
    cofence();
  });

  const long total = allreduce<long>(world, counter[0], RedOp::kSum);
  EXPECT_EQ(total, 3L * world.size());
  const int prev = (world.rank() + world.size() - 1) % world.size();
  EXPECT_EQ(ring[0], prev);
  team_barrier(world);
}

TEST_P(PropertySweep, WorkloadInvariantsHold) {
  run(options_for(GetParam()), workload);
}

TEST_P(PropertySweep, EveryMessageSentIsDelivered) {
  // Conservation: after a clean shutdown, the network-wide totals balance —
  // every sent message was delivered to some mailbox, and every image's
  // mailbox was fully drained.
  const PropertyCase param = GetParam();
  run(options_for(param), [] {
    workload();
    rt::Runtime& runtime = rt::Runtime::current();
    team_barrier(team_world());
    CoEvent checked(team_world());
    if (this_image() == 0) {
      auto totals = [&runtime] {
        std::uint64_t delivered = 0;
        std::uint64_t out_total = 0;
        std::uint64_t in_total = 0;
        for (int r = 0; r < runtime.num_images(); ++r) {
          delivered += runtime.network().mailbox(r).delivered_total();
          out_total += runtime.network().traffic(r).messages_out;
          in_total += runtime.network().traffic(r).messages_in;
        }
        return std::tuple{delivered, out_total, in_total};
      };
      // The barrier's own final tokens may still be in flight; delivery
      // counters update at delivery time, so advancing virtual time past
      // every possible flight time settles them deterministically.
      compute(1000.0);
      const auto [delivered, out_total, in_total] = totals();
      EXPECT_EQ(out_total, in_total);
      EXPECT_EQ(delivered, runtime.network().messages_sent());
      // Release the others only after the counters were inspected; any
      // message they send would perturb the snapshot.
      for (int r = 1; r < num_images(); ++r) {
        notify_event(checked(r));
      }
    } else {
      checked.local().wait();
    }
    team_barrier(team_world());
  });
}

TEST_P(PropertySweep, VirtualClockIsMonotonic) {
  run(options_for(GetParam()), [] {
    double last = now_us();
    Team world = team_world();
    for (int i = 0; i < 10; ++i) {
      compute(0.5);
      EXPECT_GE(now_us(), last);
      last = now_us();
      team_barrier(world);
      EXPECT_GE(now_us(), last);
      last = now_us();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PropertySweep,
    ::testing::Values(PropertyCase{1, 0.0, 1}, PropertyCase{2, 0.0, 2},
                      PropertyCase{3, 1.0, 3}, PropertyCase{4, 0.0, 4},
                      PropertyCase{4, 3.0, 5}, PropertyCase{7, 1.5, 6},
                      PropertyCase{8, 0.5, 7}));

/// What a whole-runtime execution must repeat exactly.
struct Execution {
  double end_us = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t schedule_digest = 0;

  bool operator==(const Execution&) const = default;
};

TEST(Properties, WholeRuntimeExecutionIsDeterministic) {
  // Two complete runtime executions of the mixed workload with the same
  // seed produce identical schedules, virtual end times and message totals.
  auto fingerprint = [](std::uint64_t seed) {
    RuntimeOptions options;
    options.num_images = 4;
    options.net.latency_us = 2.0;
    options.net.bandwidth_bytes_per_us = 500.0;
    options.net.handler_cost_us = 0.1;
    options.net.jitter_us = 1.0;
    options.seed = seed;
    options.max_events = 10'000'000;
    Execution print;
    print.schedule_digest = run_stats(options, [&] {
      workload();
      if (this_image() == 0) {
        print.end_us = now_us();
        // On a sharded engine the global send counter is updated by other
        // shards in real time; advancing virtual time past every possible
        // flight settles it deterministically (same pattern as
        // EveryMessageSentIsDelivered above).
        compute(1000.0);
        print.messages = rt::Runtime::current().network().messages_sent();
      }
      team_barrier(team_world());
    }).schedule_digest;
    return print;
  };
  const auto a = fingerprint(99);
  const auto b = fingerprint(99);
  const auto c = fingerprint(100);
  EXPECT_EQ(a, b);
  // Another seed draws other jitter (1 us here), so the digest must see a
  // different schedule; equal digests would mean it folds too little.
  EXPECT_NE(a.schedule_digest, c.schedule_digest);
}

}  // namespace
