/// Detector-specific properties (paper §V, Fig. 18): round counts, the
/// quiescence bound, the centralized owner hotspot, and robustness of all
/// detectors to non-FIFO delivery and heavy transitive spawning.

#include <gtest/gtest.h>

#include "core/caf2.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace caf2;

RuntimeOptions det_options(int images, double jitter = 1.0) {
  RuntimeOptions options;
  options.num_images = images;
  options.net.latency_us = 3.0;
  options.net.bandwidth_bytes_per_us = 500.0;
  options.net.handler_cost_us = 0.1;
  options.net.jitter_us = jitter;
  options.max_events = 20'000'000;
  return options;
}

void bump(Coref<long> counter) { counter.local()[0] += 1; }

void storm(std::int32_t depth, std::int32_t width, Coref<long> counter) {
  counter.local()[0] += 1;
  if (depth > 0) {
    auto& rng = rt::Image::current().rng();
    for (int w = 0; w < width; ++w) {
      const int target = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(num_images())));
      spawn<storm>(target, depth - 1, width, counter);
    }
  }
}

long expected_storm(int depth, int width, int initiators) {
  long per_root = 0;
  long level = 1;
  for (int d = 0; d <= depth; ++d) {
    per_root += level;
    level *= width;
  }
  return per_root * initiators;
}

class AllDetectors : public ::testing::TestWithParam<DetectorKind> {};

TEST_P(AllDetectors, SpawnStormFullyCounted) {
  const DetectorKind detector = GetParam();
  run(det_options(5), [detector] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(
        world,
        [&] {
          spawn<storm>((this_image() + 2) % world.size(), std::int32_t{3},
                       std::int32_t{2}, counter.ref());
        },
        FinishOptions{detector});
    const long total = allreduce<long>(world, counter[0], RedOp::kSum);
    EXPECT_EQ(total, expected_storm(3, 2, world.size()));
    team_barrier(world);
  });
}

TEST_P(AllDetectors, RobustToHeavyJitter) {
  const DetectorKind detector = GetParam();
  run(det_options(4, /*jitter=*/10.0), [detector] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(
        world,
        [&] {
          for (int t = 0; t < world.size(); ++t) {
            spawn<bump>(t, counter.ref());
          }
        },
        FinishOptions{detector});
    EXPECT_EQ(counter[0], world.size());
    team_barrier(world);
  });
}

TEST_P(AllDetectors, EmptyScopeTerminates) {
  const DetectorKind detector = GetParam();
  run(det_options(3), [detector] {
    finish(team_world(), [] {}, FinishOptions{detector});
    EXPECT_GE(last_finish_report().rounds, 1);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllDetectors,
    ::testing::Values(DetectorKind::kEpoch, DetectorKind::kSpeculative,
                      DetectorKind::kFourCounter,
                      DetectorKind::kCentralized));

TEST(Detectors, EpochNeverUsesMoreRoundsThanSpeculative) {
  // The quiescence precondition can only remove waves, never add them, for
  // the same workload and seed.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    int rounds_epoch = 0;
    int rounds_spec = 0;
    for (bool speculative : {false, true}) {
      RuntimeOptions options = det_options(4);
      options.seed = seed;
      int* out = speculative ? &rounds_spec : &rounds_epoch;
      run(options, [speculative, out] {
        Team world = team_world();
        Coarray<long> counter(world, 1);
        counter[0] = 0;
        team_barrier(world);
        finish(
            world,
            [&] {
              spawn<storm>((this_image() + 1) % world.size(),
                           std::int32_t{2}, std::int32_t{2}, counter.ref());
            },
            FinishOptions{speculative ? DetectorKind::kSpeculative
                                      : DetectorKind::kEpoch});
        if (this_image() == 0) {
          *out = last_finish_report().rounds;
        }
        team_barrier(world);
      });
    }
    EXPECT_LE(rounds_epoch, rounds_spec) << "seed " << seed;
  }
}

TEST(Detectors, CentralizedConcentratesTrafficAtOwner) {
  std::uint64_t owner_msgs_epoch = 0;
  std::uint64_t owner_msgs_central = 0;
  for (bool central : {false, true}) {
    std::uint64_t* out = central ? &owner_msgs_central : &owner_msgs_epoch;
    run(det_options(8), [central, out] {
      Team world = team_world();
      Coarray<long> counter(world, 1);
      counter[0] = 0;
      team_barrier(world);
      finish(
          world,
          [&] {
            for (int t = 0; t < world.size(); ++t) {
              spawn<bump>(t, counter.ref());
            }
          },
          FinishOptions{central ? DetectorKind::kCentralized
                                : DetectorKind::kEpoch});
      if (this_image() == 0) {
        *out = rt::Runtime::current().network().traffic(0).messages_in;
      }
      team_barrier(world);
    });
  }
  // The centralized detector funnels a vector from every member into the
  // owner per round; the epoch detector's reductions spread over a tree.
  EXPECT_GT(owner_msgs_central, owner_msgs_epoch);
}

TEST(Detectors, CentralizedCountsTrafficToHighestRank) {
  // Members keep sparse per-destination counts and scatter them into the
  // dense p-vector the owner sums; traffic aimed only at the last rank must
  // land in that vector's last slot, or the owner never sees it complete.
  run(det_options(64), [] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    const int last = world.size() - 1;
    finish(
        world, [&] { spawn<bump>(last, counter.ref()); },
        FinishOptions{DetectorKind::kCentralized});
    EXPECT_EQ(last_finish_report().rounds, 1);
    const long total = allreduce<long>(world, counter[0], RedOp::kSum);
    EXPECT_EQ(total, world.size());
    if (this_image() == last) {
      EXPECT_EQ(counter[0], world.size());
    }
    team_barrier(world);
  });
}

TEST(Detectors, RoundsReportedConsistentlyAcrossImages) {
  run(det_options(6), [] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      spawn<bump>((this_image() + 3) % world.size(), counter.ref());
    });
    const int mine = last_finish_report().rounds;
    const int min_rounds = static_cast<int>(
        allreduce<long>(world, mine, RedOp::kMin));
    const int max_rounds = static_cast<int>(
        allreduce<long>(world, mine, RedOp::kMax));
    EXPECT_EQ(min_rounds, max_rounds)
        << "detection waves are collective: every image counts the same";
    team_barrier(world);
  });
}

TEST(Detectors, DeterministicRoundsPerSeed) {
  for (int repeat = 0; repeat < 2; ++repeat) {
    static int first_rounds = -1;
    run(det_options(4), [] {
      Team world = team_world();
      Coarray<long> counter(world, 1);
      counter[0] = 0;
      team_barrier(world);
      finish(world, [&] {
        spawn<storm>((this_image() + 1) % world.size(), std::int32_t{2},
                     std::int32_t{2}, counter.ref());
      });
      if (this_image() == 0) {
        if (first_rounds < 0) {
          first_rounds = last_finish_report().rounds;
        } else {
          EXPECT_EQ(first_rounds, last_finish_report().rounds);
        }
      }
      team_barrier(world);
    });
  }
}

}  // namespace
