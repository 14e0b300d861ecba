/// Tests for the finish construct: global completion of implicit operations
/// and transitive spawn chains, the L+1 round bound (paper Theorem 1),
/// nesting, subteam scopes, counting conservation, the Fig. 5
/// barrier-failure scenario, and equivalence of all four detectors.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/caf2.hpp"
#include "runtime/image.hpp"

namespace {

using namespace caf2;

RuntimeOptions finish_options(int images, double latency = 3.0,
                              double jitter = 1.0) {
  RuntimeOptions options;
  options.num_images = images;
  options.net.latency_us = latency;
  options.net.bandwidth_bytes_per_us = 500.0;
  options.net.handler_cost_us = 0.1;
  options.net.jitter_us = jitter;  // non-FIFO channels
  options.max_events = 10'000'000;
  return options;
}


void bump(Coref<long> counter) { counter.local()[0] += 1; }

void chain(std::int32_t remaining, Coref<long> counter) {
  counter.local()[0] += 1;
  if (remaining > 0) {
    const int next = (this_image() + 1) % num_images();
    spawn<chain>(next, remaining - 1, counter);
  }
}

void fanout(std::int32_t depth, Coref<long> counter) {
  counter.local()[0] += 1;
  if (depth > 0) {
    for (int t = 0; t < num_images(); ++t) {
      if (t != this_image()) {
        spawn<fanout>(t, depth - 1, counter);
      }
    }
  }
}

void land(Coref<long> data) { data.local()[0] += 1; }

/// Runs on image 1 while it already sits in its first detection wave: lands
/// a spawn on image 2 and puts image 1's whole block to \p far.
void relay(Coref<long> data, RemoteSlice<long> far, RemoteEvent landed) {
  spawn<land>(landed, 2, data);
  copy_async(far, std::span<const long>(data.local()));
}

TEST(Finish, EmptyFinishUsesOneRound) {
  // Paper Theorem 1 base case: L = 0 => one allreduce detects termination.
  run(finish_options(4), [] {
    finish(team_world(), [] {});
    EXPECT_EQ(last_finish_report().rounds, 1);
  });
}

TEST(Finish, GuaranteesGlobalCompletionOfSpawns) {
  run(finish_options(4), [] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      for (int t = 0; t < world.size(); ++t) {
        spawn<bump>(t, counter.ref());
      }
    });
    EXPECT_EQ(counter[0], world.size());
    team_barrier(world);
  });
}

class ChainDepths : public ::testing::TestWithParam<int> {};

TEST_P(ChainDepths, RoundsBoundedByChainLengthPlusOne) {
  // Property from paper Theorem 1: detection needs at most L+1 reduction
  // waves, where L is the longest transitive spawn chain.
  const int depth = GetParam();
  run(finish_options(4), [depth] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      if (world.rank() == 0) {
        spawn<chain>(1, static_cast<std::int32_t>(depth), counter.ref());
      }
    });
    const int rounds = last_finish_report().rounds;
    EXPECT_LE(rounds, depth + 2);  // chain length = depth + 1 spawns
    EXPECT_GE(rounds, 1);
    const long total = allreduce<long>(world, counter[0], RedOp::kSum);
    EXPECT_EQ(total, depth + 1);
    team_barrier(world);
  });
}

INSTANTIATE_TEST_SUITE_P(Depths, ChainDepths,
                         ::testing::Values(0, 1, 2, 4, 8));

TEST(Finish, TransitiveFanoutFullyCounted) {
  run(finish_options(3), [] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      if (world.rank() == 0) {
        spawn<fanout>(1, std::int32_t{2}, counter.ref());
      }
    });
    // Execution tree: 1 + 2 + 2*2 = 7 executions for depth 2 with p=3.
    const long total = allreduce<long>(world, counter[0], RedOp::kSum);
    EXPECT_EQ(total, 7);
    team_barrier(world);
  });
}

TEST(Finish, SendsFromAWaveCarryOddParity) {
  // Paper Fig. 7: a message sent by an image inside a detection wave carries
  // odd parity, so its receiver counts it outside that wave's even sums.
  // Image 1's body is empty, so it enters the first wave at once; image 0's
  // spawn reaches it there. Image 2 completes the relayed spawn before it
  // joins the wave, and the relayed put to image 3 is still being staged
  // when the wave sums. Were the relayed messages counted as even, image 2's
  // completion would cancel image 0's send and the first wave would sum to
  // zero with the put in flight.
  constexpr std::size_t kWords = 16384;  // 128 KiB: ~262 us of staging
  run(finish_options(4, /*latency=*/3.0, /*jitter=*/0.0), [] {
    Team world = team_world();
    Coarray<long> data(world, kWords);
    std::fill(data.local().begin(), data.local().end(), world.rank());
    CoEvent landed(world);
    team_barrier(world);
    finish(world, [&] {
      if (world.rank() == 0) {
        spawn<relay>(1, data.ref(), data(3), landed(2));
      } else if (world.rank() == 2) {
        landed.local().wait();
      }
    });
    EXPECT_GE(last_finish_report().rounds, 2);
    if (world.rank() == 2) {
      EXPECT_EQ(data[0], 3);
    }
    if (world.rank() == 3) {
      EXPECT_EQ(data[0], 1) << "finish ended before the relayed put landed";
      EXPECT_EQ(data[kWords - 1], 1);
    }
    team_barrier(world);
  });
}

TEST(Finish, NestedBlocksWithDifferentTeams) {
  run(finish_options(6), [] {
    Team world = team_world();
    Team sub = world.split(world.rank() % 2, world.rank());
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      // Outer spawn before the nested block.
      spawn<bump>((this_image() + 1) % world.size(), counter.ref());
      // Nested finish over the parity subteam.
      finish(sub, [&] {
        spawn<bump>(sub.world_rank((sub.rank() + 1) % sub.size()),
                    counter.ref());
      });
      // The nested scope completed: both of this image's spawns will be
      // globally complete when the outer scope ends.
    });
    const long total = allreduce<long>(world, counter[0], RedOp::kSum);
    EXPECT_EQ(total, 2L * world.size());
    team_barrier(world);
  });
}

TEST(Finish, SequentialScopesAreIndependent) {
  run(finish_options(3), [] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    for (int round = 0; round < 5; ++round) {
      finish(world, [&] {
        spawn<bump>((this_image() + 1) % world.size(), counter.ref());
      });
      EXPECT_EQ(counter[0], round + 1);  // each scope completed in turn
      // Keep fast images from starting the next round before the check.
      team_barrier(world);
    }
    team_barrier(world);
  });
}

TEST(Finish, SubteamFinishDoesNotInvolveOutsiders) {
  run(finish_options(5), [] {
    Team world = team_world();
    Team pair = world.split(world.rank() < 2 ? 0 : -1, world.rank());
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    if (pair.valid()) {
      finish(pair, [&] {
        spawn<bump>(pair.world_rank(1 - pair.rank()), counter.ref());
      });
      EXPECT_EQ(counter[0], 1);
    }
    team_barrier(world);
  });
}

void fig5_f2(Coref<long> flag, std::vector<std::uint8_t> ballast) {
  (void)ballast;
  flag.local()[0] = 1;
}

void fig5_f1(std::int32_t r, Coref<long> flag) {
  // Large argument: slow injection widens the race window.
  spawn<fig5_f2>(r, flag, std::vector<std::uint8_t>(3000, 1));
}

TEST(Finish, BarrierIsNotEnough) {
  // Paper Fig. 5: p ships f1 to q, which ships f2 to r. A barrier entered
  // after f1's completion event can complete before f2 lands; finish cannot.
  RuntimeOptions options = finish_options(3, /*latency=*/2.0, /*jitter=*/0.0);
  options.net.bandwidth_bytes_per_us = 50.0;  // 3000 B => 60 us injection
  run(options, [] {
    Team world = team_world();
    Coarray<long> flag(world, 1);
    flag[0] = 0;
    team_barrier(world);

    // Barrier-based attempt.
    if (world.rank() == 0) {
      Event f1_done;
      spawn<fig5_f1>(f1_done, 1, std::int32_t{2}, flag.ref());
      f1_done.wait();
    }
    team_barrier(world);
    if (world.rank() == 2) {
      EXPECT_EQ(flag[0], 0) << "the barrier should have missed f2";
    }
    // Drain the stray f2 before the finish attempt.
    compute(300.0);
    team_barrier(world);
    flag[0] = 0;
    team_barrier(world);

    // finish-based attempt.
    finish(world, [&] {
      if (world.rank() == 0) {
        spawn<fig5_f1>(1, std::int32_t{2}, flag.ref());
      }
    });
    if (world.rank() == 2) {
      EXPECT_EQ(flag[0], 1) << "finish must wait for the transitive spawn";
    }
    team_barrier(world);
  });
}

TEST(Finish, AllDetectorsProduceGlobalCompletion) {
  for (auto detector :
       {DetectorKind::kEpoch, DetectorKind::kSpeculative,
        DetectorKind::kFourCounter, DetectorKind::kCentralized}) {
    run(finish_options(4), [detector] {
      Team world = team_world();
      Coarray<long> counter(world, 1);
      counter[0] = 0;
      team_barrier(world);
      finish(
          world,
          [&] {
            spawn<chain>((this_image() + 1) % world.size(), std::int32_t{3},
                         counter.ref());
          },
          FinishOptions{detector});
      const long total = allreduce<long>(world, counter[0], RedOp::kSum);
      EXPECT_EQ(total, 4L * world.size())
          << "detector " << static_cast<int>(detector);
      team_barrier(world);
    });
  }
}

TEST(Finish, FourCounterNeedsAtLeastTwoWaves) {
  run(finish_options(4), [] {
    finish(team_world(), [] {}, FinishOptions{DetectorKind::kFourCounter});
    EXPECT_GE(last_finish_report().rounds, 2)
        << "four-counter always pays a confirming wave";
  });
}

TEST(Finish, ImplicitCopiesGloballyCompleteAtEnd) {
  run(finish_options(4), [] {
    Team world = team_world();
    Coarray<int> ring(world, 16);
    for (std::size_t i = 0; i < 16; ++i) {
      ring[i] = -1;
    }
    team_barrier(world);
    std::vector<int> payload(16, world.rank());
    finish(world, [&] {
      copy_async(ring((world.rank() + 1) % world.size()),
                 std::span<const int>(payload));
    });
    const int prev = (world.rank() + world.size() - 1) % world.size();
    EXPECT_EQ(ring[0], prev);
    team_barrier(world);
  });
}

TEST(Finish, ReportsDetectionTime) {
  run(finish_options(4, /*latency=*/10.0), [] {
    finish(team_world(), [] {});
    const FinishReport report = last_finish_report();
    EXPECT_GE(report.detect_us, 10.0);  // at least one allreduce of hops
    EXPECT_EQ(report.rounds, 1);
  });
}

TEST(Finish, PerDestinationCountsAreSparse) {
  // A scope keeps one send count per distinct destination, not a vector up
  // to the highest rank sent to (which would hold 64 entries here).
  run(finish_options(64), [] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    const int p = world.size();
    finish(world, [&] {
      spawn<bump>(p - 1, counter.ref());
      spawn<bump>((this_image() + 1) % p, counter.ref());
      rt::Image& image = rt::Image::current();
      const auto& sent_to =
          image.finish_state(image.current_finish()).sent_to();
      EXPECT_LE(sent_to.size(), 2u);
      std::int64_t sent = 0;
      sent_to.for_each([&sent](int, std::int64_t count) { sent += count; });
      EXPECT_EQ(sent, 2);
    });
    const long total = allreduce<long>(world, counter[0], RedOp::kSum);
    EXPECT_EQ(total, 2L * p);
    team_barrier(world);
  });
}

TEST(Finish, SendCountsKeepEveryDestinationApart) {
  // Ranks a multiple of 64 apart share their low bits; each must keep its own
  // count through every growth of the table.
  rt::SendCounts counts;
  std::map<int, std::int64_t> expected;
  for (int dest = 0; dest < 4096; dest += 64) {
    for (int n = 0; n <= dest / 64; ++n) {
      counts.add(dest);
      counts.add(1);
      expected[dest] += 1;
      expected[1] += 1;
    }
  }
  EXPECT_EQ(counts.size(), expected.size());
  std::map<int, std::int64_t> got;
  counts.for_each([&got](int dest, std::int64_t count) {
    EXPECT_TRUE(got.emplace(dest, count).second) << "dest " << dest;
  });
  EXPECT_EQ(got, expected);
}

TEST(Finish, NonMemberRejected) {
  run(finish_options(4), [] {
    Team world = team_world();
    Team evens = world.split(world.rank() % 2 == 0 ? 1 : -1, world.rank());
    if (!evens.valid()) {
      EXPECT_THROW(finish(Team{}, [] {}), UsageError);
    }
    team_barrier(world);
  });
}

}  // namespace
