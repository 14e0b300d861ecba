/// Memory-model invariants (paper §III): processor consistency of a single
/// image's writes, acquire/release discipline of events, the ordering
/// guarantees of each synchronization construct relative to the completion
/// spectrum, and end-to-end determinism of full runtime executions.

#include <gtest/gtest.h>

#include <vector>

#include "core/caf2.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace caf2;

RuntimeOptions mm_options(int images, std::uint64_t seed = 42) {
  RuntimeOptions options;
  options.num_images = images;
  options.net.latency_us = 4.0;
  options.net.bandwidth_bytes_per_us = 400.0;
  options.net.handler_cost_us = 0.1;
  options.net.jitter_us = 2.0;  // aggressively non-FIFO
  options.seed = seed;
  options.max_events = 10'000'000;
  return options;
}

TEST(MemoryModel, NotifyWaitPairOrdersDataAcrossImages) {
  // Release/acquire: everything image 0 completed before notify must be
  // visible to image 1 after the matching wait — under jittered, reordered
  // delivery, across many rounds.
  run(mm_options(2), [] {
    Team world = team_world();
    Coarray<int> data(world, 32);
    CoEvent ready(world);
    CoEvent consumed(world);
    team_barrier(world);
    for (int round = 0; round < 20; ++round) {
      if (world.rank() == 0) {
        std::vector<int> payload(32, round * 7);
        copy_async(data(1), std::span<const int>(payload));  // implicit
        notify_event(ready(1));  // release: copy delivered before this
        consumed.local().wait();
      } else {
        ready.local().wait();  // acquire
        for (int i = 0; i < 32; ++i) {
          ASSERT_EQ(data[static_cast<std::size_t>(i)], round * 7)
              << "round " << round << " slot " << i;
        }
        notify_event(consumed(0));
      }
    }
    team_barrier(world);
  });
}

TEST(MemoryModel, SingleSourceWritesSeenInOrder) {
  // Processor consistency: two sequenced implicit puts from the same image
  // to the same destination word, separated by a cofence on the first, must
  // land in program order — the second value wins.
  run(mm_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 1);
    box[0] = 0;
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> first{1};
      std::vector<int> second{2};
      Event d1;
      Event d2;
      copy_async(box(1), std::span<const int>(first),
                 {.dst_done = d1.handle()});
      d1.wait();  // first delivered
      copy_async(box(1), std::span<const int>(second),
                 {.dst_done = d2.handle()});
      d2.wait();
    }
    team_barrier(world);
    if (world.rank() == 1) {
      EXPECT_EQ(box[0], 2);
    }
    team_barrier(world);
  });
}

TEST(MemoryModel, FinishIsAFullSynchronizationPoint) {
  // After end finish, every image observes every implicit write performed
  // by any image inside the block — even writes by third parties.
  run(mm_options(4), [] {
    Team world = team_world();
    Coarray<long> table(world, 4);
    for (std::size_t i = 0; i < 4; ++i) {
      table[i] = -1;
    }
    // Staging buffer declared outside the finish block so it outlives the
    // copies (finish guarantees global completion). Plain local, NOT
    // static/thread_local: images share one OS thread under the fiber
    // backend, so a shared buffer would be clobbered by other images.
    const std::vector<long> payload(1, world.rank() * 11L);
    team_barrier(world);
    finish(world, [&] {
      // Everyone writes slot `rank` of everyone else's block.
      for (int t = 0; t < world.size(); ++t) {
        copy_async(table.slice(t, static_cast<std::uint64_t>(world.rank()), 1),
                   std::span<const long>(payload));
      }
    });
    for (int r = 0; r < world.size(); ++r) {
      EXPECT_EQ(table[static_cast<std::size_t>(r)], r * 11);
    }
    team_barrier(world);
  });
}

TEST(MemoryModel, EventWaitDoesNotOrderPriorOps) {
  // event_wait has acquire semantics: operations before it are free to
  // complete after it. Concretely, a pending implicit put is still
  // outstanding when an unrelated wait is satisfied.
  run(mm_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 400);
    CoEvent ping(world);
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> payload(400, 3);  // 1600 B: slow staging
      copy_async(box(1), std::span<const int>(payload));
      ping.local().wait();  // acquire: does not flush the copy
      EXPECT_EQ(outstanding_implicit_ops(), 1u);
      cofence();  // local data completion (keeps payload alive for staging)
      // Flush to local *operation* completion before the coarray dies:
      // notify's release semantics wait for the delivery acknowledgement.
      Event flush;
      flush.notify();
    } else {
      notify_event(ping(0));
    }
    team_barrier(world);
  });
}

TEST(Determinism, IdenticalSeedsGiveIdenticalExecutions) {
  // Full-runtime determinism: two complete executions with the same seed
  // produce identical virtual end times and identical schedules.
  auto one_run = [](std::uint64_t seed, double* end_time,
                    std::uint64_t* digest) {
    RuntimeOptions options = mm_options(3, seed);
    double t = 0;
    *digest = run_stats(options, [&] {
      Team world = team_world();
      Coarray<long> counter(world, 1);
      counter[0] = 0;
      team_barrier(world);
      // Plain local (not thread_local): images share one OS thread under
      // the fiber backend; cofence() each round stages it before reuse.
      const std::vector<long> payload{1};
      finish(world, [&] {
        for (int round = 0; round < 5; ++round) {
          copy_async(counter((world.rank() + round) % world.size())
                         .subslice(0, 1),
                     std::span<const long>(payload));
          cofence();
        }
      });
      // Fingerprint a single image's clock: `t` is shared across images, so
      // an unguarded write would make the fingerprint "whichever image wrote
      // last" — real-time racy on a sharded engine.
      if (this_image() == 0) {
        t = now_us();
      }
      team_barrier(world);
    }).schedule_digest;
    *end_time = t;
  };
  double t1 = 0;
  double t2 = 0;
  double t3 = 0;
  std::uint64_t d1 = 0;
  std::uint64_t d2 = 0;
  std::uint64_t d3 = 0;
  one_run(7, &t1, &d1);
  one_run(7, &t2, &d2);
  one_run(8, &t3, &d3);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(d1, d2);
  // A different seed perturbs jitter draws; times should differ (not a hard
  // guarantee, but overwhelmingly likely with 2 us jitter), and with them
  // the schedule.
  EXPECT_NE(t1, t3);
  EXPECT_NE(d1, d3);
}

TEST(Determinism, UtsTotalsIndependentOfJitterSeed) {
  // Functional determinism under timing nondeterminism: the counted total
  // must not depend on message timing at all.
  std::uint64_t reference = 0;
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    RuntimeOptions options = mm_options(4, seed);
    std::uint64_t total = 0;
    run(options, [&] {
      Team world = team_world();
      Coarray<long> counter(world, 1);
      counter[0] = 0;
      team_barrier(world);
      // Outlives the finish block, which guarantees global completion.
      const std::vector<long> one{1};
      finish(world, [&] {
        copy_async(counter((world.rank() + 1) % world.size()).subslice(0, 1),
                   std::span<const long>(one));
      });
      const long sum = allreduce<long>(world, counter[0], RedOp::kSum);
      // Every image computes the same sum, but `total` is shared: on a
      // sharded engine unguarded writes from every image are a data race.
      if (this_image() == 0) {
        total = static_cast<std::uint64_t>(sum);
      }
    });
    if (reference == 0) {
      reference = total;
    }
    EXPECT_EQ(total, reference) << "seed " << seed;
    EXPECT_EQ(total, 4u);
  }
}

}  // namespace
