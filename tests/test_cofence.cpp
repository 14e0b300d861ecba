/// Tests for cofence semantics: local data completion, the directional
/// DOWNWARD pass classes (READ / WRITE / ANY), operations that both read
/// and write, dynamic scoping, and the interaction with events' release
/// semantics (paper §III-B).

#include <gtest/gtest.h>

#include <vector>

#include "core/caf2.hpp"

namespace {

using namespace caf2;

RuntimeOptions cofence_options(int images) {
  RuntimeOptions options;
  options.num_images = images;
  options.net.latency_us = 20.0;  // long flight: staging << delivery
  options.net.bandwidth_bytes_per_us = 100.0;
  options.net.handler_cost_us = 0.1;
  options.max_events = 5'000'000;
  return options;
}

TEST(Cofence, WaitsForSourceStagingNotDelivery) {
  run(cofence_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 250);
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> payload(250, 4);  // 1000 bytes -> 10 us staging
      const double t0 = now_us();
      copy_async(box(1), std::span<const int>(payload));
      cofence();
      const double waited = now_us() - t0;
      EXPECT_GE(waited, 10.0);  // staged
      EXPECT_LT(waited, 25.0);  // but did not wait the 20 us flight
    }
    team_barrier(world);
  });
}

TEST(Cofence, NoOutstandingOpsReturnsImmediately) {
  run(cofence_options(1), [] {
    const double t0 = now_us();
    cofence();
    cofence(Pass::kAny, Pass::kAny);
    EXPECT_EQ(now_us(), t0);
  });
}

TEST(Cofence, DownwardReadLetsPutsPass) {
  // A put reads local data; cofence(DOWNWARD=READ) lets it complete later,
  // so the fence does not wait for its staging.
  run(cofence_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 250);
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> payload(250, 4);
      const double t0 = now_us();
      copy_async(box(1), std::span<const int>(payload));
      cofence(Pass::kRead, Pass::kNone);  // puts may pass downward
      EXPECT_EQ(now_us(), t0);
      cofence();  // strict fence still waits
      EXPECT_GE(now_us() - t0, 10.0);
    }
    team_barrier(world);
  });
}

TEST(Cofence, DownwardWriteLetsGetsPass) {
  // A get writes local data; cofence(DOWNWARD=WRITE) lets it pass, while a
  // strict cofence waits for the full round trip (data must be readable).
  run(cofence_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 250);
    for (std::size_t i = 0; i < 250; ++i) {
      box[i] = world.rank() * 1000 + static_cast<int>(i);
    }
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> into(250, 0);
      const double t0 = now_us();
      copy_async(std::span<int>(into), box(1));
      cofence(Pass::kWrite, Pass::kNone);  // the get may pass downward
      EXPECT_EQ(now_us(), t0);
      cofence();  // strict: data is now readable
      EXPECT_GE(now_us() - t0, 20.0);
      EXPECT_EQ(into[0], 1000);
    }
    team_barrier(world);
  });
}

TEST(Cofence, DownwardAnyPassesEverything) {
  run(cofence_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 250);
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> out(250, 1);
      std::vector<int> in(250, 0);
      const double t0 = now_us();
      copy_async(box(1), std::span<const int>(out));
      copy_async(std::span<int>(in), box(1));
      cofence(Pass::kAny, Pass::kNone);
      EXPECT_EQ(now_us(), t0);  // nothing fenced
      cofence();  // strict: stage both ops before out/in leave scope
    }
    team_barrier(world);
  });
}

TEST(Cofence, MixedReadWriteOpHeldUnlessBothClassesPass) {
  // An allreduce both reads and writes its local buffer: letting only reads
  // (or only writes) pass has no practical effect (paper §III-B).
  run(cofence_options(4), [] {
    Team world = team_world();
    std::vector<long> value{world.rank() + 1L};
    allreduce_async<long>(world, std::span<long>(value), RedOp::kSum);
    cofence(Pass::kRead, Pass::kNone);  // op also writes -> still fenced
    EXPECT_EQ(value[0], 10);            // 1+2+3+4
    team_barrier(world);
  });
}

TEST(Cofence, SequentialFencesDrainProgressively) {
  run(cofence_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 250);
    team_barrier(world);
    if (world.rank() == 0) {
      for (int round = 0; round < 5; ++round) {
        std::vector<int> payload(250, round);
        copy_async(box(1), std::span<const int>(payload));
        cofence();
        // payload destroyed here; safe because staging completed.
      }
      // Data-complete ops stay outstanding until their acks return.
      EXPECT_LE(outstanding_implicit_ops(), 5u);
      EXPECT_GE(outstanding_implicit_ops(), 1u);
    }
    team_barrier(world);
    compute(200.0);  // all acks land
    team_barrier(world);
    if (world.rank() == 0) {
      cofence();
      EXPECT_EQ(outstanding_implicit_ops(), 0u);  // every ack has landed
    }
    if (world.rank() == 1) {
      EXPECT_EQ(box[0], 4);
    }
    team_barrier(world);
  });
}

TEST(Cofence, UpwardArgumentAcceptedAndInert) {
  // UPWARD constrains compiler reordering in the Fortran setting; a library
  // executes statements in order, so it must be accepted and change nothing.
  run(cofence_options(1), [] {
    cofence(Pass::kNone, Pass::kRead);
    cofence(Pass::kNone, Pass::kWrite);
    cofence(Pass::kNone, Pass::kAny);
  });
}

void sink_fn(std::vector<int> data) { (void)data; }

TEST(Cofence, SpawnArgumentsFencedLikeReads) {
  // Paper Fig. 4 spawn row: local data completion = arguments evaluated and
  // shipped; a cofence after a spawn waits for the argument injection only.
  run(cofence_options(2), [] {
    Team world = team_world();
    team_barrier(world);
    if (world.rank() == 0) {
      const double t0 = now_us();
      spawn<sink_fn>(1, std::vector<int>(800, 7));  // 3200 B -> 32 us
      cofence();
      const double waited = now_us() - t0;
      EXPECT_GE(waited, 30.0);
      EXPECT_LT(waited, 50.0);  // did not wait for delivery + execution
    }
    team_barrier(world);
  });
}

TEST(Cofence, ShippedFunctionRunDuringTheFenceLeavesItsScopeIntact) {
  // A shipped function that runs while this image waits in cofence pushes
  // and pops a scope; the fence must go on testing the scope it began in.
  run(cofence_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 1000);
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> payload(1000, 4);  // 4000 B -> 40 us staging
      const double t0 = now_us();
      copy_async(box(1), std::span<const int>(payload));
      cofence();  // the spawn below lands (20 us flight) while this waits
      EXPECT_GE(now_us() - t0, 40.0);
    } else {
      spawn<sink_fn>(0, std::vector<int>(4, 1));
    }
    team_barrier(world);
  });
}

TEST(Cofence, EventNotifyWaitsForOperationCompletion) {
  // Release semantics are *stronger* than cofence: notify waits for local
  // operation completion (delivery acks), not just staging.
  run(cofence_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 250);
    CoEvent flag(world);
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> payload(250, 6);
      const double t0 = now_us();
      copy_async(box(1), std::span<const int>(payload));
      notify_event(flag(1));
      // staging (10) + flight (20) + ack (20) before the notify leaves.
      EXPECT_GE(now_us() - t0, 50.0);
    } else {
      flag.local().wait();
      EXPECT_EQ(box[0], 6);
    }
    team_barrier(world);
  });
}

void count_call(Coref<long> counter) { counter.local()[0] += 1; }

constexpr long kSpawns = 32;

TEST(Cofence, UnfencedSpawnsLeaveNothingOutstandingAfterFinish) {
  // RandomAccess-style function shipping: implicit spawns that no cofence or
  // notify ever looks at. Finish proves every one delivered, so none may
  // still count as outstanding afterwards.
  run(cofence_options(4), [] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      for (long i = 0; i < kSpawns; ++i) {
        spawn<count_call>((world.rank() + 1) % world.size(), counter.ref());
      }
    });
    EXPECT_EQ(outstanding_implicit_ops(), 0u);
    EXPECT_EQ(counter[0], kSpawns);
    team_barrier(world);
  });
}

constexpr int kShipInts = 1000;  // 4000 B -> 40 us staging
double g_unfenced_started_us = -1.0;
bool g_second_ok = false;

/// Starts an implicit copy out of its image's own block and returns without
/// fencing; the block outlives the copy.
void ship_unfenced_copy(Coref<int> block) {
  const int here = this_image();
  copy_async(RemoteSlice<int>{block.coarray_id, (here + 1) % num_images(), 0,
                              kShipInts},
             RemoteSlice<int>{block.coarray_id, here, 0, kShipInts});
  g_unfenced_started_us = now_us();
}

/// Runs at the depth the previous shipped function ran at, while that
/// function's copy is still staging: its scope starts empty, and completions
/// of the earlier copy must neither hold nor release its fences.
void ship_fenced_copy(Coref<int> block) {
  EXPECT_LT(now_us() - g_unfenced_started_us, 10.0);  // earlier copy staging
  EXPECT_EQ(outstanding_implicit_ops(), 0u);
  const double t0 = now_us();
  cofence();
  EXPECT_EQ(now_us(), t0);  // did not wait for the earlier copy
  const int here = this_image();
  copy_async(RemoteSlice<int>{block.coarray_id, (here + 1) % num_images(),
                              kShipInts, kShipInts},
             RemoteSlice<int>{block.coarray_id, here, kShipInts, kShipInts});
  EXPECT_EQ(outstanding_implicit_ops(), 1u);
  cofence();  // own copy staged (after the earlier one, on the same link)
  EXPECT_GE(now_us() - t0, 40.0);
  Event flush;
  flush.notify();  // own copy acknowledged
  EXPECT_EQ(outstanding_implicit_ops(), 0u);
  g_second_ok = true;
}

TEST(Cofence, LaterShippedFunctionAtSameDepthStartsEmpty) {
  g_second_ok = false;
  run(cofence_options(3), [] {
    Team world = team_world();
    Coarray<int> block(world, 2 * kShipInts);
    team_barrier(world);
    finish(world, [&] {
      if (world.rank() == 0) {
        spawn<ship_unfenced_copy>(1, block.ref());
        spawn<ship_fenced_copy>(1, block.ref());
      }
    });
    team_barrier(world);
  });
  EXPECT_TRUE(g_second_ok);
}

}  // namespace
