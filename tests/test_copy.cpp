/// Tests for copy_async: all four transfer shapes (put, get, third-party,
/// local), the three optional events (preE / srcE / destE), implicit vs
/// explicit completion, and the staged-read hazard that cofence guards.

#include <gtest/gtest.h>

#include <vector>

#include "core/caf2.hpp"

namespace {

using namespace caf2;

RuntimeOptions copy_options(int images, double latency = 5.0) {
  RuntimeOptions options;
  options.num_images = images;
  options.net.latency_us = latency;
  options.net.bandwidth_bytes_per_us = 100.0;
  options.net.handler_cost_us = 0.1;
  options.max_events = 5'000'000;
  return options;
}

TEST(Copy, PutFromLocalBuffer) {
  run(copy_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 4);
    box.local()[0] = -1;
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> payload{10, 11, 12, 13};
      Event done;
      copy_async(box(1), std::span<const int>(payload),
                 {.dst_done = done.handle()});
      done.wait();
    }
    team_barrier(world);
    if (world.rank() == 1) {
      EXPECT_EQ(box[0], 10);
      EXPECT_EQ(box[3], 13);
    }
    team_barrier(world);
  });
}

TEST(Copy, GetIntoLocalBuffer) {
  run(copy_options(2), [] {
    Team world = team_world();
    Coarray<long> box(world, 4);
    for (std::size_t i = 0; i < 4; ++i) {
      box[i] = world.rank() * 100 + static_cast<long>(i);
    }
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<long> into(4, 0);
      Event done;
      copy_async(std::span<long>(into), box(1), {.dst_done = done.handle()});
      done.wait();
      EXPECT_EQ(into[0], 100);
      EXPECT_EQ(into[3], 103);
    }
    team_barrier(world);
  });
}

TEST(Copy, ThirdPartyTransfer) {
  // Image 0 initiates a copy from image 1's block to image 2's block.
  run(copy_options(3), [] {
    Team world = team_world();
    Coarray<int> box(world, 2);
    box[0] = world.rank() * 7;
    box[1] = world.rank() * 7 + 1;
    team_barrier(world);
    finish(world, [&] {
      if (world.rank() == 0) {
        copy_async(box(2), box(1));
      }
    });
    if (world.rank() == 2) {
      EXPECT_EQ(box[0], 7);
      EXPECT_EQ(box[1], 8);
    }
    team_barrier(world);
  });
}

TEST(Copy, ThirdPartySameImageEndpoints) {
  // Initiator 0, source and destination both on image 1 (remote local copy).
  run(copy_options(2), [] {
    Team world = team_world();
    Coarray<int> a(world, 2);
    Coarray<int> b(world, 2);
    a[0] = 55;
    a[1] = 56;
    b[0] = b[1] = 0;
    team_barrier(world);
    finish(world, [&] {
      if (world.rank() == 0) {
        copy_async(b(1), a(1));
      }
    });
    if (world.rank() == 1) {
      EXPECT_EQ(b[0], 55);
      EXPECT_EQ(b[1], 56);
    }
    team_barrier(world);
  });
}

TEST(Copy, LocalToLocalCopy) {
  run(copy_options(1), [] {
    Team world = team_world();
    Coarray<int> a(world, 3);
    Coarray<int> c(world, 3);
    a[0] = 1;
    a[1] = 2;
    a[2] = 3;
    finish(world, [&] { copy_async(c(0), a(0)); });
    EXPECT_EQ(c[0], 1);
    EXPECT_EQ(c[2], 3);
  });
}

TEST(Copy, SrcEventFiresBeforeDstEvent) {
  // srcE = source read complete (staging); destE = delivered. Staging
  // precedes delivery by the wire latency.
  run(copy_options(2, /*latency=*/50.0), [] {
    Team world = team_world();
    Coarray<int> box(world, 1);
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> payload{1};
      Event staged;
      Event delivered;
      copy_async(box(1), std::span<const int>(payload),
                 {.src_done = staged.handle(),
                  .dst_done = delivered.handle()});
      staged.wait();
      const double staged_at = now_us();
      delivered.wait();
      const double delivered_at = now_us();
      EXPECT_GE(delivered_at - staged_at, 50.0);
    }
    team_barrier(world);
  });
}

TEST(Copy, DstEventMayLiveOnAnyImage) {
  // destE owned by the destination image: it learns of the arrival without
  // any initiator involvement.
  run(copy_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 1);
    CoEvent arrived(world);
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> payload{5};
      Event staged;
      copy_async(box(1), std::span<const int>(payload),
                 {.src_done = staged.handle(), .dst_done = arrived(1)});
      staged.wait();  // keep payload alive until the network read it
    } else {
      arrived.local().wait();
      EXPECT_EQ(box[0], 5);
    }
    team_barrier(world);
  });
}

TEST(Copy, PredicatedOnLocalEvent) {
  run(copy_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 1);
    box[0] = 0;
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> payload{77};
      Event pre;
      Event delivered;
      copy_async(box(1), std::span<const int>(payload),
                 {.pre = pre.handle(), .dst_done = delivered.handle()});
      compute(20.0);  // the copy must not have started yet
      EXPECT_FALSE(delivered.test());
      pre.notify();  // fire the predicate
      delivered.wait();
    }
    team_barrier(world);
    if (world.rank() == 1) {
      EXPECT_EQ(box[0], 77);
    }
    team_barrier(world);
  });
}

TEST(Copy, PredicatedOnRemoteEvent) {
  // The predicate event lives on image 1; image 0's copy is armed remotely
  // and fires when image 1 posts it.
  run(copy_options(3), [] {
    Team world = team_world();
    Coarray<int> box(world, 1);
    CoEvent gate(world);
    box[0] = 0;
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> payload{88};
      Event delivered;
      copy_async(box(2), std::span<const int>(payload),
                 {.pre = gate(1), .dst_done = delivered.handle()});
      delivered.wait();
    } else if (world.rank() == 1) {
      compute(30.0);
      gate.local().notify();
    }
    team_barrier(world);
    if (world.rank() == 2) {
      EXPECT_EQ(box[0], 88);
    }
    team_barrier(world);
  });
}

TEST(Copy, PredicatedImplicitCopyHoldsFinishOpen) {
  // A predicated implicit copy initiated inside a finish must keep the
  // finish open until the predicate fires and the copy completes globally.
  run(copy_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 1);
    CoEvent gate(world);
    box[0] = 0;
    team_barrier(world);
    // Declared outside the finish block so the gated copy's source outlives
    // the lambda frame; finish guarantees global completion before it dies.
    // Plain local, not thread_local: images share one OS thread under the
    // fiber backend.
    const std::vector<int> payload{99};
    finish(world, [&] {
      if (world.rank() == 0) {
        copy_async(box(1), std::span<const int>(payload),
                   {.pre = gate(0)});
      }
      if (world.rank() == 1) {
        compute(40.0);
        notify_event(gate(0));  // unleash image 0's copy from image 1
      }
    });
    // finish passed => the copy is globally complete.
    if (world.rank() == 1) {
      EXPECT_EQ(box[0], 99);
    }
    team_barrier(world);
  });
}

TEST(Copy, OverwriteBeforeCofenceCorruptsOverwriteAfterDoesNot) {
  // The staged-read hazard: the network reads the source at injection time.
  run(copy_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 1);
    team_barrier(world);

    // Case 1: overwrite after cofence -> the destination sees the original.
    if (world.rank() == 0) {
      std::vector<int> payload{1};
      copy_async(box(1), std::span<const int>(payload));
      cofence();
      payload[0] = 2;  // safe: local data completion reached
    }
    team_barrier(world);
    compute(200.0);  // let delivery settle
    team_barrier(world);
    if (world.rank() == 1) {
      EXPECT_EQ(box[0], 1);
    }
    team_barrier(world);

    team_barrier(world);
  });
}

TEST(Copy, OverwriteBeforeStagingIsObservedAtDestination) {
  // Case 2 of the hazard: a 1600-byte payload takes 16 us to inject; the
  // producer overwrites it immediately (no cofence), so the staged read —
  // and therefore the destination — sees the *overwritten* values, exactly
  // like RDMA hardware reading a reused buffer.
  run(copy_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 400);
    std::vector<int> payload(400, 10);  // outlives the whole experiment
    team_barrier(world);
    if (world.rank() == 0) {
      copy_async(box(1), std::span<const int>(payload));
      payload.assign(400, 20);  // user error: no cofence first
    }
    team_barrier(world);
    compute(500.0);
    team_barrier(world);
    if (world.rank() == 1) {
      EXPECT_EQ(box[0], 20) << "staged read must observe the overwrite";
    }
    team_barrier(world);
  });
}

TEST(Copy, MismatchedExtentsRejected) {
  run(copy_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 4);
    std::vector<int> three(3);
    EXPECT_THROW(copy_async(box(1), std::span<const int>(three)), UsageError);
    team_barrier(world);
  });
}

TEST(Copy, ImplicitCopiesTrackedByCofence) {
  run(copy_options(2), [] {
    Team world = team_world();
    Coarray<int> box(world, 64);
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> payload(64, 3);
      EXPECT_EQ(outstanding_implicit_ops(), 0u);
      copy_async(box(1), std::span<const int>(payload));
      EXPECT_EQ(outstanding_implicit_ops(), 1u);
      cofence();
      // Local data completion only: the op stays outstanding until its ack
      // returns, which is still in flight here.
      Event done;
      copy_async(box(1), std::span<const int>(payload),
                 {.dst_done = done.handle()});
      EXPECT_EQ(outstanding_implicit_ops(), 1u);  // explicit not tracked
      done.wait();
    }
    team_barrier(world);
  });
}

}  // namespace
