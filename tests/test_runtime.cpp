/// Unit tests for the runtime core: teams (split semantics), events
/// (counting, acquire/release, remote notification, triggers), coarrays
/// (allocation, slicing, by-reference handles), and the handler table.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/caf2.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace caf2;

RuntimeOptions options_with(int images, double latency = 1.0) {
  RuntimeOptions options;
  options.num_images = images;
  options.net.latency_us = latency;
  options.net.bandwidth_bytes_per_us = 1000.0;
  options.net.handler_cost_us = 0.05;
  options.max_events = 5'000'000;
  return options;
}

/// --- teams -------------------------------------------------------------------

TEST(Team, WorldHasAllImagesInRankOrder) {
  run(options_with(5), [] {
    Team world = team_world();
    EXPECT_EQ(world.id(), 0);
    EXPECT_EQ(world.size(), 5);
    EXPECT_EQ(world.rank(), this_image());
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(world.world_rank(r), r);
      EXPECT_EQ(world.rank_of_world(r), r);
    }
  });
}

TEST(Team, SplitByParity) {
  run(options_with(6), [] {
    Team world = team_world();
    const int color = world.rank() % 2;
    Team sub = world.split(color, world.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.world_rank(sub.rank()), this_image());
    // Even images got one team id, odd another, consistently.
    for (int r = 0; r < sub.size(); ++r) {
      EXPECT_EQ(sub.world_rank(r) % 2, color);
    }
    team_barrier(sub);  // the new team communicates in isolation
  });
}

TEST(Team, MembersAreSharedNotCopiedPerImage) {
  constexpr int kImages = 64;
  std::vector<const int*> world_lists(kImages, nullptr);
  std::vector<const int*> split_lists(kImages, nullptr);
  run(options_with(kImages), [&] {
    Team world = team_world();
    Team sub = world.split(world.rank() % 2, world.rank());
    world_lists[static_cast<std::size_t>(this_image())] =
        world.members().data();
    split_lists[static_cast<std::size_t>(this_image())] =
        sub.members().data();
  });
  for (int r = 0; r < kImages; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(world_lists[i], world_lists[0]) << "image " << r;
    EXPECT_EQ(split_lists[i], split_lists[static_cast<std::size_t>(r % 2)])
        << "image " << r;
  }
  EXPECT_NE(split_lists[0], split_lists[1]);
}

TEST(Team, SplitKeyOrdersRanks) {
  run(options_with(4), [] {
    Team world = team_world();
    // Reverse the ranks via descending keys.
    Team reversed = world.split(0, world.size() - world.rank());
    EXPECT_EQ(reversed.rank(), world.size() - 1 - world.rank());
  });
}

TEST(Team, NegativeColorOptsOut) {
  run(options_with(4), [] {
    Team world = team_world();
    const bool in = world.rank() < 2;
    Team sub = world.split(in ? 7 : -1, world.rank());
    if (in) {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 2);
    } else {
      EXPECT_FALSE(sub.valid());
    }
  });
}

TEST(Team, NestedSplits) {
  run(options_with(8), [] {
    Team world = team_world();
    Team half = world.split(world.rank() / 4, world.rank());
    Team quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(half.size(), 4);
    EXPECT_EQ(quarter.size(), 2);
    EXPECT_TRUE(world.contains_team(half));
    EXPECT_TRUE(half.contains_team(quarter));
    EXPECT_FALSE(quarter.contains_team(half));
    EXPECT_TRUE(quarter.contains_team(quarter));
    team_barrier(quarter);
    team_barrier(half);
  });
}

TEST(Team, SplitsAreCollectiveButIndependentAcrossTeams) {
  run(options_with(4), [] {
    Team world = team_world();
    Team sub = world.split(world.rank() % 2, 0);
    // Each subteam splits again independently; ids must not collide.
    Team subsub = sub.split(0, sub.rank());
    EXPECT_EQ(subsub.size(), sub.size());
    EXPECT_NE(subsub.id(), sub.id());
    EXPECT_NE(subsub.id(), world.id());
  });
}

TEST(Team, InvalidTeamOperationsRejected) {
  Team invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_THROW(invalid.size(), UsageError);
  EXPECT_THROW(invalid.rank(), UsageError);
}

/// --- events -------------------------------------------------------------------

TEST(Events, CountingSemantics) {
  run(options_with(1), [] {
    Event event;
    EXPECT_FALSE(event.test());
    event.notify();
    event.notify();
    EXPECT_EQ(event.pending(), 2u);
    EXPECT_TRUE(event.test());
    event.wait();  // consumes the second
    EXPECT_EQ(event.pending(), 0u);
  });
}

TEST(Events, WaitManyConsumesExactly) {
  run(options_with(1), [] {
    Event event;
    for (int i = 0; i < 5; ++i) {
      event.notify();
    }
    event.wait_many(3);
    EXPECT_EQ(event.pending(), 2u);
  });
}

TEST(Events, RemoteNotifyThroughCoEvent) {
  run(options_with(3), [] {
    Team world = team_world();
    CoEvent flag(world);
    team_barrier(world);
    if (world.rank() == 0) {
      notify_event(flag(1));
      notify_event(flag(2));
    }
    if (world.rank() != 0) {
      flag.local().wait();  // blocks until image 0's notification arrives
    }
    team_barrier(world);
  });
}

TEST(Events, RemoteNotifyCostsLatency) {
  run(options_with(2, /*latency=*/10.0), [] {
    Team world = team_world();
    CoEvent flag(world);
    team_barrier(world);
    const double t0 = now_us();
    if (world.rank() == 0) {
      notify_event(flag(1));
    } else {
      flag.local().wait();
      EXPECT_GE(now_us() - t0, 10.0);
    }
    team_barrier(world);
  });
}

TEST(Events, NotifyHasReleaseSemanticsOverImplicitOps) {
  // An event_notify must wait for local *operation* completion of prior
  // implicit asynchronous operations (paper §III-B4a): after notify returns,
  // the prior copy has been delivered.
  run(options_with(2, /*latency=*/20.0), [] {
    Team world = team_world();
    Coarray<int> box(world, 1);
    CoEvent flag(world);
    box[0] = 0;
    team_barrier(world);
    if (world.rank() == 0) {
      std::vector<int> value{33};
      copy_async(box(1), std::span<const int>(value));  // implicit
      notify_event(flag(1));  // release: must not overtake the copy
    } else {
      flag.local().wait();
      EXPECT_EQ(box[0], 33);
    }
    team_barrier(world);
  });
}

TEST(Events, WhenPostedTriggerConsumesNotification) {
  run(options_with(1), [] {
    Event event;
    int fired = 0;
    event.when_posted([&] { ++fired; });
    EXPECT_EQ(fired, 0);
    event.notify();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(event.pending(), 0u);  // consumed by the trigger
    event.notify();
    EXPECT_EQ(event.pending(), 1u);  // no trigger armed now
  });
}

TEST(Events, WhenPostedFiresImmediatelyIfPending) {
  run(options_with(1), [] {
    Event event;
    event.notify();
    int fired = 0;
    event.when_posted([&] { ++fired; });
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(event.pending(), 0u);
  });
}

/// --- coarrays -------------------------------------------------------------------

TEST(Coarray, LocalBlockIsPrivateAndSized) {
  run(options_with(3), [] {
    Team world = team_world();
    Coarray<double> data(world, 10);
    EXPECT_EQ(data.count(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
      data[i] = world.rank() * 100.0 + static_cast<double>(i);
    }
    EXPECT_EQ(data.local()[9], world.rank() * 100.0 + 9);
    team_barrier(world);
  });
}

TEST(Coarray, SlicesAddressRemoteBlocks) {
  run(options_with(4), [] {
    Team world = team_world();
    Coarray<int> data(world, 8);
    RemoteSlice<int> whole = data(2);
    EXPECT_EQ(whole.image, 2);
    EXPECT_EQ(whole.count, 8u);
    RemoteSlice<int> sub = whole.subslice(3, 2);
    EXPECT_EQ(sub.offset, 3u);
    EXPECT_EQ(sub.count, 2u);
    EXPECT_EQ(sub.element(1).offset, 4u);
    EXPECT_THROW(whole.subslice(7, 5), UsageError);
    EXPECT_THROW(data.slice(1, 6, 4), UsageError);
    team_barrier(world);
  });
}

TEST(Coarray, IdsAgreeAcrossImagesUnderSpmdAllocation) {
  run(options_with(3), [] {
    Team world = team_world();
    Coarray<int> first(world, 4);
    Coarray<int> second(world, 4);
    // Cross-image agreement: write through the id-based slice of `second`
    // and observe it locally.
    std::vector<int> payload{1, 2, 3, 4};
    finish(world, [&] {
      copy_async(second((world.rank() + 1) % world.size()),
                 std::span<const int>(payload));
    });
    EXPECT_EQ(second[0], 1);
    EXPECT_EQ(first[0], first[0]);  // untouched block stays valid
    team_barrier(world);
  });
}

TEST(Coarray, SubteamAllocation) {
  run(options_with(4), [] {
    Team world = team_world();
    Team pair = world.split(world.rank() / 2, world.rank());
    Coarray<long> data(pair, 2);
    data[0] = this_image();
    data[1] = -1;
    team_barrier(pair);
    // Exchange within the pair.
    std::vector<long> mine{static_cast<long>(this_image()) * 10};
    finish(pair, [&] {
      copy_async(data.slice(1 - pair.rank(), 1, 1),
                 std::span<const long>(mine));
    });
    const int partner = pair.world_rank(1 - pair.rank());
    EXPECT_EQ(data[1], partner * 10);
    team_barrier(world);
  });
}

TEST(Coarray, TriviallyCopyableStructsSupported) {
  struct Particle {
    double x, y;
    int id;
  };
  run(options_with(2), [] {
    Team world = team_world();
    Coarray<Particle> swarm(world, 3);
    swarm[0] = {1.0, 2.0, this_image()};
    team_barrier(world);
    std::vector<Particle> out{{9.0, 8.0, 42}};
    finish(world, [&] {
      copy_async(swarm.slice((world.rank() + 1) % world.size(), 1, 1),
                 std::span<const Particle>(out));
    });
    EXPECT_EQ(swarm[1].id, 42);
    EXPECT_EQ(swarm[1].x, 9.0);
    team_barrier(world);
  });
}

/// --- handler table -------------------------------------------------------------

TEST(Runtime, HandlerIdsIndexAFixedTable) {
  rt::Runtime runtime(options_with(2));
  const rt::HandlerFn noop = [](rt::Image&, net::Message&&) {};
  EXPECT_THROW(runtime.set_handler(rt::kHandlerCount, noop), UsageError);
  EXPECT_THROW(runtime.handler(rt::kHandlerSpawn), FatalError)
      << "an id with no handler installed";
  runtime.set_handler(rt::kHandlerCount - 1, noop);
  EXPECT_TRUE(static_cast<bool>(runtime.handler(rt::kHandlerCount - 1)));
}

/// --- sends and finish charges ----------------------------------------------------

/// Image::send stamps a tracked message with its scope and the sender's
/// present parity and counts `sent` at once and `delivered` at the ack; an
/// untracked send touches no FinishState; charge_local/complete_local charge
/// a local operation as a message to the image itself.
TEST(Runtime, SendStampsAndChargesTheFinishScope) {
  constexpr double kLatency = 1.0;
  rt::Runtime runtime(options_with(2, kLatency));
  std::vector<net::MessageHeader> seen;  // written by image 1 only
  runtime.set_handler(rt::kHandlerSpawn,
                      [&seen](rt::Image&, net::Message&& message) {
                        seen.push_back(message.header);
                      });
  // Image 1's counters once it has handled every message.
  rt::EpochCounters even1;
  rt::EpochCounters odd1;
  std::size_t states1 = 0;
  bool present_odd1 = false;
  const net::FinishKey key{0, 0};
  runtime.run([&] {
    rt::Image& me = rt::Image::current();
    sim::Engine& engine = runtime.engine();
    if (me.rank() == 1) {
      me.wait_for([&] { return seen.size() == 3; }, "test: three messages");
      const rt::FinishState& state = me.finish_state(key);
      even1 = state.even();
      odd1 = state.odd();
      present_odd1 = state.present_odd();
      states1 = me.finish_states().size();
      return;
    }
    ASSERT_EQ(me.next_finish_seq(0), key.seq);
    me.push_finish(key);
    rt::FinishState& state = me.finish_state(key);

    // Tracked, even epoch: `sent` moves at once, `delivered` at the ack.
    const double t0 = engine.now();
    me.send(1, rt::kHandlerSpawn, {1}, me.current_finish());
    EXPECT_EQ(state.even().sent, 1u);
    EXPECT_EQ(state.even().delivered, 0u);
    EXPECT_EQ(state.sent_to().size(), 1u);
    me.wait_for([&] { return state.even().delivered == 1; }, "test: ack");
    EXPECT_GE(engine.now(), t0 + 2 * kLatency)
        << "delivered counted before the ack could return";

    // Untracked: no FinishState moves, none is created.
    const rt::EpochCounters even_before = state.even();
    bool acked = false;
    me.send(1, rt::kHandlerSpawn, {2}, {},
            net::SendCallbacks(net::kAcked, [&acked, &engine](net::SendPoint) {
              acked = true;
              engine.unblock(0);
            }));
    me.wait_for([&] { return acked; }, "test: untracked ack");
    EXPECT_EQ(me.finish_states().size(), 1u);
    EXPECT_EQ(state.even().sent, even_before.sent);
    EXPECT_EQ(state.even().delivered, even_before.delivered);
    EXPECT_EQ(state.odd().sent, 0u);

    // Tracked from the odd epoch: the message carries odd parity.
    state.enter_allreduce();
    me.send(1, rt::kHandlerSpawn, {3}, key);
    EXPECT_EQ(state.odd().sent, 1u);
    EXPECT_EQ(state.even().sent, 1u);
    me.wait_for([&] { return state.odd().delivered == 1; }, "test: odd ack");
    me.pop_finish();

    // A local charge balances all four counters once completed.
    EXPECT_FALSE(me.charge_local({}));
    const net::FinishKey local{0, me.next_finish_seq(0)};
    const bool odd = me.charge_local(local);
    EXPECT_FALSE(odd) << "a fresh scope starts in its even epoch";
    rt::FinishState& charged = me.finish_state(local);
    EXPECT_EQ(charged.even().sent, 1u);
    EXPECT_EQ(charged.even().delivered, 0u);
    EXPECT_FALSE(charged.even_quiesced());
    me.complete_local(local, odd);
    EXPECT_EQ(charged.even().delivered, 1u);
    EXPECT_EQ(charged.even().received, 1u);
    EXPECT_EQ(charged.even().completed, 1u);
    EXPECT_TRUE(charged.even_quiesced());
    EXPECT_EQ(charged.even_deficit(), 0);
  });

  ASSERT_EQ(seen.size(), 3u);
  for (const net::MessageHeader& header : seen) {
    EXPECT_EQ(header.source, 0);
    EXPECT_EQ(header.dest, 1);
    EXPECT_EQ(header.handler, rt::kHandlerSpawn);
  }
  EXPECT_TRUE(seen[0].tracked);
  EXPECT_EQ(seen[0].finish, key);
  EXPECT_FALSE(seen[0].from_odd_epoch);
  EXPECT_FALSE(seen[1].tracked);
  EXPECT_FALSE(seen[1].finish.valid());
  EXPECT_TRUE(seen[2].tracked);
  EXPECT_EQ(seen[2].finish, key);
  EXPECT_TRUE(seen[2].from_odd_epoch);
  // The receiver counted the two tracked messages, each in its own parity,
  // and the odd one moved it into its odd epoch.
  EXPECT_EQ(states1, 1u);
  EXPECT_EQ(even1.received, 1u);
  EXPECT_EQ(even1.completed, 1u);
  EXPECT_EQ(odd1.received, 1u);
  EXPECT_EQ(odd1.completed, 1u);
  EXPECT_EQ(even1.sent + odd1.sent, 0u);
  EXPECT_TRUE(present_odd1);
}

}  // namespace
