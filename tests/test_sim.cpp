/// Unit tests for the discrete-event simulation engine: virtual-time
/// semantics, deterministic scheduling, the two-tier event queue's order,
/// direct participant-to-participant hand-offs, deadlock detection,
/// exception propagation, and the regression for early wake-ups during
/// advance().

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "obs/postmortem.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/participant.hpp"

namespace {

using namespace caf2::sim;

TEST(Engine, AdvanceMovesVirtualTime) {
  Engine engine(1);
  double end_time = -1;
  engine.run([&](int) {
    Engine& e = this_engine();
    EXPECT_EQ(e.now(), 0.0);
    e.advance(2.5);
    EXPECT_EQ(e.now(), 2.5);
    e.advance(0.5);
    end_time = e.now();
  });
  EXPECT_EQ(end_time, 3.0);
}

TEST(Engine, EventsInterleaveByTime) {
  // Participant 0 advances in steps of 3, participant 1 in steps of 2; the
  // global order of resume times must be merged by virtual time.
  std::vector<std::pair<int, double>> resumes;
  Engine engine(2);
  engine.run([&](int id) {
    Engine& e = this_engine();
    for (int i = 0; i < 3; ++i) {
      e.advance(id == 0 ? 3.0 : 2.0);
      resumes.emplace_back(id, e.now());
    }
  });
  // The t=6 tie breaks by insertion order: p0 scheduled its wake at t=3,
  // before p1 scheduled its own at t=4.
  const std::vector<std::pair<int, double>> expect{
      {1, 2.0}, {0, 3.0}, {1, 4.0}, {0, 6.0}, {1, 6.0}, {0, 9.0}};
  EXPECT_EQ(resumes, expect);
}

TEST(Engine, EqualTimesDispatchFifo) {
  std::vector<int> order;
  Engine engine(3);
  engine.run([&](int id) {
    Engine& e = this_engine();
    e.advance(1.0);  // all three schedule wakes for t=1
    order.push_back(id);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, PostRunsCallbacksAtTheirTime) {
  std::vector<double> call_times;
  Engine engine(1);
  engine.run([&](int) {
    Engine& e = this_engine();
    e.post(5.0, [&] { call_times.push_back(e.now()); });
    e.post(2.0, [&] { call_times.push_back(e.now()); });
    e.advance(10.0);
  });
  EXPECT_EQ(call_times, (std::vector<double>{2.0, 5.0}));
}

TEST(Engine, PostInThePastClampsToNow) {
  Engine engine(1);
  double ran_at = -1;
  engine.run([&](int) {
    Engine& e = this_engine();
    e.advance(4.0);
    e.post(1.0, [&] { ran_at = e.now(); });  // "1.0" is in the past
    e.advance(1.0);
  });
  EXPECT_EQ(ran_at, 4.0);
}

TEST(Engine, BlockAndUnblockHandOff) {
  Engine engine(2);
  double woke_at = -1;
  engine.run([&](int id) {
    Engine& e = this_engine();
    if (id == 0) {
      e.block();
      woke_at = e.now();
    } else {
      e.advance(7.0);
      e.unblock(0);
    }
  });
  EXPECT_EQ(woke_at, 7.0);
}

TEST(Engine, AdvanceIgnoresStrayWakes) {
  // Regression: a spurious unblock must not end a modeled computation early.
  Engine engine(2);
  double resumed_at = -1;
  engine.run([&](int id) {
    Engine& e = this_engine();
    if (id == 0) {
      e.advance(0.5);  // let participant 1 set up
      e.advance(100.0);
      resumed_at = e.now();
    } else {
      for (int i = 0; i < 5; ++i) {
        e.advance(3.0);
        e.unblock(0);  // stray wakes aimed at the computing participant
      }
    }
  });
  EXPECT_EQ(resumed_at, 100.5);
}

TEST(Engine, DeterministicTraces) {
  auto body = [](int id) {
    Engine& e = this_engine();
    for (int i = 0; i < 20; ++i) {
      e.advance(0.1 * (id + 1));
      if (i % 3 == 0) {
        e.post_in(0.05, [] {});
      }
    }
  };
  EngineOptions options;
  options.record_trace = true;
  Engine a(4, options);
  Engine b(4, options);
  a.run(body);
  b.run(body);
  EXPECT_EQ(render_trace(a.trace()), render_trace(b.trace()));
  EXPECT_GT(a.trace().size(), 80u);
}

TEST(Engine, DeadlockDetectedWithDiagnostic) {
  Engine engine(3);
  try {
    engine.run([](int id) {
      if (id != 0) {
        this_engine().block();
      }
    });
    FAIL() << "expected FatalError";
  } catch (const caf2::FatalError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("p1"), std::string::npos);
    EXPECT_NE(what.find("p2"), std::string::npos);
  }
}

TEST(Engine, ParticipantExceptionPropagates) {
  Engine engine(3);
  EXPECT_THROW(engine.run([](int id) {
                 this_engine().advance(1.0);
                 if (id == 1) {
                   throw std::runtime_error("boom");
                 }
                 // The others park; the engine must unwind them.
                 this_engine().block();
               }),
               std::runtime_error);
}

TEST(Engine, EventBudgetGuardsRunaways) {
  EngineOptions options;
  options.max_events = 50;
  Engine engine(1, options);
  try {
    engine.run([](int) {
      Engine& e = this_engine();
      for (;;) {
        e.advance(1.0);
      }
    });
    FAIL() << "the event budget must abort the run";
  } catch (const caf2::obs::StallError& error) {
    // The budget is checked at the window barrier, yet stops the run at
    // exactly the budgeted dispatch.
    ASSERT_NE(error.postmortem(), nullptr);
    EXPECT_EQ(error.postmortem()->kind, caf2::obs::FailKind::kEventBudget);
    EXPECT_EQ(error.postmortem()->events, 50u);
  }
}

/// Where a sharded runaway stops, as the postmortem reports it.
struct BudgetStop {
  std::uint64_t events = 0;
  double now_us = 0.0;
  std::vector<std::string> states;
};

BudgetStop sharded_runaway(std::uint64_t budget) {
  EngineOptions options;
  options.shards = 2;
  options.lookahead_us = 1.0;
  options.max_events = budget;
  Engine engine(64, options);
  try {
    engine.run([](int id) {
      Engine& e = this_engine();
      for (;;) {
        e.advance(0.5 + 0.1 * (id % 5));
        if (id % 2 == 0) {
          // Wake the odd partner (same shard) and send the other shard a
          // call one lookahead out.
          e.unblock(id + 1);
          e.post_for((id + 32) % 64, e.now() + 1.0, [] {});
        } else {
          e.block("waiting for partner");
        }
      }
    });
  } catch (const caf2::obs::StallError& error) {
    BudgetStop stop;
    if (error.postmortem() == nullptr) {
      ADD_FAILURE() << "budget failure carried no postmortem";
      return stop;
    }
    EXPECT_EQ(error.postmortem()->kind, caf2::obs::FailKind::kEventBudget);
    stop.events = error.postmortem()->events;
    stop.now_us = error.postmortem()->now_us;
    for (const auto& image : error.postmortem()->per_image) {
      stop.states.push_back(image.state);
    }
    return stop;
  }
  ADD_FAILURE() << "the event budget must abort the run";
  return {};
}

TEST(Engine, ShardedEventBudgetStopsAtTheSamePointEveryRun) {
  // The budget is split across shards at each barrier, so a two-shard
  // runaway stops at most one event past it, at a point that does not
  // depend on how the shard threads interleave.
  constexpr std::uint64_t kBudget = 200'000;
  const BudgetStop first = sharded_runaway(kBudget);
  EXPECT_GE(first.events, kBudget);
  EXPECT_LE(first.events, kBudget + 1);
  for (int repeat = 1; repeat < 5; ++repeat) {
    const BudgetStop again = sharded_runaway(kBudget);
    EXPECT_EQ(again.events, first.events) << "repeat " << repeat;
    EXPECT_EQ(again.now_us, first.now_us) << "repeat " << repeat;
    EXPECT_EQ(again.states, first.states) << "repeat " << repeat;
  }
}

TEST(Engine, RunTwiceRejected) {
  Engine engine(1);
  engine.run([](int) {});
  EXPECT_THROW(engine.run([](int) {}), caf2::UsageError);
}

TEST(Engine, CallbacksMayScheduleMoreCallbacks) {
  Engine engine(1);
  int depth_reached = 0;
  engine.run([&](int) {
    Engine& e = this_engine();
    std::function<void(int)> chain = [&](int depth) {
      depth_reached = depth;
      if (depth < 10) {
        e.post_in(1.0, [&, depth] { chain(depth + 1); });
      }
    };
    e.post_in(1.0, [&] { chain(1); });
    e.advance(30.0);
  });
  EXPECT_EQ(depth_reached, 10);
}

TEST(Engine, BlockOutsideParticipantRejected) {
  Engine engine(1);
  EXPECT_THROW(engine.block(), caf2::UsageError);
  EXPECT_THROW(engine.advance(1.0), caf2::UsageError);
  engine.run([](int) {});
}

TEST(Engine, CurrentContextHelpers) {
  EXPECT_FALSE(on_participant_thread());
  Engine engine(2);
  engine.run([&](int id) {
    EXPECT_TRUE(on_participant_thread());
    EXPECT_EQ(this_participant(), id);
    EXPECT_EQ(&this_engine(), &engine);
  });
}

TEST(Engine, NegativeAdvanceRejected) {
  Engine engine(1);
  EXPECT_THROW(engine.run([](int) { this_engine().advance(-1.0); }),
               caf2::UsageError);
}

/// --- two-tier event queue ---------------------------------------------------

TEST(EventQueue, PopOrderMatchesAReferenceHeap) {
  // Interleave current-time events (FIFO tier, increasing keys, so
  // insertion order is key order), events at any time with arbitrary keys
  // (heap tier, as events from other posters carry), and pops, and check
  // every pop against one reference heap under the queue's head rule: `at`,
  // then heap before FIFO, then `seq`. Times are multiples of 0.5 so
  // equal-time ties are frequent, and heap events may land at the current
  // time to exercise the heap-first tie.
  struct Ref {
    QueuedEvent event;
    bool fifo = false;
  };
  struct RefOrder {  // "a pops after b"
    bool operator()(const Ref& a, const Ref& b) const {
      if (a.event.at != b.event.at) {
        return a.event.at > b.event.at;
      }
      if (a.fifo != b.fifo) {
        return a.fifo;
      }
      return a.event.seq > b.event.seq;
    }
  };
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    std::mt19937_64 rng(seed);
    EventQueue queue;
    std::priority_queue<Ref, std::vector<Ref>, RefOrder> reference;
    double now = 0.0;
    std::uint64_t next_seq = 0;
    std::int32_t next_id = 0;
    std::uint64_t pops = 0;
    const auto check_pop = [&] {
      ASSERT_EQ(queue.size(), reference.size());
      ASSERT_FALSE(queue.empty());
      const QueuedEvent expect = reference.top().event;
      reference.pop();
      ASSERT_EQ(queue.top().participant, expect.participant);
      const QueuedEvent got = queue.pop();
      ASSERT_EQ(got.participant, expect.participant)
          << "seed " << seed << " pop " << pops;
      ASSERT_EQ(got.seq, expect.seq);
      ASSERT_EQ(got.at, expect.at);
      now = got.at;  // the dispatch clock
      ++pops;
    };
    for (int op = 0; op < 120'000; ++op) {
      const unsigned kind = static_cast<unsigned>(rng() % 10);
      if (kind < 3) {
        const QueuedEvent event{now, next_seq++, next_id++};
        queue.push_now(event);
        reference.push(Ref{event, true});
      } else if (kind < 6) {
        const QueuedEvent event{now + 0.5 * static_cast<double>(rng() % 4),
                                rng(), next_id++};
        queue.push(event);
        reference.push(Ref{event, false});
      } else if (!reference.empty()) {
        check_pop();
        if (HasFatalFailure()) {
          return;
        }
      }
    }
    while (!reference.empty()) {
      check_pop();
      if (HasFatalFailure()) {
        return;
      }
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_GT(pops, 40'000u);
  }
}

/// --- direct hand-off --------------------------------------------------------

void* tag_of(int id) {
  return reinterpret_cast<void*>(static_cast<std::uintptr_t>(0x1000 + id));
}

TEST(Engine, ContextFollowsParticipantsAcrossDirectHandOffs) {
  // A token ring: each participant takes its turn, wakes the next and
  // blocks, so the token moves participant-to-participant without visiting
  // the scheduler loop. Every participant must keep seeing its own id and
  // slots.
  constexpr int kParticipants = 6;
  constexpr int kRounds = 20;
  Engine engine(kParticipants);
  int turn = 0;
  engine.run([&](int id) {
    Engine& e = this_engine();
    Engine::context_slot(0) = tag_of(id);
    Engine::context_slot(1) = tag_of(100 + id);
    for (int round = 0; round < kRounds; ++round) {
      while (turn % kParticipants != id) {
        e.block("waiting for my turn");
      }
      ASSERT_EQ(Engine::current_id(), id);
      ASSERT_EQ(Engine::context_slot(0), tag_of(id));
      ASSERT_EQ(Engine::context_slot(1), tag_of(100 + id));
      ++turn;
      e.unblock((id + 1) % kParticipants);
    }
  });
  EXPECT_EQ(turn, kParticipants * kRounds);
  EXPECT_GE(engine.context_switch_count(),
            static_cast<std::uint64_t>(kParticipants * kRounds));
}

TEST(Engine, CallbacksSeeNoParticipantWhenAParticipantDispatches) {
  // Participants dispatch the events that follow their own hand-off, so
  // callbacks mostly run on a participant's stack — but never as that
  // participant.
  Engine engine(2);
  std::vector<int> ids;
  std::vector<void*> slots;
  int on_participant_stack = 0;
  engine.run([&](int id) {
    Engine& e = this_engine();
    Engine::context_slot(0) = tag_of(id);
    for (int i = 0; i < 5; ++i) {
      e.post_in(0.5, [&] {
        ids.push_back(Engine::current_id());
        slots.push_back(Engine::context_slot(0));
        on_participant_stack += Fiber::current() != nullptr ? 1 : 0;
      });
      e.advance(1.0);
      EXPECT_EQ(Engine::current_id(), id);
      EXPECT_EQ(Engine::context_slot(0), tag_of(id));
    }
  });
  ASSERT_EQ(ids.size(), 10u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], -1) << "callback " << i;
    EXPECT_EQ(slots[i], nullptr) << "callback " << i;
  }
  EXPECT_GT(on_participant_stack, 0);
}

TEST(Engine, CallbackThatBlocksIsRejectedOnAParticipantStack) {
  // The callback is dispatched from the participant's own advance(); its
  // block() must still be refused as outside any participant context.
  Engine engine(1);
  bool dispatched_on_fiber = false;
  try {
    engine.run([&](int) {
      Engine& e = this_engine();
      e.post_in(1.0, [&] {
        dispatched_on_fiber = Fiber::current() != nullptr;
        e.block("callbacks must not block");
      });
      e.advance(5.0);
    });
    FAIL() << "run() must fail";
  } catch (const caf2::FatalError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("engine callback"), std::string::npos) << what;
    EXPECT_NE(what.find("block() must be called from a participant context"),
              std::string::npos)
        << what;
  }
  EXPECT_TRUE(dispatched_on_fiber);
}

TEST(Engine, CallbackThrowingOnAParticipantStackIsTagged) {
  EngineOptions options;
  options.label = "stackcb";
  Engine engine(1, options);
  bool dispatched_on_fiber = false;
  try {
    engine.run([&](int) {
      Engine& e = this_engine();
      e.post_in(1.0, [&] {
        dispatched_on_fiber = Fiber::current() != nullptr;
        throw std::runtime_error("callback boom");
      });
      e.advance(5.0);
    });
    FAIL() << "run() must rethrow the callback's failure";
  } catch (const caf2::FatalError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("stackcb"), std::string::npos) << what;
    EXPECT_NE(what.find("engine callback (dispatched from the scheduler) "
                        "raised: callback boom"),
              std::string::npos)
        << what;
  }
  EXPECT_TRUE(dispatched_on_fiber);
}

TEST(Engine, ThrowWhilePeersAreParkedMidHandOffUnwindsThemAll) {
  // Participants 0-2 block one after another, each switching straight to the
  // next, so all three are parked inside a direct hand-off when participant
  // 3 throws. The unwind pass must resume and unwind every one of them.
  constexpr int kParticipants = 4;
  for (const int shards : {1, 2}) {
    EngineOptions options;
    options.shards = shards;
    options.lookahead_us = 0.5;
    Engine engine(kParticipants, options);
    bool cleaned[kParticipants] = {false, false, false, false};
    try {
      engine.run([&](int id) {
        struct Cleanup {
          bool* flag;
          ~Cleanup() { *flag = true; }
        } cleanup{&cleaned[id]};
        Engine& e = this_engine();
        e.advance(1.0);
        if (id == kParticipants - 1) {
          throw std::runtime_error("last participant exploded");
        }
        e.block("parked until the run fails");
      });
      FAIL() << "run() must rethrow the body's failure";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("exploded"), std::string::npos)
          << error.what();
    }
    for (int id = 0; id < kParticipants; ++id) {
      EXPECT_TRUE(cleaned[id])
          << "participant " << id << " never unwound (shards " << shards
          << ")";
    }
  }
}

}  // namespace
