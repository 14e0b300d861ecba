/// Unit tests for the discrete-event simulation engine: virtual-time
/// semantics, deterministic scheduling, deadlock detection, exception
/// propagation, and the regression for early wake-ups during advance().

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "obs/postmortem.hpp"
#include "sim/engine.hpp"
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

}  // namespace
