/// Tests for the stackful-fiber primitive and the engine's fiber execution
/// (DESIGN.md §4.8): per-participant context slots across fiber switches,
/// paper-scale participant counts, the stack pool's warm recycled stacks,
/// guard-page protection against stack overflow, and the failure path for
/// exceptions thrown by engine callbacks.

#include <gtest/gtest.h>

#include <alloca.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/caf2.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/participant.hpp"
#include "support/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define CAF2_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CAF2_TEST_ASAN 1
#endif
#endif
#if defined(CAF2_TEST_ASAN)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#define CAF2_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CAF2_TEST_TSAN 1
#endif
#endif

namespace {

using namespace caf2::sim;

/// --- the fiber primitive ----------------------------------------------------

TEST(Fiber, PingPongTransfersControl) {
  std::vector<int> order;
  Fiber fiber(64 * 1024, [&] {
    order.push_back(1);
    Fiber::suspend();
    order.push_back(3);
    Fiber::suspend();
    order.push_back(5);
  });
  EXPECT_FALSE(fiber.started());
  EXPECT_EQ(Fiber::current(), nullptr);
  fiber.resume();
  order.push_back(2);
  fiber.resume();
  order.push_back(4);
  EXPECT_FALSE(fiber.finished());
  fiber.resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, CurrentIsSetInsideTheFiber) {
  Fiber* seen = nullptr;
  Fiber fiber(64 * 1024, [&] { seen = Fiber::current(); });
  fiber.resume();
  EXPECT_EQ(seen, &fiber);
  EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, ManySequentialFibersRecycleStacks) {
  // Hundreds of short-lived fibers must be cheap: the pool recycles the
  // mapping instead of hitting mmap/munmap each time.
  long total = 0;
  for (int i = 0; i < 256; ++i) {
    Fiber fiber(64 * 1024, [&total, i] { total += i; });
    fiber.resume();
    ASSERT_TRUE(fiber.finished());
  }
  EXPECT_EQ(total, 255L * 256L / 2L);
  Fiber::trim_stack_pool();
}

/// --- recycled stacks --------------------------------------------------------

long thread_minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

/// A released stack keeps its top page resident, so a fiber built on a
/// recycled stack writes its initial frame without a page fault (paper-scale
/// engines build thousands of fibers per run).
TEST(Fiber, RecycledStackStartsWithoutAPageFault) {
#if defined(CAF2_TEST_TSAN)
  GTEST_SKIP() << "every fiber's TSan context is a fresh allocation that "
                  "faults in pages of its own";
#endif
#if defined(CAF2_TEST_ASAN)
  if (__asan_get_current_fake_stack() != nullptr) {
    GTEST_SKIP() << "ASan's fake stacks (detect_stack_use_after_return) "
                    "fault in pages of their own";
  }
#endif
  constexpr int kFibers = 256;
  constexpr std::size_t kStackBytes = 96 * 1024;  // no other test uses it
  // Preallocated slots: the measured round allocates nothing on the heap.
  std::vector<std::optional<Fiber>> fibers(kFibers);
  const auto build_all = [&] {
    for (std::optional<Fiber>& fiber : fibers) {
      fiber.emplace(kStackBytes, [] {});
    }
  };
  const auto release_all = [&] {
    for (std::optional<Fiber>& fiber : fibers) {
      fiber.reset();
    }
  };
  build_all();  // warm-up: maps the stacks the measured round recycles
  release_all();
  const long before = thread_minor_faults();
  build_all();
  const long faults = thread_minor_faults() - before;
  release_all();
  EXPECT_LE(faults, kFibers / 16)
      << "building " << kFibers << " fibers on recycled stacks took "
      << faults << " minor page faults";
  Fiber::trim_stack_pool();
}

/// Released stacks are cached, but only their warm top page stays resident:
/// the pages a fiber touched below it are dropped, which bounds what the
/// pool holds to one page per cached stack.
TEST(Fiber, ReleasedStackKeepsOnlyItsWarmTop) {
  constexpr std::size_t kTouched = 256 * 1024;
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  std::uintptr_t high = 0;  // the entry function's frame, in the top page
  std::uintptr_t low = 0;   // the lowest byte the fiber wrote
  {
    Fiber fiber(512 * 1024, [&] {
      high = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
      volatile char* bytes = static_cast<char*>(alloca(kTouched));
      for (std::size_t i = 0; i < kTouched; i += 64) {
        bytes[i] = 1;
      }
      low = reinterpret_cast<std::uintptr_t>(bytes);
    });
    fiber.resume();
    ASSERT_TRUE(fiber.finished());
  }
  // The mapping is still cached in the pool, so mincore() can inspect it.
  const std::uintptr_t first = low & ~(page - 1);
  const std::uintptr_t top_page = high & ~(page - 1);
  ASSERT_GE(top_page - first, kTouched - page);
  const std::size_t pages = (top_page - first) / page + 1;
  std::vector<unsigned char> resident(pages);
  ASSERT_EQ(mincore(reinterpret_cast<void*>(first), pages * page,
                    resident.data()),
            0);
  for (std::size_t i = 0; i + 1 < pages; ++i) {
    EXPECT_EQ(resident[i] & 1, 0)
        << "page " << (pages - 1 - i) << " below the top stayed resident";
  }
  EXPECT_EQ(resident.back() & 1, 1) << "the warm top page was dropped";
  Fiber::trim_stack_pool();
}

TEST(Fiber, DeepStacksSurviveWithinTheLimit) {
  // Recursion that stays inside the requested stack size must work; the
  // guard page only trips past the end.
  struct Recur {
    static int down(int n) {
      volatile char pad[512];
      pad[0] = static_cast<char>(n);
      if (n == 0) {
        return static_cast<int>(pad[0]);
      }
      return down(n - 1);
    }
  };
  int result = -1;
  Fiber fiber(512 * 1024, [&] { result = Recur::down(200); });
  fiber.resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(result, 0);
}

/// --- direct hand-off (switch_to) --------------------------------------------

TEST(Fiber, SwitchToChainReturnsToTheOriginalResumer) {
  // A -> B -> C -> resumer, then the resumer picks each fiber up again where
  // it parked: C in suspend(), A and B in switch_to().
  std::vector<std::string> order;
  std::unique_ptr<Fiber> a;
  std::unique_ptr<Fiber> b;
  std::unique_ptr<Fiber> c;
  a = std::make_unique<Fiber>(64 * 1024, [&] {
    order.push_back("a1");
    EXPECT_EQ(Fiber::current(), a.get());
    Fiber::switch_to(*b);
    order.push_back("a2");
  });
  b = std::make_unique<Fiber>(64 * 1024, [&] {
    order.push_back("b1");
    EXPECT_EQ(Fiber::current(), b.get());
    Fiber::switch_to(*c);
    order.push_back("b2");
  });
  c = std::make_unique<Fiber>(64 * 1024, [&] {
    order.push_back("c1");
    EXPECT_EQ(Fiber::current(), c.get());
    Fiber::suspend();
    order.push_back("c2");
  });
  a->resume();  // b and c start through switch_to, not resume
  order.push_back("r");
  EXPECT_EQ(Fiber::current(), nullptr);
  EXPECT_TRUE(b->started());
  EXPECT_TRUE(c->started());
  EXPECT_FALSE(a->finished());
  c->resume();
  b->resume();
  a->resume();
  EXPECT_TRUE(a->finished());
  EXPECT_TRUE(b->finished());
  EXPECT_TRUE(c->finished());
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "c1", "r", "c2",
                                             "b2", "a2"}));
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, FiberFinishingAfterAHandOffReturnsToTheResumer) {
  // B is entered through switch_to and finishes: control returns to whoever
  // resumed A, and A stays parked in switch_to until it is resumed.
  std::vector<int> order;
  std::unique_ptr<Fiber> b;
  Fiber a(64 * 1024, [&] {
    order.push_back(1);
    Fiber::switch_to(*b);
    order.push_back(4);
  });
  b = std::make_unique<Fiber>(64 * 1024, [&] { order.push_back(2); });
  a.resume();
  order.push_back(3);
  EXPECT_TRUE(b->finished());
  EXPECT_FALSE(a.finished());
  a.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Fiber, SwitchToHandsBackAndForth) {
  // Two fibers ping-pong directly many times before either returns to the
  // resumer: each hand-off resumes the other where it parked.
  int turns = 0;
  std::unique_ptr<Fiber> ping;
  std::unique_ptr<Fiber> pong;
  ping = std::make_unique<Fiber>(64 * 1024, [&] {
    for (int i = 0; i < 1000; ++i) {
      ++turns;
      Fiber::switch_to(*pong);
    }
  });
  pong = std::make_unique<Fiber>(64 * 1024, [&] {
    do {
      ++turns;
      Fiber::switch_to(*ping);
    } while (!ping->finished());
  });
  ping->resume();  // ping finishes after its 1000th return from pong
  EXPECT_TRUE(ping->finished());
  EXPECT_FALSE(pong->finished());
  EXPECT_EQ(turns, 2000);
  pong->resume();  // pong parked in switch_to; it sees ping done and ends
  EXPECT_TRUE(pong->finished());
}

/// --- engine behaviour on fibers ---------------------------------------------

/// Each participant stores a distinctive pointer in its context slot, yields
/// repeatedly, and checks the slot still holds its own value: the engine
/// must swap the whole ExecContext on every fiber switch.
TEST(FiberBackend, ContextSlotsAreIsolatedPerParticipant) {
  Engine engine(8, {});
  engine.run([](int id) {
    Engine& e = this_engine();
    Engine::context_slot(0) =
        reinterpret_cast<void*>(static_cast<std::uintptr_t>(id + 1));
    for (int i = 0; i < 20; ++i) {
      e.advance(0.5 * (id + 1));
      ASSERT_EQ(Engine::context_slot(0),
                reinterpret_cast<void*>(static_cast<std::uintptr_t>(id + 1)))
          << "slot leaked across participants, id=" << id;
      if (i % 4 == 0) {
        e.unblock((id + 3) % e.size());
      }
    }
  });
}

TEST(FiberBackend, RunsAThousandParticipants) {
  // Paper scale: 1024 participants in one engine. Each participant advances
  // a few times and pokes a neighbour; the run must terminate and count
  // real context switches.
  EngineOptions options;
  options.fiber_stack_bytes = 128 * 1024;
  Engine engine(1024, options);
  engine.run([](int id) {
    Engine& e = this_engine();
    for (int i = 0; i < 4; ++i) {
      e.advance(0.1 * ((id % 7) + 1));
      e.unblock((id + 1) % e.size());
    }
  });
  EXPECT_GT(engine.context_switch_count(), 1024u);
  Fiber::trim_stack_pool();
}

/// --- failure paths ----------------------------------------------------------

/// A participant body that throws must fail the whole run with a
/// rank-tagged error (regression for the fiber unwind path, which resumes
/// live fibers so their destructors run).
TEST(FiberBackend, BodyExceptionFailsTheRun) {
  for (const int shards : {1, 2}) {
    EngineOptions options;
    options.shards = shards;
    options.lookahead_us = 0.5;
    options.label = "boom-test";
    Engine engine(4, options);
    bool cleaned[4] = {false, false, false, false};
    try {
      engine.run([&](int id) {
        struct Cleanup {
          bool* flag;
          ~Cleanup() { *flag = true; }
        } cleanup{&cleaned[id]};
        Engine& e = this_engine();
        e.advance(1.0 + id);
        if (id == 2) {
          throw std::runtime_error("participant exploded");
        }
        e.advance(100.0);
      });
      FAIL() << "run() must rethrow the body's failure";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("participant exploded"),
                std::string::npos)
          << e.what();
    }
    // Every participant that started must have been unwound: stack objects
    // destroyed even though the run failed.
    for (int id = 0; id < 4; ++id) {
      EXPECT_TRUE(cleaned[id]) << "participant " << id << " never unwound";
    }
  }
}

/// Satellite regression: a *callback* (Call event) that throws during
/// dispatch must surface as a context-tagged FatalError instead of
/// terminating the process: the dispatching context is the shard's
/// scheduler loop, which must not let the exception escape.
TEST(FiberBackend, CallbackExceptionIsTaggedWithDispatchContext) {
  for (const int shards : {1, 2}) {
    EngineOptions options;
    options.shards = shards;
    options.lookahead_us = 0.5;
    options.label = "cbfail";
    Engine engine(3, options);
    try {
      engine.run([](int id) {
        Engine& e = this_engine();
        if (id == 0) {
          e.post_in(5.0, [] { throw std::runtime_error("callback boom"); });
        }
        e.advance(50.0);
      });
      FAIL() << "run() must rethrow the callback's failure";
    } catch (const caf2::FatalError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("cbfail"), std::string::npos) << what;
      EXPECT_NE(what.find("engine callback"), std::string::npos) << what;
      EXPECT_NE(what.find("callback boom"), std::string::npos) << what;
      EXPECT_NE(what.find("dispatched from"), std::string::npos) << what;
    }
  }
}

/// --- full-stack sanity -------------------------------------------------------

void bump(caf2::Coref<long> counter) { counter.local()[0] += 1; }

TEST(FiberBackend, RunStatsReportSwitches) {
  caf2::RuntimeOptions options;
  options.num_images = 8;
  options.net = caf2::NetworkParams::gemini_like();
  options.seed = 7;
  const caf2::RunStats stats = caf2::run_stats(options, [] {
    caf2::Team world = caf2::team_world();
    caf2::Coarray<long> counter(world, 1);
    counter[0] = 0;
    caf2::team_barrier(world);
    caf2::finish(world, [&] {
      for (int t = 0; t < world.size(); ++t) {
        caf2::spawn<bump>(t, counter.ref());
      }
    });
    EXPECT_EQ(counter[0], world.size());
    caf2::team_barrier(world);
  });
  EXPECT_GT(stats.context_switches, 0u);
  EXPECT_GT(stats.events, 0u);
#if defined(__linux__)
  EXPECT_GT(stats.peak_rss_bytes, 0u);
#endif
}

/// --- guard page (death test) ------------------------------------------------

/// Runaway recursion on a fiber stack must hit the PROT_NONE guard page and
/// die deterministically instead of corrupting adjacent memory. Death tests
/// fork; keep this last so the parent's engine state stays simple.
TEST(FiberBackendDeathTest, StackOverflowHitsTheGuardPage) {
#if defined(CAF2_TEST_ASAN)
  GTEST_SKIP() << "ASan reports the poisoned guard page differently";
#else
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Fiber fiber(64 * 1024, [] {
          // alloca in a loop grows the stack unconditionally (plain
          // recursion risks being turned into a loop by the optimizer).
          for (;;) {
            volatile char* frame = static_cast<char*>(alloca(4096));
            frame[0] = 1;
          }
        });
        fiber.resume();
      },
      ".*");
#endif
}

}  // namespace
