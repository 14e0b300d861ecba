/// Tests for the failure-diagnosis subsystem (DESIGN.md §4.10): the flight
/// recorder, the wait-for graph with SCC cycle detection, StallClass
/// classification (true deadlock vs slow-network stall vs suspected
/// livelock), postmortem determinism across repeats / fault plans,
/// schedule-neutrality of the always-on flight recorder, the
/// collector-exception fix, and the on-demand dump path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/caf2.hpp"
#include "obs/postmortem.hpp"
#include "runtime/runtime.hpp"
#include "sim/participant.hpp"

namespace {

using namespace caf2;

void bump(Coref<long> counter) { counter.local()[0] += 1; }

RuntimeOptions base_options(int images) {
  RuntimeOptions options;
  options.num_images = images;
  options.net.latency_us = 5.0;
  options.net.bandwidth_bytes_per_us = 100.0;
  options.net.ack_latency_us = 5.0;
  options.net.jitter_us = 0.0;
  // These tests inspect full mid-run postmortems, which a sharded engine
  // reduces to engine-level counters (other shards keep running while the
  // snapshot is taken). Pin shards=1 so the suite is immune to a
  // CAF2_SIM_SHARDS override; cross-shard postmortems get their own
  // coverage in test_shards.cpp.
  options.shards = 1;
  return options;
}

/// Run \p body expecting a stall failure; return the caught StallError.
template <typename Body>
obs::StallError expect_stall(const RuntimeOptions& options, Body&& body) {
  try {
    run(options, body);
  } catch (const obs::StallError& error) {
    return error;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "expected obs::StallError, got: " << error.what();
  }
  ADD_FAILURE() << "expected the run to stall";
  return obs::StallError("missing", nullptr);
}

/// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorder, RingKeepsTheTail) {
  obs::FlightRecorder recorder(1, 8);
  EXPECT_EQ(recorder.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    recorder.record(0, static_cast<double>(i), obs::FrKind::kSend, 1,
                    static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(recorder.total(0), 20u);
  const std::vector<obs::FrEvent> tail = recorder.recent(0, 4);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().a, 16u);  // oldest of the last 4
  EXPECT_EQ(tail.back().a, 19u);
  const std::vector<obs::FrEvent> all = recorder.recent(0, 100);
  EXPECT_EQ(all.size(), 8u) << "at most the ring capacity survives";
  EXPECT_EQ(all.front().a, 12u);
}

// The rings share one uninitialised slab, so a read of a never-written slot
// would surface here as an MSan report or as garbage `a` values; the images
// are interleaved so a ring that strays into its neighbour's slots shows.
TEST(FlightRecorder, SlabRingsReadOnlyWhatWasWritten) {
  obs::FlightRecorder recorder(3, 8);
  ASSERT_EQ(recorder.num_images(), 3);
  ASSERT_EQ(recorder.capacity(), 8u);
  for (std::uint64_t i = 0; i < 11; ++i) {
    if (i < 5) {
      recorder.record(1, static_cast<double>(i), obs::FrKind::kDeliver, 0,
                      100 + i);
    }
    recorder.record(2, static_cast<double>(i), obs::FrKind::kSend, 1, 200 + i);
  }
  const auto payloads = [&](int image) {
    std::vector<std::uint64_t> out;
    for (const obs::FrEvent& event : recorder.recent(image, 100)) {
      out.push_back(event.a);
    }
    return out;
  };

  EXPECT_EQ(recorder.total(0), 0u);
  EXPECT_TRUE(recorder.recent(0, 100).empty()) << "never-written image";

  EXPECT_EQ(recorder.total(1), 5u);
  EXPECT_EQ(payloads(1), (std::vector<std::uint64_t>{100, 101, 102, 103, 104}))
      << "a partly filled ring returns only its written events, oldest first";
  EXPECT_EQ(recorder.recent(1, 2).front().a, 103u);

  EXPECT_EQ(recorder.total(2), 11u);
  EXPECT_EQ(payloads(2), (std::vector<std::uint64_t>{203, 204, 205, 206, 207,
                                                      208, 209, 210}))
      << "a wrapped ring returns its last capacity() events, oldest first";
  const std::vector<obs::FrEvent> last = recorder.recent(2, 1);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].a, 210u);
  EXPECT_EQ(last[0].t, 10.0);
  EXPECT_EQ(last[0].kind, obs::FrKind::kSend);
  EXPECT_EQ(last[0].peer, 1);
}

TEST(FlightRecorder, RecordsDeliveriesDuringARun) {
  RuntimeOptions options = base_options(2);
  obs::Postmortem pm;
  run(options, [&] {
    Team world = team_world();
    team_barrier(world);
    if (this_image() == 0) {
      pm = dump_postmortem();
    }
    team_barrier(world);
  });
  ASSERT_EQ(pm.per_image.size(), 2u);
  EXPECT_GT(pm.per_image[0].recorded_total, 0u)
      << "the barrier's messages must appear in the flight recorder";
  bool saw_network_event = false;
  for (const obs::FrEvent& event : pm.per_image[0].recent) {
    if (event.kind == obs::FrKind::kSend ||
        event.kind == obs::FrKind::kDeliver) {
      saw_network_event = true;
    }
  }
  EXPECT_TRUE(saw_network_event);
}

/// The fields a postmortem renders, for comparing FrEvents.
bool same_event(const obs::FrEvent& x, const obs::FrEvent& y) {
  return x.t == y.t && x.a == y.a && x.b == y.b && x.peer == y.peer &&
         x.kind == y.kind && x.label == y.label;
}

TEST(FlightRecorder, RuntimeRingHoldsExactlyThePostmortemTail) {
  rt::Runtime runtime(base_options(2));
  ASSERT_NE(runtime.flight_recorder(), nullptr);
  EXPECT_EQ(runtime.flight_recorder()->capacity(),
            obs::kPostmortemRecentEvents);
}

TEST(FlightRecorder, SmallAndLargeRingsReturnTheSameTail) {
  // A ring of kPostmortemRecentEvents must hand a postmortem the same tail
  // as a 256-entry ring fed the same interleaved stream: the deeper ring
  // holds nothing more that a postmortem reads. Compare the tails while the
  // rings are partly filled, once the small one has wrapped, and once both
  // have wrapped.
  constexpr std::size_t kTail = obs::kPostmortemRecentEvents;
  obs::FlightRecorder small(2, kTail);
  obs::FlightRecorder large(2, 256);
  ASSERT_EQ(small.capacity(), kTail);
  ASSERT_EQ(large.capacity(), 256u);
  const char* const labels[] = {nullptr, "event_wait", "finish"};
  const auto compare = [&](std::uint64_t fed) {
    for (int image = 0; image < 2; ++image) {
      ASSERT_EQ(small.total(image), large.total(image)) << "after " << fed;
      const std::vector<obs::FrEvent> x = small.recent(image, kTail);
      const std::vector<obs::FrEvent> y = large.recent(image, kTail);
      ASSERT_EQ(x.size(), y.size()) << "after " << fed;
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_TRUE(same_event(x[i], y[i]))
            << "image " << image << " entry " << i << " after " << fed;
      }
    }
  };
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const int image = i % 3 == 0 ? 0 : 1;
    const auto kind = static_cast<obs::FrKind>(i % 13);
    const auto peer = static_cast<int>(i % 7) - 1;
    const char* label = labels[i % 3];
    small.record(image, 0.5 * static_cast<double>(i), kind, peer, i * i,
                 i >> 2, label);
    large.record(image, 0.5 * static_cast<double>(i), kind, peer, i * i,
                 i >> 2, label);
    if (i == 4 || i == 3 * kTail || i == 999) {
      compare(i + 1);
    }
  }
}

/// Image 0's postmortem section after \p barriers world barriers and then a
/// deadlock on an event nobody notifies.
obs::PmImage deadlock_after_barriers(int barriers) {
  const obs::StallError error = expect_stall(base_options(2), [barriers] {
    Team world = team_world();
    for (int i = 0; i < barriers; ++i) {
      team_barrier(world);
    }
    Event never;
    never.wait();
  });
  if (error.postmortem() == nullptr ||
      error.postmortem()->per_image.empty()) {
    ADD_FAILURE() << "the stall carries no postmortem";
    return {};
  }
  return error.postmortem()->per_image[0];
}

TEST(Postmortem, LongHistoryKeepsTheLastRecordsAndCountsEveryOne) {
  // Every barrier records the same run of events on image 0, and the
  // deadlock's wait comes last. Runs after 0 and 1 barriers give those two
  // patterns; after 200 barriers image 0 has recorded far more than a
  // 256-entry ring holds, and its tail must be exactly the last
  // kPostmortemRecentEvents records of the repeated pattern.
  constexpr std::uint64_t kBarriers = 200;
  const obs::PmImage none = deadlock_after_barriers(0);
  const obs::PmImage one = deadlock_after_barriers(1);
  const obs::PmImage many = deadlock_after_barriers(kBarriers);
  const std::uint64_t tail_records = none.recorded_total;
  ASSERT_GT(one.recorded_total, tail_records);
  const std::uint64_t per_barrier = one.recorded_total - tail_records;
  ASSERT_EQ(one.recent.size(), one.recorded_total);
  ASSERT_EQ(none.recent.size(), tail_records);

  EXPECT_EQ(many.recorded_total, kBarriers * per_barrier + tail_records)
      << "recorded_total counts every record, not just the retained tail";
  ASSERT_GT(many.recorded_total, 256u);
  ASSERT_EQ(many.recent.size(), obs::kPostmortemRecentEvents);

  // Record g of the run repeats one barrier's record g % per_barrier until
  // the barriers end, then the deadlock's records. Waits name their own
  // event (payload a) and each barrier runs later, so compare the rest.
  const std::uint64_t first = many.recorded_total - many.recent.size();
  for (std::size_t i = 0; i < many.recent.size(); ++i) {
    const std::uint64_t g = first + i;
    const obs::FrEvent& expected =
        g < kBarriers * per_barrier
            ? one.recent[static_cast<std::size_t>(g % per_barrier)]
            : none.recent[static_cast<std::size_t>(g -
                                                   kBarriers * per_barrier)];
    const obs::FrEvent& got = many.recent[i];
    EXPECT_EQ(got.kind, expected.kind) << "entry " << i;
    EXPECT_EQ(got.peer, expected.peer) << "entry " << i;
    EXPECT_EQ(got.b, expected.b) << "entry " << i;
    EXPECT_EQ(got.label, expected.label) << "entry " << i;
    if (i > 0) {
      EXPECT_LE(many.recent[i - 1].t, got.t) << "entry " << i;
    }
  }
  EXPECT_EQ(many.recent.back().kind, obs::FrKind::kWaitBegin);
}

/// --- forced deadlocks: cycle detection ---------------------------------------

TEST(Postmortem, TwoImageEventCycleNamesImagesAndResources) {
  RuntimeOptions options = base_options(2);
  const obs::StallError error = expect_stall(options, [] {
    Team world = team_world();
    team_barrier(world);
    Event never;
    never.wait();  // 0 and 1 each wait on their own event; nobody notifies
  });
  ASSERT_NE(error.postmortem(), nullptr);
  const obs::Postmortem& pm = *error.postmortem();
  EXPECT_EQ(pm.kind, obs::FailKind::kDeadlock);
  EXPECT_EQ(pm.classification, obs::StallClass::kDeadlockCycle);
  ASSERT_EQ(pm.graph.cycles.size(), 1u);
  const obs::WaitGraph::Cycle& cycle = pm.graph.cycles[0];
  EXPECT_EQ(cycle.images, (std::vector<int>{0, 1}));
  ASSERT_EQ(cycle.resources.size(), 2u);
  for (const obs::ResourceId& resource : cycle.resources) {
    EXPECT_EQ(resource.kind, obs::ResourceKind::kEvent);
  }
  // The rendered text names the exact cycle.
  const std::string text = obs::to_text(pm);
  EXPECT_NE(text.find("classification: deadlock-cycle (fail path: deadlock)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cycle 0: images {0, 1}"), std::string::npos) << text;
  EXPECT_NE(text.find("event#"), std::string::npos) << text;
  EXPECT_EQ(std::string(error.what()).find("missing"), std::string::npos);
}

TEST(Postmortem, CrossFinishScopeCycleNamesTheFinishResource) {
  // Image 1 reaches finish termination detection and waits for image 0's
  // contribution; image 0 is stuck *inside* the finish body on an event
  // nobody will notify. The cycle runs through the finish resource.
  RuntimeOptions options = base_options(2);
  const obs::StallError error = expect_stall(options, [] {
    Team world = team_world();
    team_barrier(world);
    finish(world, [&] {
      if (this_image() == 0) {
        Event never;
        never.wait();
      }
    });
  });
  ASSERT_NE(error.postmortem(), nullptr);
  const obs::Postmortem& pm = *error.postmortem();
  EXPECT_EQ(pm.kind, obs::FailKind::kDeadlock);
  EXPECT_EQ(pm.classification, obs::StallClass::kDeadlockCycle);
  ASSERT_GE(pm.graph.cycles.size(), 1u);
  const obs::WaitGraph::Cycle& cycle = pm.graph.cycles[0];
  EXPECT_EQ(cycle.images, (std::vector<int>{0, 1}));
  bool has_finish = false;
  bool has_event = false;
  for (const obs::ResourceId& resource : cycle.resources) {
    has_finish |= resource.kind == obs::ResourceKind::kFinish;
    has_event |= resource.kind == obs::ResourceKind::kEvent;
  }
  EXPECT_TRUE(has_finish) << obs::to_text(pm);
  EXPECT_TRUE(has_event) << obs::to_text(pm);
  // Image 1's wait stack shows the finish-detection frame.
  bool image1_in_detection = false;
  for (const obs::WaitFrame& frame : pm.per_image[1].waits) {
    if (frame.resource.kind == obs::ResourceKind::kFinish) {
      image1_in_detection = true;
    }
  }
  EXPECT_TRUE(image1_in_detection) << obs::to_text(pm);
}

/// --- stalls that are NOT deadlocks -------------------------------------------

TEST(Postmortem, SlowNetworkQuietPeriodIsAStallNotACycle) {
  // Latency far beyond the watchdog quiet period: every image blocks inside
  // a barrier whose messages are still in flight. The watchdog fires, but
  // the pending deliveries make every resource externally satisfiable — no
  // cycle, classified as a stall.
  RuntimeOptions options = base_options(2);
  options.net.latency_us = 5'000'000.0;
  options.watchdog_quiet_us = 1'000.0;
  const obs::StallError error = expect_stall(options, [] {
    team_barrier(team_world());
  });
  ASSERT_NE(error.postmortem(), nullptr);
  const obs::Postmortem& pm = *error.postmortem();
  EXPECT_EQ(pm.kind, obs::FailKind::kQuietWatchdog);
  EXPECT_EQ(pm.classification, obs::StallClass::kStallNoCycle);
  EXPECT_TRUE(pm.graph.cycles.empty()) << obs::to_text(pm);
  EXPECT_GT(pm.pending_calls, 0u)
      << "the in-flight deliveries are what makes this a stall, not deadlock";
  const std::string text = obs::to_text(pm);
  EXPECT_NE(text.find("classification: stall-no-cycle"), std::string::npos)
      << text;
}

TEST(Postmortem, RetryCapClassifiedAsSuspectedLivelock) {
  RuntimeOptions options = base_options(2);
  options.net.faults.all.drop_probability = 1.0;  // black hole
  options.net.reliability.max_attempts = 3;
  options.net.reliability.rto_us = 100.0;
  const obs::StallError error = expect_stall(options, [] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    finish(world, [&] {
      if (this_image() == 0) {
        spawn<bump>(1, counter.ref());
      }
    });
  });
  ASSERT_NE(error.postmortem(), nullptr);
  const obs::Postmortem& pm = *error.postmortem();
  EXPECT_EQ(pm.kind, obs::FailKind::kRetryCap);
  EXPECT_EQ(pm.classification, obs::StallClass::kLivelockSuspected);
  EXPECT_TRUE(pm.net.present);
  EXPECT_TRUE(pm.net.reliable);
  EXPECT_GE(pm.net.inflight_total, 1u);
  ASSERT_FALSE(pm.net.inflight.empty());
  EXPECT_EQ(pm.net.inflight[0].source, 0);
  EXPECT_EQ(pm.net.inflight[0].dest, 1);
}

/// --- determinism -------------------------------------------------------------

std::string deadlock_text() {
  RuntimeOptions options = base_options(2);
  const obs::StallError error = expect_stall(options, [] {
    Team world = team_world();
    team_barrier(world);
    Event never;
    never.wait();
  });
  return error.postmortem() != nullptr ? obs::to_text(*error.postmortem())
                                       : std::string();
}

TEST(PostmortemDeterminism, TextByteIdenticalAcrossRepeats) {
  const std::string once = deadlock_text();
  const std::string twice = deadlock_text();
  ASSERT_FALSE(once.empty());
  EXPECT_EQ(once, twice);
}

std::string faulty_deadlock_text() {
  RuntimeOptions options = base_options(3);
  options.net.jitter_us = 1.0;
  options.net.faults.all.drop_probability = 0.3;
  options.net.faults.all.dup_probability = 0.2;
  options.net.faults.all.delay_probability = 0.3;
  options.net.faults.all.delay_max_us = 20.0;
  const obs::StallError error = expect_stall(options, [] {
    Team world = team_world();
    team_barrier(world);  // exercises the fault plan (drops + retransmits)
    Event never;
    never.wait();
  });
  return error.postmortem() != nullptr ? obs::to_text(*error.postmortem())
                                       : std::string();
}

TEST(PostmortemDeterminism, TextByteIdenticalUnderAFaultPlan) {
  const std::string once = faulty_deadlock_text();
  const std::string twice = faulty_deadlock_text();
  ASSERT_FALSE(once.empty());
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("fault stats:"), std::string::npos) << once;
}

/// --- schedule neutrality of the flight recorder ------------------------------

TEST(FlightRecorder, OnOrOffLeavesTheScheduleBitIdentical) {
  auto body = [] {
    Team world = team_world();
    Coarray<long> data(world, 4);
    data[0] = this_image();
    team_barrier(world);
    finish(world, [&] {
      const int next = (this_image() + 1) % num_images();
      copy_async(data(next), data(this_image()));
    });
    team_barrier(world);
  };
  RuntimeOptions on = base_options(4);
  on.obs.flight_recorder = true;
  RuntimeOptions off = base_options(4);
  off.obs.flight_recorder = false;
  const RunStats with_fr = run_stats(on, body);
  const RunStats without_fr = run_stats(off, body);
  EXPECT_EQ(with_fr.events, without_fr.events);
  EXPECT_EQ(with_fr.virtual_us, without_fr.virtual_us);
  EXPECT_EQ(with_fr.context_switches, without_fr.context_switches);
  EXPECT_EQ(with_fr.schedule_digest, without_fr.schedule_digest);
}

/// --- collector exceptions must not deadlock the failing run ------------------

TEST(Postmortem, ThrowingPostmortemCollectorIsSwallowedToo) {
  sim::Engine engine(2);
  engine.set_postmortem_collector(
      [](obs::Postmortem&) { throw std::runtime_error("collector boom"); });
  try {
    engine.run([](int id) {
      if (id == 1) {
        sim::this_engine().block("never woken");
      }
    });
    FAIL() << "the deadlock must abort the run";
  } catch (const obs::StallError& error) {
    ASSERT_NE(error.postmortem(), nullptr);
    EXPECT_NE(error.postmortem()->collector_error.find("collector boom"),
              std::string::npos);
  }
}

/// --- on-demand dump + renderers ----------------------------------------------

TEST(Postmortem, OnDemandDumpOfAHealthyRun) {
  RuntimeOptions options = base_options(2);
  obs::Postmortem pm;
  run(options, [&] {
    team_barrier(team_world());
    if (this_image() == 0) {
      pm = dump_postmortem();
    }
    team_barrier(team_world());
  });
  EXPECT_EQ(pm.kind, obs::FailKind::kOnDemand);
  EXPECT_EQ(pm.classification, obs::StallClass::kNotStalled);
  EXPECT_EQ(pm.images, 2);
  ASSERT_EQ(pm.per_image.size(), 2u);
  const std::string json = obs::to_json(pm);
  EXPECT_NE(json.find("\"kind\": \"on-demand\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"per_image\""), std::string::npos);
  const std::string dot = obs::wait_graph_to_dot(pm);
  EXPECT_EQ(dot.rfind("digraph", 0), 0u) << dot;
  // The text form carries the runtime's per-image and network sections.
  const std::string text = obs::to_text(pm);
  EXPECT_NE(text.find("image 0: mailbox pending="), std::string::npos)
      << text;
  EXPECT_NE(text.find("network: reliable delivery off"), std::string::npos)
      << text;
}

TEST(Postmortem, BlameSummaryAttachedWhenSpanRecorderIsOn) {
  RuntimeOptions options = base_options(2);
  options.obs.enabled = true;
  const obs::StallError error = expect_stall(options, [] {
    Team world = team_world();
    team_barrier(world);
    Event never;
    never.wait();
  });
  ASSERT_NE(error.postmortem(), nullptr);
  EXPECT_NE(error.postmortem()->blame, nullptr);
  const std::string text = obs::to_text(*error.postmortem());
  EXPECT_NE(text.find("blame summary:"), std::string::npos) << text;
}

}  // namespace
