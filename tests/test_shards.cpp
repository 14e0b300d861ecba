/// Sharded parallel-DES engine (DESIGN.md §4.11, §4.12) through the full
/// runtime: shards=1 repeat identity and stats shape, bit-identical repeats
/// and one schedule at every shard count, cross-shard asynchronous
/// constructs at paper scale, cross-shard deadlock postmortems, fault plans
/// and obs span capture under sharding, the static conservative window
/// (reaction chains, no shard turn-taking), team split through engine
/// events, finished shards that keep dispatching, and the remaining
/// zero-lookahead fallback to one shard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "core/caf2.hpp"
#include "core/detectors.hpp"
#include "obs/export.hpp"
#include "net/network.hpp"
#include "obs/postmortem.hpp"
#include "runtime/internal.hpp"
#include "runtime/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/participant.hpp"
#include "sim/trace.hpp"

namespace {

using namespace caf2;

RuntimeOptions shard_options(int images, int shards, std::uint64_t seed) {
  RuntimeOptions options;
  options.num_images = images;
  options.shards = shards;
  options.net.latency_us = 4.0;
  options.net.bandwidth_bytes_per_us = 400.0;
  options.net.handler_cost_us = 0.1;
  options.net.jitter_us = 2.0;
  options.seed = seed;
  options.max_events = 50'000'000;
  options.record_trace = true;
  return options;
}

/// Mixed workload with plenty of cross-image (and, when sharded,
/// cross-shard) traffic: asynchronous copies under a finish, a cofence per
/// round, an allreduce, and barriers.
void mixed_workload() {
  Team world = team_world();
  Coarray<long> counter(world, 1);
  counter[0] = 0;
  team_barrier(world);
  const std::vector<long> payload{1};
  finish(world, [&] {
    for (int round = 0; round < 5; ++round) {
      copy_async(counter((world.rank() + round) % world.size()).subslice(0, 1),
                 std::span<const long>(payload));
      cofence();
    }
  });
  team_barrier(world);
}

struct Fingerprint {
  std::string trace;
  std::uint64_t events = 0;
  double end_us = 0.0;
  double image0_us = 0.0;
  int shards = 0;
  std::uint64_t windows = 0;
  std::vector<std::uint64_t> shard_events;
};

/// Run \p workload on a full runtime and capture the engine trace plus the
/// stats the determinism assertions compare.
Fingerprint fingerprint_run(const RuntimeOptions& options,
                            const std::function<void()>& workload) {
  rt::Runtime runtime(options);
  rt::install_event_handlers(runtime);
  ops::install_copy_handlers(runtime);
  ops::install_spawn_handlers(runtime);
  ops::install_collective_handlers(runtime);
  core::install_detector_handlers(runtime);
  Fingerprint fp;
  runtime.run([&] {
    workload();
    if (this_image() == 0) {
      fp.image0_us = now_us();
    }
  });
  fp.trace = sim::render_trace(runtime.engine().trace());
  fp.events = runtime.engine().event_count();
  fp.end_us = runtime.engine().now();
  fp.shards = runtime.engine().shard_count();
  fp.windows = runtime.engine().window_count();
  fp.shard_events = runtime.engine().shard_event_counts();
  return fp;
}

/// --- shards=1: one shard, one unbounded window ------------------------------

TEST(Shards, SerialEngineIsBitIdenticalAcrossRepeats) {
  const Fingerprint a = fingerprint_run(shard_options(3, 1, 7), mixed_workload);
  const Fingerprint b = fingerprint_run(shard_options(3, 1, 7), mixed_workload);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_us, b.end_us);
  EXPECT_EQ(a.image0_us, b.image0_us);
  // shards=1 reports no windows (its barriers synchronize nothing) and one
  // per-shard bucket holding every event.
  EXPECT_EQ(a.shards, 1);
  EXPECT_EQ(a.windows, 0u);
  ASSERT_EQ(a.shard_events.size(), 1u);
  EXPECT_EQ(a.shard_events[0], a.events);
}

TEST(Shards, ExplicitRequestBeatsEnvironment) {
  char* prior = std::getenv("CAF2_SIM_SHARDS");
  const std::string saved = prior != nullptr ? prior : "";
  ::setenv("CAF2_SIM_SHARDS", "3", 1);
  const RunStats pinned = run_stats(shard_options(4, 1, 11), mixed_workload);
  EXPECT_EQ(pinned.shards, 1);
  const RunStats from_env = run_stats(shard_options(4, 0, 11), mixed_workload);
  EXPECT_EQ(from_env.shards, 3);
  if (prior != nullptr) {
    ::setenv("CAF2_SIM_SHARDS", saved.c_str(), 1);
  } else {
    ::unsetenv("CAF2_SIM_SHARDS");
  }
}

/// --- every shard count: one schedule, bit-identical repeats ---------------

TEST(Shards, RepeatsAreBitIdenticalAndShardCountsAgree) {
  // A fixed shard count repeats bit-identically, partition counters
  // included; across shard counts the schedule itself (events, end time,
  // image 0's finish) is one. ShardInvariance in test_determinism compares
  // whole per-participant traces and obs captures across shard counts.
  const Fingerprint serial = fingerprint_run(shard_options(8, 1, 21),
                                             mixed_workload);
  for (const int shards : {1, 2, 4}) {
    const Fingerprint a =
        fingerprint_run(shard_options(8, shards, 21), mixed_workload);
    const Fingerprint b =
        fingerprint_run(shard_options(8, shards, 21), mixed_workload);
    EXPECT_EQ(a.trace, b.trace) << "shards=" << shards;
    EXPECT_EQ(a.events, b.events) << "shards=" << shards;
    EXPECT_EQ(a.end_us, b.end_us) << "shards=" << shards;
    EXPECT_EQ(a.image0_us, b.image0_us) << "shards=" << shards;
    EXPECT_EQ(a.shards, shards);
    ASSERT_EQ(a.shard_events.size(), static_cast<std::size_t>(shards));
    EXPECT_EQ(a.shard_events, b.shard_events) << "shards=" << shards;
    EXPECT_EQ(a.windows, b.windows) << "shards=" << shards;
    if (shards > 1) {
      EXPECT_GT(a.windows, 0u) << "shards=" << shards;
    }
    EXPECT_EQ(a.events, serial.events) << "shards=" << shards;
    EXPECT_EQ(a.end_us, serial.end_us) << "shards=" << shards;
    EXPECT_EQ(a.image0_us, serial.image0_us) << "shards=" << shards;
  }
}

/// --- cross-shard constructs at paper scale ----------------------------------

TEST(Shards, CrossShardConstructsAtPaperScale) {
  const int kImages = 4096;
  RuntimeOptions options = shard_options(kImages, 4, 5);
  options.record_trace = false;  // 4K images: keep memory flat
  const RunStats stats = run_stats(options, [] {
    Team world = team_world();
    Coarray<long> ring(world, 4);
    for (int i = 0; i < 4; ++i) {
      ring[i] = 0;
    }
    team_barrier(world);
    // Every image writes its rank to its ring successor; the edges that
    // straddle shard boundaries exercise staged cross-shard delivery.
    const std::vector<long> payload(4, world.rank());
    finish(world, [&] {
      copy_async(ring((world.rank() + 1) % world.size()),
                 std::span<const long>(payload));
      cofence();
    });
    const int prev = (world.rank() + world.size() - 1) % world.size();
    EXPECT_EQ(ring[0], prev);
    // A collective whose contributions cross every shard boundary.
    const long total = allreduce<long>(world, 1, RedOp::kSum);
    EXPECT_EQ(total, static_cast<long>(world.size()));
    team_barrier(world);
  });
  EXPECT_EQ(stats.shards, 4);
  ASSERT_EQ(stats.shard_events.size(), 4u);
  for (const std::uint64_t per_shard : stats.shard_events) {
    EXPECT_GT(per_shard, 0u);
  }
  EXPECT_GT(stats.windows, 0u);
}

void count_chain(std::int32_t remaining, Coref<long> counter) {
  counter.local()[0] += 1;
  if (remaining > 0) {
    const int next = (this_image() + 1) % num_images();
    spawn<count_chain>(next, remaining - 1, counter);
  }
}

TEST(Shards, FinishDetectionBoundHoldsAtPaperScaleSharded) {
  // Paper Theorem 1 (at most L+1 reduction waves) at 4K images on four
  // shards: the termination detector must stay within the bound when its
  // reduction waves cross shard boundaries, not merely terminate.
  const int depth = 6;
  RuntimeOptions options = shard_options(4096, 4, 53);
  options.record_trace = false;  // 4K images: keep memory flat
  const RunStats stats = run_stats(options, [depth] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      if (this_image() == 0) {
        spawn<count_chain>(1, depth, counter.ref());
      }
    });
    const long total = allreduce<long>(world, counter[0], RedOp::kSum);
    EXPECT_EQ(total, depth + 1);
    EXPECT_LE(last_finish_report().rounds, depth + 2);
    team_barrier(world);
  });
  EXPECT_EQ(stats.shards, 4);
}

/// --- cross-shard failure handling -------------------------------------------

std::string stalled_postmortem_text(const RuntimeOptions& options) {
  try {
    run(options, [] {
      // Every image waits on its own event; nobody notifies. The stall spans
      // shard boundaries, so detection requires the inter-shard quiescence
      // protocol, not just one shard running dry.
      CoEvent never(team_world());
      never.local().wait();
    });
  } catch (const obs::StallError& error) {
    if (error.postmortem() == nullptr) {
      ADD_FAILURE() << "stall error carried no postmortem";
      return {};
    }
    return obs::to_text(*error.postmortem());
  }
  ADD_FAILURE() << "expected obs::StallError";
  return {};
}

TEST(Shards, CrossShardDeadlockProducesDeterministicPostmortem) {
  RuntimeOptions options = shard_options(4, 2, 17);
  const std::string a = stalled_postmortem_text(options);
  const std::string b = stalled_postmortem_text(options);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The postmortem names every blocked image.
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_NE(a.find("image " + std::to_string(rank)), std::string::npos)
        << a;
  }
}

/// --- fault plans under sharding (DESIGN.md §4.12) ---------------------------

RuntimeOptions faulty_shard_options(int images, int shards,
                                    std::uint64_t seed) {
  RuntimeOptions options = shard_options(images, shards, seed);
  options.net.faults.all.drop_probability = 0.1;
  options.net.faults.all.dup_probability = 0.1;
  options.net.faults.all.ack_drop_probability = 0.1;
  options.net.faults.all.delay_probability = 0.1;
  options.net.faults.all.delay_max_us = 10.0;
  return options;
}

TEST(Shards, FaultPlansRunShardedAndDeterministically) {
  // Reliable delivery (retransmission, dedup, ack loss) runs under the
  // sharded engine with per-shard protocol cells: the run must keep
  // RunStats.shards > 1 and stay bit-identical across repeats.
  const RuntimeOptions options = faulty_shard_options(8, 4, 29);
  const Fingerprint a = fingerprint_run(options, mixed_workload);
  const Fingerprint b = fingerprint_run(options, mixed_workload);
  EXPECT_EQ(a.shards, 4);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_us, b.end_us);
  EXPECT_EQ(a.shard_events, b.shard_events);

  const RunStats stats = run_stats(options, mixed_workload);
  EXPECT_EQ(stats.shards, 4);
  // The plan fired across the whole fault surface.
  EXPECT_GT(stats.faults.deliveries_dropped, 0u);
  EXPECT_GT(stats.faults.retransmits, 0u);
  // Per-shard counters partition the totals.
  ASSERT_EQ(stats.shard_faults.size(), 4u);
  FaultStats summed;
  for (const FaultStats& cell : stats.shard_faults) {
    summed.deliveries_dropped += cell.deliveries_dropped;
    summed.deliveries_duplicated += cell.deliveries_duplicated;
    summed.deliveries_delayed += cell.deliveries_delayed;
    summed.acks_dropped += cell.acks_dropped;
    summed.retransmits += cell.retransmits;
    summed.duplicates_suppressed += cell.duplicates_suppressed;
    summed.scripted_applied += cell.scripted_applied;
  }
  EXPECT_EQ(summed.deliveries_dropped, stats.faults.deliveries_dropped);
  EXPECT_EQ(summed.retransmits, stats.faults.retransmits);
  EXPECT_EQ(summed.duplicates_suppressed, stats.faults.duplicates_suppressed);
  EXPECT_EQ(summed.acks_dropped, stats.faults.acks_dropped);
}

TEST(Shards, FaultyRunsRepeatBitIdenticallyAtEveryShardCount) {
  for (const int shards : {1, 2, 4}) {
    const RuntimeOptions options = faulty_shard_options(8, shards, 31);
    const Fingerprint a = fingerprint_run(options, mixed_workload);
    const Fingerprint b = fingerprint_run(options, mixed_workload);
    EXPECT_EQ(a.shards, shards);
    EXPECT_EQ(a.trace, b.trace) << "shards=" << shards;
    EXPECT_EQ(a.events, b.events) << "shards=" << shards;
    EXPECT_EQ(a.end_us, b.end_us) << "shards=" << shards;
    EXPECT_EQ(a.shard_events, b.shard_events) << "shards=" << shards;
  }
}

/// --- obs span capture under sharding (DESIGN.md §4.12) ----------------------

RuntimeOptions obs_shard_options(int images, int shards, std::uint64_t seed) {
  RuntimeOptions options = shard_options(images, shards, seed);
  options.record_trace = false;  // the capture text is the fingerprint here
  options.obs.enabled = true;
  return options;
}

TEST(Shards, ObsCaptureRunsShardedAndIsByteIdentical) {
  // Span capture no longer forces the engine serial: each shard records into
  // its own recorder lane and the merged capture must be byte-identical
  // across repeats (composite span ids + the deterministic merge order).
  const RuntimeOptions options = obs_shard_options(8, 4, 37);
  const RunStats a = run_stats(options, mixed_workload);
  const RunStats b = run_stats(options, mixed_workload);
  EXPECT_EQ(a.shards, 4);
  ASSERT_NE(a.obs, nullptr);
  ASSERT_NE(b.obs, nullptr);
  EXPECT_EQ(obs::to_text(*a.obs), obs::to_text(*b.obs));
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.virtual_us, b.virtual_us);
}

TEST(Shards, ObsCaptureDoesNotPerturbShardedSchedules) {
  // The obs-on/obs-off schedule-identity guarantee must survive sharding:
  // recording only ever appends to per-shard buffers.
  RuntimeOptions off = shard_options(8, 4, 39);
  RuntimeOptions on = shard_options(8, 4, 39);
  on.obs.enabled = true;
  const Fingerprint a = fingerprint_run(off, mixed_workload);
  const Fingerprint b = fingerprint_run(on, mixed_workload);
  EXPECT_EQ(a.shards, 4);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_us, b.end_us);
}

TEST(Shards, ObsChromeTracesRepeatByteIdenticallyAtEveryShardCount) {
  for (const int shards : {1, 2, 4}) {
    const RuntimeOptions options = obs_shard_options(8, shards, 41);
    const RunStats a = run_stats(options, mixed_workload);
    const RunStats b = run_stats(options, mixed_workload);
    ASSERT_NE(a.obs, nullptr);
    ASSERT_NE(b.obs, nullptr);
    EXPECT_EQ(a.shards, shards);
    EXPECT_EQ(obs::to_chrome_trace(*a.obs), obs::to_chrome_trace(*b.obs))
        << "shards=" << shards;
  }
}

/// --- the static conservative window (DESIGN.md §4.12) ----------------------

/// Ping-pong reaction chain rooted in a window-interior send. Images 0,1
/// land on shard 0 and images 2,3 on shard 1 (contiguous partition). Image
/// 3's long compute parks shard 1's earliest materialized event at t=2000,
/// so a window bounded by the other shard's next event would end near 2004 —
/// far past the ~20 us round trip of the ping image 0 launches at t=10 —
/// and the pong would merge into shard 0's past after it burns through its
/// 1000 unit computes (a detected conservative-window violation). Windows
/// that end at global_min + lookahead stop shard 0 well before the pong's
/// arrival time, so it lands in shard 0's future.
void reaction_chain_workload() {
  Team world = team_world();
  CoEvent ev(world);
  switch (world.rank()) {
    case 0:
      compute(10.0);
      notify_event(ev(2));
      for (int i = 0; i < 1000; ++i) {
        compute(1.0);
      }
      ev.local().wait();
      break;
    case 2:
      ev.local().wait();
      notify_event(ev(0));
      break;
    case 3:
      compute(2000.0);
      break;
    default:
      break;
  }
}

TEST(Shards, WindowsStayConservativeForReactionChains) {
  const RuntimeOptions options = shard_options(4, 2, 61);
  const Fingerprint a = fingerprint_run(options, reaction_chain_workload);
  const Fingerprint b = fingerprint_run(options, reaction_chain_workload);
  EXPECT_EQ(a.shards, 2);
  EXPECT_GT(a.windows, 0u);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_us, b.end_us);

  // The pong is the only message delivered to image 0; its recorded latency
  // proves the delivery was not time-shifted to image 0's t=1010 wait (the
  // stale-window symptom was a ~990 us "latency" on a ~6 us wire hop).
  const RunStats observed =
      run_stats(obs_shard_options(4, 2, 61), reaction_chain_workload);
  ASSERT_NE(observed.obs, nullptr);
  const obs::Histogram& latency =
      observed.obs->metrics[0].hist(obs::Hist::kMessageLatency);
  ASSERT_GT(latency.count, 0u);
  EXPECT_LT(latency.sum_us / static_cast<double>(latency.count), 50.0);
}

/// Dense neighbor ring: every image streams copy_async rounds to its
/// successor, so both shards hold events in almost every window.
void dense_ring_workload() {
  Team world = team_world();
  Coarray<long> slot(world, 8);
  team_barrier(world);
  const std::vector<long> payload(8, 1);
  finish(world, [&] {
    for (int round = 0; round < 4; ++round) {
      copy_async(slot((world.rank() + 1) % world.size()),
                 std::span<const long>(payload));
      cofence();
    }
  });
  team_barrier(world);
}

TEST(Shards, DenseExchangeKeepsBothShardsBusy) {
  // Regression for shard turn-taking: a window rule that lets one shard run
  // ahead to the other's next event plus one lookahead leaves that shard's
  // own next event a full lookahead out, so in the next window only the
  // other shard can run. With every window ending at global_min +
  // lookahead, a dense exchange leaves almost no shard-window idle. Stall
  // counts are deterministic for a fixed shard count.
  RuntimeOptions options = shard_options(256, 2, 67);
  options.net = NetworkParams::gemini_like();
  options.record_trace = false;
  const RunStats stats = run_stats(options, dense_ring_workload);
  ASSERT_EQ(stats.shards, 2);
  ASSERT_GT(stats.windows, 0u);
  EXPECT_LT(stats.window_stalls * 10, stats.windows * 2)
      << stats.window_stalls << " of " << stats.windows * 2
      << " shard-windows stalled";
}

/// --- team split through engine events --------------------------------------

/// Nested split of eight images with staggered contributions: world splits
/// by parity, then each half splits in two. Returns every image's team ids,
/// ranks and return times, plus the run's event count and end time.
std::string nested_split_outcome(int shards) {
  RuntimeOptions options = shard_options(8, shards, 71);
  options.record_trace = false;
  std::vector<std::string> lines(8);
  std::vector<double> contributed(8);
  std::vector<double> returned(8);
  const RunStats stats = run_stats(options, [&] {
    Team world = team_world();
    const int me = world.rank();
    compute(0.5 * ((me * 5) % 8));
    contributed[static_cast<std::size_t>(me)] = now_us();
    Team half = world.split(me % 2, -me);
    returned[static_cast<std::size_t>(me)] = now_us();
    compute(0.25 * ((me * 3) % 8));
    Team quarter = half.split(half.rank() / 2, half.rank());
    std::ostringstream os;
    os << "image " << me << ": half " << half.id() << "/" << half.rank()
       << "/" << half.size() << " at " << returned[static_cast<std::size_t>(me)]
       << ", quarter " << quarter.id() << "/" << quarter.rank() << "/"
       << quarter.size() << " at " << now_us();
    lines[static_cast<std::size_t>(me)] = os.str();
  });
  // Every member returns the split cost after the last contribution: two
  // traversals of a 3-level tree at (latency + handler cost) each.
  const double last = *std::max_element(contributed.begin(), contributed.end());
  for (const double t : returned) {
    EXPECT_DOUBLE_EQ(t, last + 6.0 * (4.0 + 0.1)) << "shards=" << shards;
  }
  std::ostringstream os;
  for (const std::string& line : lines) {
    os << line << "\n";
  }
  os << "events " << stats.events << " end " << stats.virtual_us << "\n";
  return os.str();
}

TEST(Shards, NestedSplitHasOneOutcomeAtEveryShardCount) {
  const std::string reference = nested_split_outcome(1);
  for (const int shards : {1, 2, 4}) {
    for (int repeat = 0; repeat < 50; ++repeat) {
      ASSERT_EQ(nested_split_outcome(shards), reference)
          << "shards=" << shards << " repeat " << repeat;
    }
  }
}

/// --- the end of a run -------------------------------------------------------

TEST(ShardsFinished, FinishedShardKeepsDispatching) {
  // Image 1 returns at once, so its shard has no image left to run when
  // image 0's message lands there. That shard must still deliver it, or the
  // ack image 0 blocks on never comes and the window can never pass the
  // undelivered message (a livelock with no event dispatched). Registered
  // as its own ctest entry with a short TIMEOUT.
  NetworkParams params;
  params.latency_us = 2.0;
  params.ack_latency_us = 2.0;
  params.bandwidth_bytes_per_us = 2000.0;  // 8 bytes inject in 0.004 us
  params.handler_cost_us = 0.0;
  params.jitter_us = 0.0;
  for (const int shards : {1, 2}) {
    sim::EngineOptions options;
    options.shards = shards;
    options.lookahead_us = params.latency_us;
    sim::Engine engine(2, options);
    ASSERT_EQ(engine.shard_count(), shards);
    net::Network network(engine, params, 1);
    bool acked = false;
    engine.run([&](int id) {
      if (id != 0) {
        return;
      }
      sim::Engine& e = sim::this_engine();
      net::Message message;
      message.header.source = 0;
      message.header.dest = 1;
      message.payload.assign(8, 1);
      net::SendCallbacks callbacks;
      callbacks.on_acked = [&] {
        acked = true;
        e.unblock(0);
      };
      network.send(std::move(message), std::move(callbacks));
      while (!acked) {
        e.block("waiting for the ack");
      }
    });
    // Two start wakes, the delivery, the ack and image 0's wake.
    EXPECT_EQ(engine.event_count(), 5u) << "shards=" << shards;
    EXPECT_DOUBLE_EQ(engine.now(), 4.004) << "shards=" << shards;
    EXPECT_EQ(network.mailbox(1).size(), 1u) << "shards=" << shards;
  }
}

/// --- the remaining fallback to the serial engine ----------------------------

TEST(Shards, InstantNetworkFallsBackToSerial) {
  // Zero wire latency gives the conservative engine no lookahead window to
  // run ahead in; the runtime falls back to one shard.
  RuntimeOptions options = shard_options(4, 4, 3);
  options.net.latency_us = 0.0;
  options.net.jitter_us = 0.0;
  const RunStats stats = run_stats(options, mixed_workload);
  EXPECT_EQ(stats.shards, 1);
}

TEST(Shards, ShardCountClampsToImages) {
  const RunStats stats = run_stats(shard_options(2, 16, 13), mixed_workload);
  EXPECT_EQ(stats.shards, 2);
}

}  // namespace
