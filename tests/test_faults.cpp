/// Tests for the fault-injection + reliable-delivery layer (DESIGN.md §4.7,
/// §4.12): NetworkParams validation, scripted faults, dedup of duplicated
/// deliveries, retransmission after loss (including across shard
/// boundaries), the retry-cap FatalError with its watchdog report, the
/// quiet-period watchdog, structured deadlock reports, image-rank tagging of
/// escaped exceptions, the L+1 detection bound under loss, and the memory of
/// sparse per-link protocol state at 4096 images.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/caf2.hpp"
#include "kernels/uts_scheduler.hpp"
#include "net/network.hpp"
#include "sim/participant.hpp"

namespace {

using namespace caf2;
using namespace caf2::net;

NetworkParams wire_params() {
  NetworkParams params;
  params.latency_us = 10.0;
  params.bandwidth_bytes_per_us = 100.0;
  params.handler_cost_us = 0.0;
  params.ack_latency_us = 10.0;
  params.jitter_us = 0.0;
  return params;
}

/// A scripted fault on a message no test sends: it switches the reliable
/// protocol on without injecting anything.
ScriptedFault never_fires() {
  return {.source = 0, .dest = 0, .nth = ~std::uint64_t{0}};
}

/// --- NetworkParams validation ------------------------------------------------

TEST(FaultConfig, InvalidParamsRejectedAtConstruction) {
  sim::Engine engine(2);
  {
    NetworkParams p = wire_params();
    p.bandwidth_bytes_per_us = 0.0;
    EXPECT_THROW(Network(engine, p, 1), UsageError);
  }
  {
    NetworkParams p = wire_params();
    p.bandwidth_bytes_per_us = -3.0;
    EXPECT_THROW(Network(engine, p, 1), UsageError);
  }
  {
    NetworkParams p = wire_params();
    p.latency_us = -1.0;
    EXPECT_THROW(Network(engine, p, 1), UsageError);
  }
  {
    NetworkParams p = wire_params();
    p.jitter_us = -0.5;
    EXPECT_THROW(Network(engine, p, 1), UsageError);
  }
  {
    NetworkParams p = wire_params();
    p.faults.all.drop_probability = 1.5;
    EXPECT_THROW(Network(engine, p, 1), UsageError);
  }
  {
    NetworkParams p = wire_params();
    p.faults.all.dup_probability = -0.1;
    EXPECT_THROW(Network(engine, p, 1), UsageError);
  }
  {
    NetworkParams p = wire_params();
    p.reliability.max_attempts = 0;
    EXPECT_THROW(Network(engine, p, 1), UsageError);
  }
  {
    NetworkParams p = wire_params();
    p.reliability.backoff = 0.5;
    EXPECT_THROW(Network(engine, p, 1), UsageError);
  }
  {
    NetworkParams p = wire_params();
    p.faults.scripted.push_back({.source = 0, .dest = 1, .nth = 0});
    EXPECT_THROW(Network(engine, p, 1), UsageError);
  }
}

TEST(FaultConfig, ProtocolRunsExactlyWhenThePlanIsActive) {
  NetworkParams p = wire_params();
  EXPECT_FALSE(p.reliable_delivery());
  p.faults.scripted.push_back(never_fires());
  EXPECT_TRUE(p.reliable_delivery());
  p.faults.scripted.clear();
  p.faults.all.drop_probability = 0.05;
  EXPECT_TRUE(p.reliable_delivery());
}

/// --- network-level protocol behaviour ---------------------------------------

/// Two-image harness: image 0 sends \p count 4-byte messages to image 1,
/// which pops until it has seen \p expect_delivered of them.
struct WireResult {
  int delivered = 0;
  int staged = 0;
  int acked = 0;
  double last_delivery_us = 0.0;
  FaultStats stats;
};

WireResult wire_run(NetworkParams params, int count, int expect_delivered,
                    std::uint64_t seed = 1) {
  sim::Engine engine(2);
  Network network(engine, params, seed);
  WireResult result;
  engine.run([&](int id) {
    sim::Engine& e = sim::this_engine();
    if (id == 0) {
      for (int k = 0; k < count; ++k) {
        Message message;
        message.header.source = 0;
        message.header.dest = 1;
        message.header.handler = 7;
        message.payload.assign(4, static_cast<std::uint8_t>(k));
        SendCallbacks callbacks(kStaged | kAcked, [&](SendPoint point) {
          (point == kStaged ? result.staged : result.acked) += 1;
        });
        network.send(std::move(message), std::move(callbacks));
      }
      // Stay alive well past any retransmission/backoff chain so every ack
      // event gets dispatched before the run ends.
      e.advance(1'000'000.0);
    } else {
      while (result.delivered < expect_delivered) {
        if (network.mailbox(1).try_pop()) {
          result.delivered += 1;
          result.last_delivery_us = e.now();
        } else {
          e.block("waiting for deliveries");
        }
      }
    }
  });
  result.stats = network.fault_stats();
  EXPECT_EQ(network.inflight_reliable(), 0u)
      << "every flight must be acknowledged by the end of the run";
  return result;
}

TEST(ReliableDelivery, ScriptedDropIsRetransmittedExactlyOnce) {
  NetworkParams params = wire_params();
  params.faults.scripted.push_back(
      {.source = 0, .dest = 1, .nth = 1, .kind = FaultKind::kDrop});
  const WireResult r = wire_run(params, 1, 1);
  EXPECT_EQ(r.delivered, 1);
  EXPECT_EQ(r.staged, 1);
  EXPECT_EQ(r.acked, 1);
  EXPECT_EQ(r.stats.deliveries_dropped, 1u);
  EXPECT_EQ(r.stats.retransmits, 1u);
  EXPECT_EQ(r.stats.scripted_applied, 1u);
  // The retransmitted copy arrives one retransmit timeout later than the
  // bare wire would have delivered it.
  EXPECT_GT(r.last_delivery_us, 10.0);
}

TEST(ReliableDelivery, ScriptedDuplicateIsSuppressedAtReceiver) {
  NetworkParams params = wire_params();
  params.faults.scripted.push_back(
      {.source = 0, .dest = 1, .nth = 1, .kind = FaultKind::kDuplicate});
  const WireResult r = wire_run(params, 1, 1);
  EXPECT_EQ(r.delivered, 1);
  EXPECT_EQ(r.acked, 1) << "kAcked must be reported exactly once";
  EXPECT_EQ(r.stats.deliveries_duplicated, 1u);
  EXPECT_EQ(r.stats.duplicates_suppressed, 1u);
}

TEST(ReliableDelivery, ScriptedDelayHoldsTheMessageBack) {
  NetworkParams params = wire_params();
  params.faults.scripted.push_back({.source = 0,
                                    .dest = 1,
                                    .nth = 1,
                                    .kind = FaultKind::kDelay,
                                    .delay_us = 500.0});
  const WireResult r = wire_run(params, 1, 1);
  EXPECT_EQ(r.delivered, 1);
  EXPECT_EQ(r.stats.deliveries_delayed, 1u);
  // injection (4 B / 100 B/us) + latency + scripted delay
  EXPECT_DOUBLE_EQ(r.last_delivery_us, 0.04 + 10.0 + 500.0);
}

TEST(ReliableDelivery, RandomLossStormDeliversEverythingExactlyOnce) {
  NetworkParams params = wire_params();
  params.faults.all.drop_probability = 0.15;
  params.faults.all.dup_probability = 0.15;
  params.faults.all.ack_drop_probability = 0.15;
  params.faults.all.delay_probability = 0.2;
  params.faults.all.delay_max_us = 40.0;
  const int count = 60;
  const WireResult r = wire_run(params, count, count, /*seed=*/42);
  EXPECT_EQ(r.delivered, count);
  EXPECT_EQ(r.staged, count) << "kStaged is reported once per message";
  EXPECT_EQ(r.acked, count) << "kAcked is reported once per message";
  EXPECT_GT(r.stats.deliveries_dropped + r.stats.acks_dropped, 0u);
  EXPECT_GT(r.stats.retransmits, 0u);
  EXPECT_GT(r.stats.duplicates_suppressed, 0u);
}

TEST(ReliableDelivery, LostAckRecoveredByReack) {
  // Drop only acks: the message lands, its ack is lost, the retransmitted
  // copy is suppressed by dedup but re-acknowledged. Use a scripted-free
  // plan where only the first ack can be lost (probability draws are
  // deterministic for a fixed seed, so we assert on the counters instead of
  // a specific trajectory).
  NetworkParams params = wire_params();
  params.faults.all.ack_drop_probability = 0.4;
  const int count = 40;
  const WireResult r = wire_run(params, count, count, /*seed=*/7);
  EXPECT_EQ(r.delivered, count);
  EXPECT_EQ(r.acked, count);
  EXPECT_GT(r.stats.acks_dropped, 0u);
  EXPECT_GT(r.stats.duplicates_suppressed, 0u)
      << "recovering a lost ack requires a deduped redelivery";
}

TEST(ReliableDelivery, RetryCapRaisesDiagnosableError) {
  NetworkParams params = wire_params();
  // A black hole: every attempt of the first message is dropped.
  params.faults.scripted.push_back({.source = 0,
                                    .dest = 1,
                                    .nth = 1,
                                    .kind = FaultKind::kDrop,
                                    .attempt = 0});
  params.reliability.max_attempts = 3;
  params.reliability.rto_us = 50.0;
  sim::Engine engine(2);
  Network network(engine, params, 1);
  try {
    engine.run([&](int id) {
      sim::Engine& e = sim::this_engine();
      if (id == 0) {
        Message message;
        message.header.source = 0;
        message.header.dest = 1;
        message.header.handler = 9;
        message.payload.assign(4, 0);
        network.send(std::move(message));
      }
      e.block("waiting forever");
    });
    FAIL() << "retry-cap exhaustion must abort the run";
  } catch (const FatalError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("reliable delivery failed"), std::string::npos) << what;
    EXPECT_NE(what.find("0->1"), std::string::npos)
        << "report must name the undeliverable message: " << what;
    EXPECT_NE(what.find("3 attempts"), std::string::npos) << what;
    EXPECT_NE(what.find("participants:"), std::string::npos)
        << "report must include the per-participant section: " << what;
  }
  EXPECT_EQ(network.fault_stats().deliveries_dropped, 3u);
}

TEST(ReliableDelivery, StagedSendsSurviveLossToo) {
  NetworkParams params = wire_params();
  params.faults.scripted.push_back(
      {.source = 0, .dest = 1, .nth = 1, .kind = FaultKind::kDrop});
  sim::Engine engine(2);
  Network network(engine, params, 1);
  std::vector<std::uint8_t> received;
  int acked = 0;
  engine.run([&](int id) {
    sim::Engine& e = sim::this_engine();
    if (id == 0) {
      std::vector<std::uint8_t> buffer(100, 1);
      MessageHeader header;
      header.source = 0;
      header.dest = 1;
      SendCallbacks callbacks(kAcked, [&](SendPoint) { acked += 1; });
      network.send_staged(
          header, buffer.size(), [&buffer] { return buffer; },
          std::move(callbacks));
      buffer.assign(100, 2);  // overwritten before staging (1 us later)
      e.advance(500.0);
    } else {
      e.block("waiting for delivery");
      auto got = network.mailbox(1).try_pop();
      ASSERT_TRUE(got.has_value());
      received = got->payload;
    }
  });
  ASSERT_EQ(received.size(), 100u);
  // The retransmitted copy must carry the payload read at the *original*
  // staging point, not a re-read of the (overwritten) source buffer.
  EXPECT_EQ(received[0], 2);
  EXPECT_EQ(acked, 1);
  EXPECT_EQ(network.fault_stats().retransmits, 1u);
}

/// --- watchdog ----------------------------------------------------------------

TEST(Watchdog, QuietPeriodTripsWithStructuredReport) {
  // Explicit shard counts: the window cap at global_min + quiet must stop
  // every shard's clock short of the quiet gap so the barrier check fires.
  for (const int shards : {1, 2, 4}) {
    sim::EngineOptions options;
    options.watchdog_quiet_us = 1000.0;
    options.shards = shards;
    options.lookahead_us = 10.0;
    sim::Engine engine(4, options);
    ASSERT_EQ(engine.shard_count(), shards);
    try {
      engine.run([&](int id) {
        sim::Engine& e = sim::this_engine();
        if (id == 0) {
          // The only pending event is five virtual seconds away.
          e.post(5'000'000.0, [&e] { e.unblock(1); });
        } else {
          e.block("waiting for a far-future event");
        }
      });
      ADD_FAILURE() << "quiet-period watchdog must abort the run, shards="
                    << shards;
    } catch (const obs::StallError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
      EXPECT_NE(what.find("participants:"), std::string::npos) << what;
      EXPECT_NE(what.find("waiting for a far-future event"),
                std::string::npos)
          << what;
      ASSERT_NE(error.postmortem(), nullptr);
      EXPECT_EQ(error.postmortem()->kind, obs::FailKind::kQuietWatchdog)
          << "shards=" << shards;
      // The watchdog fires before the clock jumps across the quiet gap.
      EXPECT_LT(error.postmortem()->now_us, 1000.0) << "shards=" << shards;
    }
  }
}

TEST(Watchdog, DeadlockReportListsImageStateAndNetwork) {
  RuntimeOptions options;
  options.num_images = 2;
  options.net.latency_us = 1.0;
  try {
    run(options, [] {
      if (this_image() == 0) {
        Event never;
        never.wait();  // nobody will notify
      }
    });
    FAIL() << "deadlock must abort the run";
  } catch (const FatalError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("image "), std::string::npos) << what;
    EXPECT_NE(what.find("mailbox pending"), std::string::npos)
        << "runtime diagnostics section missing: " << what;
    EXPECT_NE(what.find("network: reliable delivery off"), std::string::npos)
        << "network diagnostics section missing: " << what;
  }
}

/// --- exception tagging -------------------------------------------------------

TEST(ExceptionPropagation, ImageExceptionTaggedWithRank) {
  RuntimeOptions options;
  options.num_images = 4;
  try {
    run(options, [] {
      if (this_image() == 2) {
        throw std::runtime_error("boom in user code");
      }
    });
    FAIL() << "the image exception must propagate out of run()";
  } catch (const FatalError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("image 2"), std::string::npos) << what;
    EXPECT_NE(what.find("boom in user code"), std::string::npos) << what;
  }
}

TEST(ExceptionPropagation, UsageErrorKeepsItsTypeAndGainsRank) {
  RuntimeOptions options;
  options.num_images = 2;
  try {
    run(options, [] {
      if (this_image() == 1) {
        throw UsageError("bad call");
      }
    });
    FAIL() << "the usage error must propagate out of run()";
  } catch (const UsageError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("image 1"), std::string::npos) << what;
    EXPECT_NE(what.find("bad call"), std::string::npos) << what;
  } catch (const FatalError&) {
    FAIL() << "UsageError must not be re-classified as FatalError";
  }
}

/// --- full-stack behaviour under loss -----------------------------------------

RuntimeOptions faulty_options(int images, double drop) {
  RuntimeOptions options;
  options.num_images = images;
  options.net.latency_us = 3.0;
  options.net.bandwidth_bytes_per_us = 500.0;
  options.net.handler_cost_us = 0.1;
  options.net.jitter_us = 1.0;  // non-FIFO channels
  options.net.faults.all.drop_probability = drop;
  options.net.faults.all.dup_probability = drop / 2;
  options.net.faults.all.ack_drop_probability = drop / 2;
  options.net.faults.all.delay_probability = drop;
  options.net.faults.all.delay_max_us = 10.0;
  options.max_events = 20'000'000;
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

TEST(FaultyRun, FinishRoundsStayWithinTheoremBoundUnderTenPercentDrop) {
  // Paper Theorem 1: detection needs at most L+1 reduction waves. Loss and
  // retransmission delay deliveries but must not inflate the bound, because
  // each image still waits for local quiescence before contributing.
  const int depth = 6;
  run(faulty_options(4, 0.10), [depth] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      if (this_image() == 0) {
        spawn<chain>(1, depth, counter.ref());
      }
    });
    const long total = allreduce<long>(world, counter[0], RedOp::kSum);
    EXPECT_EQ(total, depth + 1);
    EXPECT_LE(last_finish_report().rounds, depth + 2);
    team_barrier(world);
  });
}

TEST(FaultyRun, SpawnFanoutCountsEachHandlerExactlyOnce) {
  // Duplicate deliveries must not double-run AM handlers or double-count the
  // finish epoch counters; drop + retransmit must count the spawn exactly
  // once. With dup probability 1.0 every single delivery is duplicated.
  RuntimeOptions options = faulty_options(4, 0.0);
  options.net.faults.all.dup_probability = 1.0;
  const RunStats stats = run_stats(options, [] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      for (int target = 0; target < world.size(); ++target) {
        spawn<bump>(target, counter.ref());
      }
    });
    EXPECT_EQ(counter[0], world.size());
    team_barrier(world);
  });
  EXPECT_GT(stats.faults.deliveries_duplicated, 0u);
  EXPECT_EQ(stats.faults.duplicates_suppressed,
            stats.faults.deliveries_duplicated);
}

TEST(FaultyRun, CollectivesSurviveDrop) {
  for (int images : {2, 4, 7}) {
    run(faulty_options(images, 0.10), [images] {
      Team world = team_world();
      const long mine = (this_image() + 1) * 10;
      const long total = allreduce<long>(world, mine, RedOp::kSum);
      long expect = 0;
      for (int i = 0; i < images; ++i) {
        expect += (i + 1) * 10;
      }
      EXPECT_EQ(total, expect);
      team_barrier(world);
    });
  }
}

TEST(FaultyRun, UtsCountsTheSameTreeUnderDrop) {
  kernels::UtsTree tree;
  tree.b0 = 3.0;
  tree.max_depth = 6;
  const std::uint64_t expected = tree.count_subtree(tree.root());
  run(faulty_options(4, 0.10), [&] {
    kernels::UtsConfig config;
    config.tree = tree;
    config.node_cost_us = 0.05;
    const kernels::UtsStats stats = kernels::uts_run(team_world(), config);
    EXPECT_EQ(stats.total_nodes, expected);
  });
}

TEST(FaultyRun, BlackHoleLinkProducesWatchdogReportThroughRuntime) {
  RuntimeOptions options = faulty_options(2, 0.0);
  options.net.faults.all.drop_probability = 1.0;  // every delivery lost
  options.net.reliability.max_attempts = 3;
  options.net.reliability.rto_us = 100.0;
  try {
    run(options, [] {
      Team world = team_world();
      Coarray<long> counter(world, 1);
      counter[0] = 0;
      finish(world, [&] {
        if (this_image() == 0) {
          spawn<bump>(1, counter.ref());
        }
      });
    });
    FAIL() << "an unreachable destination must abort the run";
  } catch (const FatalError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("reliable delivery failed"), std::string::npos)
        << what;
    EXPECT_NE(what.find("attempts"), std::string::npos) << what;
  }
}

TEST(FaultyRun, CrossShardScriptedDropRetransmitsAndCancelsTimer) {
  // Two images on two shards: the dropped cross-shard delivery is
  // retransmitted from its source shard, the (sender-simulated) ack of the
  // retransmitted copy erases the flight, and the rearmed retransmit timer
  // must then find it gone — exactly one retransmit, no retry-cap error,
  // nothing left in flight.
  RuntimeOptions options = faulty_options(2, 0.0);
  options.shards = 2;
  options.net.jitter_us = 0.0;
  options.net.faults.scripted.push_back(
      {.source = 0, .dest = 1, .nth = 1, .kind = FaultKind::kDrop});
  const RunStats stats = run_stats(options, [] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      if (this_image() == 0) {
        spawn<bump>(1, counter.ref());
      }
    });
    const long total = allreduce<long>(world, counter[0], RedOp::kSum);
    EXPECT_EQ(total, 1);
    team_barrier(world);
  });
  EXPECT_EQ(stats.shards, 2);
  EXPECT_EQ(stats.faults.deliveries_dropped, 1u);
  EXPECT_EQ(stats.faults.retransmits, 1u);
  EXPECT_EQ(stats.faults.scripted_applied, 1u);
  EXPECT_EQ(stats.faults.duplicates_suppressed, 0u);
}

TEST(FaultyRun, ShardedLossyRunsAreDeterministicAcrossRepeats) {
  // The full fault surface (drop, dup, ack loss, delay) under four shards:
  // identical stats on every repeat.
  RuntimeOptions options = faulty_options(8, 0.10);
  options.shards = 4;
  auto body = [] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      for (int target = 0; target < world.size(); ++target) {
        spawn<bump>(target, counter.ref());
      }
    });
    EXPECT_EQ(counter[0], world.size());
    team_barrier(world);
  };
  const RunStats a = run_stats(options, body);
  const RunStats b = run_stats(options, body);
  EXPECT_EQ(a.shards, 4);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.virtual_us, b.virtual_us);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_EQ(a.faults.deliveries_dropped, b.faults.deliveries_dropped);
  EXPECT_EQ(a.faults.retransmits, b.faults.retransmits);
  EXPECT_EQ(a.faults.duplicates_suppressed, b.faults.duplicates_suppressed);
  EXPECT_EQ(a.faults.acks_dropped, b.faults.acks_dropped);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CAF2_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CAF2_TEST_SANITIZED 1
#endif
#endif

#if defined(CAF2_TEST_SANITIZED)
// Sanitizer shadow memory swamps the RSS bound, so sanitized builds check
// only the protocol (races included) on a ring small enough to leave the
// other suites their time.
constexpr int kRingImages = 512;
#else
constexpr int kRingImages = 4096;
#endif

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

TEST(FaultyRunScale, RingAt4096ImagesKeepsLinkStateSparse) {
  // Reliable-protocol link state is created per link on first use, in the
  // owning image's cell, so a 4096-image ring under loss pays for the links
  // it touches instead of a dense 4096 x 4096 table (72 B a link, 1.2 GB).
  // ctest runs this case as its own process, so the peak-RSS growth below is
  // this run's alone.
  constexpr double kBudgetMib = 512.0;
  const double before = peak_rss_mib();
  RuntimeOptions options = faulty_options(kRingImages, 0.01);
  options.shards = 2;
  const RunStats stats = run_stats(options, [] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    finish(world, [&] {
      spawn<bump>((this_image() + 1) % num_images(), counter.ref());
    });
    EXPECT_EQ(counter[0], 1);
    team_barrier(world);
  });
  const double growth = peak_rss_mib() - before;
  EXPECT_EQ(stats.shards, 2);
  EXPECT_GT(stats.faults.deliveries_dropped, 0u);
  EXPECT_GT(stats.faults.retransmits, 0u);
#if defined(CAF2_TEST_SANITIZED)
  GTEST_SKIP() << "RSS bound not checked under sanitizers (growth " << growth
               << " MiB at " << kRingImages << " images)";
#else
  EXPECT_LT(growth, kBudgetMib) << "peak RSS grew " << growth << " MiB";
#endif
}

TEST(FaultyRun, FaultFreeReliableRunMatchesResultsOfBareNetwork) {
  // The protocol without faults must still compute identical virtual-time
  // results (it adds events but not semantics): every image leaves the
  // finish block at the same virtual time and sees the same counter.
  constexpr int kImages = 4;
  struct Results {
    std::vector<double> finish_exit_us = std::vector<double>(kImages, -1.0);
    std::vector<long> counter = std::vector<long>(kImages, -1);
  };
  const auto measure = [](const RuntimeOptions& options, Results& results) {
    return run_stats(options, [&results] {
      Team world = team_world();
      Coarray<long> counter(world, 1);
      counter[0] = 0;
      team_barrier(world);
      finish(world, [&] {
        for (int target = 0; target < world.size(); ++target) {
          spawn<bump>(target, counter.ref());
        }
      });
      const auto me = static_cast<std::size_t>(this_image());
      results.finish_exit_us[me] = sim::this_engine().now();
      results.counter[me] = counter[0];
      team_barrier(world);
    });
  };
  RuntimeOptions bare = faulty_options(kImages, 0.0);
  RuntimeOptions reliable = faulty_options(kImages, 0.0);
  reliable.net.faults.scripted.push_back(never_fires());
  Results bare_results;
  Results reliable_results;
  const RunStats bare_stats = measure(bare, bare_results);
  const RunStats reliable_stats = measure(reliable, reliable_results);
  EXPECT_EQ(bare_stats.faults.retransmits, 0u);
  EXPECT_EQ(reliable_stats.faults.retransmits, 0u);
  EXPECT_EQ(bare_results.counter, std::vector<long>(kImages, kImages));
  EXPECT_EQ(reliable_results.counter, bare_results.counter);
  for (int image = 0; image < kImages; ++image) {
    const auto i = static_cast<std::size_t>(image);
    EXPECT_GT(bare_results.finish_exit_us[i], 0.0) << "image " << image;
    EXPECT_EQ(reliable_results.finish_exit_us[i],
              bare_results.finish_exit_us[i])
        << "image " << image << " leaves the finish block at another time";
  }
  EXPECT_GT(reliable_stats.events, bare_stats.events)
      << "the protocol's ack events should be visible in the event count";
}

}  // namespace
