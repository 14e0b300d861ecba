/// Tests for the caf2::obs subsystem (DESIGN.md §4.9): span recording,
/// metrics, exporters, and the critical-path blame analyzer.
///
/// The load-bearing properties:
///  - enabling obs does not perturb the run (same events, same virtual time,
///    same context switches — recording only appends to buffers);
///  - captures are deterministic: byte-identical text exports across
///    repeated runs, with and without injected faults;
///  - blame attribution matches the paper's cost model: cofence < events <
///    finish at the producer of the Fig. 12 micro-benchmark, and time added
///    by retransmissions lands in the network bucket, not finish-wait;
///  - memory caps (span tracks and the engine trace) drop instead of grow.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/caf2.hpp"
#include "net/network.hpp"
#include "obs/blame.hpp"
#include "obs/export.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/participant.hpp"

namespace {

using namespace caf2;

RuntimeOptions obs_options(int images) {
  RuntimeOptions options;
  options.num_images = images;
  options.net = NetworkParams::gemini_like();
  options.obs.enabled = true;
  // Obs capture runs sharded too (tests/test_shards.cpp covers that); here we
  // pin shards=1 so the serial-trace expectations below stay stable even when
  // CAF2_SIM_SHARDS is set in the environment (explicit beats env).
  options.shards = 1;
  return options;
}

/// A workload touching every span source: barrier, finish, puts, cofence,
/// an explicit event, a spawn, and modeled compute.
void noop_fn() {}

void mixed_workload() {
  Team world = team_world();
  Coarray<double> data(world, 64);
  team_barrier(world);
  finish(world, [&] {
    if (world.rank() == 0) {
      std::vector<double> src(64, 1.5);
      for (int t = 1; t < world.size(); ++t) {
        copy_async(data(t), std::span<const double>(src));
      }
      cofence();
      Event delivered;
      copy_async(data(world.size() - 1), std::span<const double>(src),
                 {.dst_done = delivered.handle()});
      delivered.wait();
      spawn<noop_fn>(1 % world.size());
    }
  });
  compute(3.0);
  team_barrier(world);
}

/// --- non-perturbation --------------------------------------------------------

TEST(Obs, EnablingObsDoesNotPerturbTheRun) {
  RuntimeOptions off = obs_options(4);
  off.obs.enabled = false;
  const RunStats without = run_stats(off, mixed_workload);
  const RunStats with = run_stats(obs_options(4), mixed_workload);

  EXPECT_EQ(without.obs, nullptr);  // disabled = no capture, no recorder
  ASSERT_NE(with.obs, nullptr);

  // The deterministic RunStats fields must be bit-identical: recording
  // appends to buffers and never schedules events.
  EXPECT_EQ(without.events, with.events);
  EXPECT_EQ(without.virtual_us, with.virtual_us);
  EXPECT_EQ(without.context_switches, with.context_switches);
}

/// --- capture shape -----------------------------------------------------------

TEST(Obs, CaptureTilesTimelinesAndLinksFlights) {
  const RunStats stats = run_stats(obs_options(4), mixed_workload);
  ASSERT_NE(stats.obs, nullptr);
  const obs::Capture& capture = *stats.obs;

  ASSERT_EQ(capture.images, 4);
  ASSERT_EQ(capture.tracks.size(), 5u);  // 4 images + network
  EXPECT_EQ(capture.end_us, stats.virtual_us);

  // kCompute/kBlocked tile each image's timeline: in order, non-overlapping.
  for (int image = 0; image < capture.images; ++image) {
    double cursor = 0.0;
    bool saw_timeline_span = false;
    for (const obs::Span& span : capture.image_track(image).spans) {
      if (span.kind != obs::SpanKind::kCompute &&
          span.kind != obs::SpanKind::kBlocked) {
        continue;
      }
      saw_timeline_span = true;
      EXPECT_GE(span.begin, cursor - 1e-9);
      EXPECT_GE(span.end, span.begin);
      cursor = span.end;
    }
    EXPECT_TRUE(saw_timeline_span) << "image " << image;
  }

  // The network track carries the flights, and at least one blocked span is
  // parented to a flight (the wait it unblocked) — the DAG edge the blame
  // analyzer and critical path walk.
  ASSERT_FALSE(capture.net_track().spans.empty());
  std::vector<std::uint64_t> flight_ids;
  for (const obs::Span& span : capture.net_track().spans) {
    EXPECT_EQ(span.kind, obs::SpanKind::kFlight);
    flight_ids.push_back(span.id);
  }
  bool linked = false;
  for (int image = 0; image < capture.images && !linked; ++image) {
    for (const obs::Span& span : capture.image_track(image).spans) {
      if (span.kind == obs::SpanKind::kBlocked && span.parent != 0) {
        linked = std::find(flight_ids.begin(), flight_ids.end(),
                           span.parent) != flight_ids.end();
        if (linked) {
          break;
        }
      }
    }
  }
  EXPECT_TRUE(linked);

  // Metrics caught the traffic.
  std::uint64_t sent = 0;
  std::uint64_t handlers = 0;
  std::uint64_t finishes = 0;
  for (const obs::Metrics& m : capture.metrics) {
    sent += m.counter(obs::Counter::kMessagesSent);
    handlers += m.counter(obs::Counter::kHandlersRun);
    finishes += m.counter(obs::Counter::kFinishScopes);
    EXPECT_GT(m.hist(obs::Hist::kBlockedTime).count, 0u);
  }
  EXPECT_GT(sent, 0u);
  EXPECT_GT(handlers, 0u);
  EXPECT_EQ(finishes, 4u);  // one finish scope per image
}

/// --- repeat determinism -----------------------------------------------------

TEST(Obs, RepeatedRunsRecordByteIdenticalCaptures) {
  const RunStats a = run_stats(obs_options(4), mixed_workload);
  const RunStats b = run_stats(obs_options(4), mixed_workload);
  ASSERT_NE(a.obs, nullptr);
  ASSERT_NE(b.obs, nullptr);
  EXPECT_EQ(obs::to_text(*a.obs), obs::to_text(*b.obs));

  const obs::BlameReport ra = obs::analyze_blame(*a.obs);
  const obs::BlameReport rb = obs::analyze_blame(*b.obs);
  EXPECT_EQ(obs::to_text(ra), obs::to_text(rb));
  EXPECT_EQ(ra.critical_path_us, rb.critical_path_us);
  EXPECT_EQ(ra.critical_path_hops, rb.critical_path_hops);
}

/// --- fault attribution -------------------------------------------------------

/// Wire parameters with a deterministic (jitter-free) reliable protocol.
NetworkParams reliable_wire() {
  NetworkParams params;
  params.latency_us = 10.0;
  params.bandwidth_bytes_per_us = 100.0;
  params.handler_cost_us = 0.0;
  params.ack_latency_us = 10.0;
  params.jitter_us = 0.0;
  params.reliability.mode = ReliabilityParams::Mode::kOn;
  return params;
}

/// Rank 0 spawns one tracked no-op to rank 1 inside a finish; both images
/// then sit in termination detection until it (and its ack) lands.
void spawn_in_finish() {
  Team world = team_world();
  finish(world, [&] {
    if (world.rank() == 0) {
      spawn<noop_fn>(1);
    }
  });
}

TEST(Obs, RetransmitDelayBlamedOnNetworkNotFinishWait) {
  // Two images: the dropped message delays exactly the two endpoints, and
  // both carry the retransmit interval that re-attribution subtracts. (With
  // more images, bystanders stall in detection waves transitively — time
  // that *is* finish-wait from their local point of view.)
  RuntimeOptions clean = obs_options(2);
  clean.net = reliable_wire();

  RuntimeOptions faulty = clean;
  // Drop the first delivery attempt of the first message on link 0 -> 1:
  // the spawn above. It is retransmitted one RTO (~2x round trip) later.
  faulty.net.faults.scripted.push_back(
      {.source = 0, .dest = 1, .nth = 1, .kind = FaultKind::kDrop});

  const RunStats clean_stats = run_stats(clean, spawn_in_finish);
  const RunStats faulty_stats = run_stats(faulty, spawn_in_finish);
  ASSERT_NE(clean_stats.obs, nullptr);
  ASSERT_NE(faulty_stats.obs, nullptr);
  ASSERT_EQ(faulty_stats.faults.deliveries_dropped, 1u);
  ASSERT_EQ(faulty_stats.faults.retransmits, 1u);

  const obs::BlameReport clean_report = obs::analyze_blame(*clean_stats.obs);
  const obs::BlameReport faulty_report =
      obs::analyze_blame(*faulty_stats.obs);

  // The images spent the retransmission delay parked inside finish's
  // detector, but that time is re-attributed to the network: the network
  // bucket absorbs (at least) the delay, and finish-wait stays put.
  EXPECT_GT(faulty_report.retransmit_us, 10.0);
  EXPECT_GT(faulty_report.total[obs::Blame::kNetwork],
            clean_report.total[obs::Blame::kNetwork] + 10.0);
  EXPECT_NEAR(faulty_report.total[obs::Blame::kFinishWait],
              clean_report.total[obs::Blame::kFinishWait], 5.0);

  // Retransmission counters made it into the metrics.
  std::uint64_t retransmits = 0;
  for (const obs::Metrics& m : faulty_stats.obs->metrics) {
    retransmits += m.counter(obs::Counter::kMessagesRetransmitted);
  }
  EXPECT_EQ(retransmits, 1u);
}

TEST(Obs, CrossShardAckLinksTheSendersWaitToTheFlight) {
  // Image 0 (shard 0) waits un-scoped on the ack of a send to image 1
  // (shard 1). The flight span lands on shard 1's net lane, yet the blocked
  // span the ack closes must name it as parent — the edge that moves the
  // wait from `other` to `network` in blame — with and without the
  // reliable-delivery protocol.
  for (const bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliable" : "bare");
    NetworkParams params = reliable_wire();
    if (!reliable) {
      params.reliability.mode = ReliabilityParams::Mode::kOff;
    }
    sim::EngineOptions engine_options;
    engine_options.shards = 2;
    engine_options.lookahead_us = params.latency_us;
    sim::Engine engine(2, engine_options);
    ASSERT_EQ(engine.shard_count(), 2);
    ASSERT_NE(engine.shard_of(0), engine.shard_of(1));
    net::Network network(engine, params, 1);
    ObsConfig config;
    config.enabled = true;
    obs::Recorder recorder(2, config, engine.shard_count());
    engine.set_observer(&recorder);
    network.set_observer(&recorder);

    double acked_at = -1.0;
    engine.run([&](int id) {
      sim::Engine& e = sim::this_engine();
      if (id != 0) {
        // Wait for the delivery.
        while (network.mailbox(1).empty()) {
          e.block("mail");
        }
        return;
      }
      bool acked = false;
      net::Message message;
      message.header.source = 0;
      message.header.dest = 1;
      message.payload.assign(64, 1);
      net::SendCallbacks callbacks;
      callbacks.on_acked = [&] {
        acked = true;
        acked_at = e.now();
        e.unblock(0);
      };
      network.send(std::move(message), std::move(callbacks));
      while (!acked) {
        e.block("ack");
      }
    });
    ASSERT_GT(acked_at, 0.0);
    const obs::Capture capture = recorder.take(engine.now());

    std::uint64_t flight = 0;
    for (const obs::Span& span : capture.net_track().spans) {
      if (span.kind == obs::SpanKind::kFlight && span.image == 0 &&
          span.peer == 1) {
        flight = span.id;
      }
    }
    ASSERT_NE(flight, 0u) << "no 0 -> 1 flight on the merged net track";

    const obs::Span* wait = nullptr;
    for (const obs::Span& span : capture.image_track(0).spans) {
      if (span.kind == obs::SpanKind::kBlocked && span.end == acked_at) {
        wait = &span;
      }
    }
    ASSERT_NE(wait, nullptr) << "no blocked span closes at the ack";
    EXPECT_EQ(wait->blame, obs::Blame::kOther);
    EXPECT_EQ(wait->parent, flight);

    const obs::BlameReport report = obs::analyze_blame(capture);
    EXPECT_DOUBLE_EQ(report.per_image[0][obs::Blame::kOther], 0.0);
    EXPECT_GT(report.per_image[0][obs::Blame::kNetwork], 0.0);
  }
}

TEST(Obs, FaultyCapturesRepeatByteIdentically) {
  RuntimeOptions options = obs_options(4);
  options.net = reliable_wire();
  options.net.faults.scripted.push_back(
      {.source = 0, .dest = 1, .nth = 1, .kind = FaultKind::kDrop});

  const RunStats a = run_stats(options, spawn_in_finish);
  const RunStats b = run_stats(options, spawn_in_finish);
  ASSERT_NE(a.obs, nullptr);
  ASSERT_NE(b.obs, nullptr);
  EXPECT_EQ(obs::to_text(*a.obs), obs::to_text(*b.obs));
  EXPECT_EQ(obs::to_text(obs::analyze_blame(*a.obs)),
            obs::to_text(obs::analyze_blame(*b.obs)));
}

/// --- the paper's cost ordering (Fig. 12 in miniature) ------------------------

enum class Mechanism { kCofence, kEvents, kFinish };

/// One producer iteration of the Fig. 11 micro-benchmark under the given
/// completion mechanism; returns the producer's wait time in that
/// mechanism's blame bucket.
double producer_wait(Mechanism mechanism, int images) {
  const RunStats stats = run_stats(obs_options(images), [&] {
    Team world = team_world();
    Coarray<std::uint8_t> inbuf(world, 80);
    std::vector<std::uint8_t> src(80, 0xAB);
    team_barrier(world);
    finish(world, [&] {
      if (mechanism == Mechanism::kFinish) {
        // Global completion per iteration: a collective inner finish (the
        // producer's wait is the detector, blamed kFinishWait).
        for (int iter = 0; iter < 10; ++iter) {
          finish(world, [&] {
            if (world.rank() == 0) {
              for (int c = 0; c < 5; ++c) {
                copy_async(inbuf((iter + c) % world.size()),
                           std::span<const std::uint8_t>(src));
              }
            }
          });
          if (world.rank() == 0) {
            compute(2.0);
          }
        }
        return;
      }
      if (world.rank() != 0) {
        return;
      }
      for (int iter = 0; iter < 10; ++iter) {
        if (mechanism == Mechanism::kCofence) {
          for (int c = 0; c < 5; ++c) {
            copy_async(inbuf((iter + c) % world.size()),
                       std::span<const std::uint8_t>(src));
          }
          cofence();
        } else {
          Event delivered;
          for (int c = 0; c < 5; ++c) {
            copy_async(inbuf((iter + c) % world.size()),
                       std::span<const std::uint8_t>(src),
                       {.dst_done = delivered.handle()});
          }
          delivered.wait_many(5);
        }
        compute(2.0);
      }
    });
    team_barrier(world);
  });
  const obs::BlameReport report = obs::analyze_blame(*stats.obs);
  switch (mechanism) {
    case Mechanism::kCofence:
      return report.per_image[0][obs::Blame::kCofenceWait];
    case Mechanism::kEvents:
      return report.per_image[0][obs::Blame::kEventWait];
    case Mechanism::kFinish:
      return report.per_image[0][obs::Blame::kFinishWait];
  }
  return 0.0;
}

TEST(Obs, BlameReproducesTheSyncSpectrumOrdering) {
  const double cofence_wait = producer_wait(Mechanism::kCofence, 8);
  const double event_wait = producer_wait(Mechanism::kEvents, 8);
  const double finish_wait = producer_wait(Mechanism::kFinish, 8);
  EXPECT_GT(cofence_wait, 0.0);
  EXPECT_LT(cofence_wait, event_wait);
  EXPECT_LT(event_wait, finish_wait);
}

/// --- exporters ---------------------------------------------------------------

TEST(Obs, ChromeTraceAndTextExportsAreWellFormed) {
  const RunStats stats = run_stats(obs_options(4), mixed_workload);
  ASSERT_NE(stats.obs, nullptr);

  const std::string json = obs::to_chrome_trace(*stats.obs);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"network\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  const std::size_t last = json.find_last_not_of(" \n");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(json[last], '}');

  const std::string text = obs::to_text(*stats.obs);
  EXPECT_NE(text.find("obs capture images=4"), std::string::npos);
  EXPECT_NE(text.find("finish_detect"), std::string::npos);
  EXPECT_NE(text.find("messages_sent"), std::string::npos);

  // Two identical runs export identical bytes.
  const RunStats again = run_stats(obs_options(4), mixed_workload);
  EXPECT_EQ(text, obs::to_text(*again.obs));
  EXPECT_EQ(json, obs::to_chrome_trace(*again.obs));
}

/// --- memory caps -------------------------------------------------------------

TEST(Obs, SpanCapDropsAndCounts) {
  RuntimeOptions options = obs_options(4);
  options.obs.max_image_track_bytes = 4 * sizeof(obs::Span);
  const RunStats stats = run_stats(options, mixed_workload);
  ASSERT_NE(stats.obs, nullptr);

  std::uint64_t dropped_total = 0;
  for (int image = 0; image < stats.obs->images; ++image) {
    const obs::Track& track = stats.obs->image_track(image);
    EXPECT_LE(track.spans.size(), 4u);
    dropped_total += track.dropped;
    EXPECT_EQ(track.dropped, stats.obs->metrics[static_cast<std::size_t>(
                                 image)]
                                 .counter(obs::Counter::kSpansDropped));
  }
  EXPECT_GT(dropped_total, 0u);
  EXPECT_NE(obs::to_text(*stats.obs).find("dropped="), std::string::npos);
}

TEST(Obs, EngineTraceCapBoundsTheDeterminismTrace) {
  sim::EngineOptions options;
  options.record_trace = true;
  options.max_trace_entries = 10;
  sim::Engine engine(4, options);
  engine.run([](int id) {
    sim::Engine& e = sim::this_engine();
    for (int i = 0; i < 50; ++i) {
      e.advance(0.1 * (id + 1));
    }
  });
  EXPECT_LE(engine.trace().size(), 10u);
  EXPECT_GT(engine.trace_dropped(), 0u);
}

}  // namespace
