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
#include <bit>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <random>
#include <span>
#include <sstream>
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
      if (span.kind == obs::SpanKind::kBlocked && span.parent() != 0) {
        linked = std::find(flight_ids.begin(), flight_ids.end(),
                           span.parent()) != flight_ids.end();
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

/// Wire parameters with a deterministic (jitter-free) reliable protocol: the
/// scripted fault names a message no test sends, so it switches the
/// protocol on without injecting anything.
NetworkParams reliable_wire() {
  NetworkParams params;
  params.latency_us = 10.0;
  params.bandwidth_bytes_per_us = 100.0;
  params.handler_cost_us = 0.0;
  params.ack_latency_us = 10.0;
  params.jitter_us = 0.0;
  params.faults.scripted.push_back(
      {.source = 0, .dest = 0, .nth = ~std::uint64_t{0}});
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
  // (shard 1). Image 1 records the flight span on its shard's lane, yet the
  // blocked span the ack closes must name it as parent — the edge that moves
  // the wait from `other` to `network` in blame — with and without the
  // reliable-delivery protocol.
  for (const bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliable" : "bare");
    NetworkParams params = reliable_wire();
    if (!reliable) {
      params.faults.scripted.clear();
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
    obs::Recorder recorder(2, config, {engine.shard_of(0), engine.shard_of(1)});
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

    std::optional<obs::Span> wait;
    for (const obs::Span& span : capture.image_track(0).spans) {
      if (span.kind == obs::SpanKind::kBlocked && span.end == acked_at) {
        wait = span;
      }
    }
    ASSERT_TRUE(wait.has_value()) << "no blocked span closes at the ack";
    EXPECT_EQ(wait->blame, obs::Blame::kOther);
    EXPECT_EQ(wait->parent(), flight);

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

/// --- span layout and label pool ----------------------------------------------

TEST(ObsSpan, ParentAndPayloadShareOneSlot) {
  obs::Span blocked;
  blocked.kind = obs::SpanKind::kBlocked;
  blocked.set_parent(7);
  EXPECT_EQ(blocked.parent(), 7u);
  EXPECT_EQ(blocked.a(), 0u);
  EXPECT_THROW(blocked.set_a(1), FatalError);

  obs::Span put;
  put.kind = obs::SpanKind::kPut;
  put.set_a(512);
  EXPECT_EQ(put.a(), 512u);
  EXPECT_EQ(put.parent(), 0u);
  EXPECT_THROW(put.set_parent(1), FatalError);

  // The second payload is 32 bits wide; the recorder refuses wider values.
  obs::Recorder recorder(1, ObsConfig{});
  EXPECT_THROW(recorder.op_span(0, obs::SpanKind::kCollective, 0.0, 1.0, 0,
                                std::uint64_t{1} << 32),
               FatalError);
  // A stored span keeps one word for `b` or `peer`, chosen by its kind, so
  // a span carrying both is refused whichever its kind.
  EXPECT_THROW(recorder.op_span(0, obs::SpanKind::kPut, 0.0, 1.0, 8, 1, 0),
               FatalError);
  EXPECT_THROW(
      recorder.op_span(0, obs::SpanKind::kCollective, 0.0, 1.0, 0, 4, 0),
      FatalError);
  recorder.op_span(0, obs::SpanKind::kPut, 0.0, 1.0, 8, 0, 0);
  recorder.op_span(0, obs::SpanKind::kCollective, 0.0, 1.0, 0, 4);
  const obs::Capture capture = recorder.take(1.0);
  ASSERT_EQ(capture.image_track(0).spans.size(), 2u);
  EXPECT_EQ(capture.image_track(0).spans[0].peer, 0);
  EXPECT_EQ(capture.image_track(0).spans[0].b, 0u);
  EXPECT_EQ(capture.image_track(0).spans[1].peer, -1);
  EXPECT_EQ(capture.image_track(0).spans[1].b, 4u);
}

TEST(ObsSpan, SnapshotThenTakeExportTheSameCapture) {
  // Three images on two network lanes; image 0 records more than one block
  // of spans, and the lanes hold flights and retransmit delays out of order.
  obs::Recorder recorder(3, ObsConfig{}, {0, 1, 1});
  const char* reason = "snapshot-test";
  for (int i = 0; i < 600; ++i) {
    const double t = 2.0 * i;
    recorder.on_compute(0, t, t + 1.0);
    recorder.on_block_begin(0, t + 1.0, reason);
    recorder.note_cause(0, recorder.reserve_flight_id(1));
    recorder.on_block_end(0, t + 2.0);
  }
  for (int i = 0; i < 40; ++i) {
    const int source = 1 + i % 2;
    const std::uint64_t id = recorder.reserve_flight_id(source);
    recorder.flight_span(id, source, i % 3, 100.0 - i, 120.0, 64);
    recorder.retransmit_span(i % 3, source, 50.0 - i, 60.0);
    recorder.op_span(source, obs::SpanKind::kSpawn, 100.0 - i, 130.0, 64, 0,
                     0);
  }
  const obs::Capture snapshot = recorder.snapshot(1200.0);
  const obs::Capture taken = recorder.take(1200.0);
  EXPECT_EQ(snapshot.image_track(0).spans.size(), 1200u);
  EXPECT_EQ(taken.net_track().spans.size(), 80u);
  EXPECT_EQ(obs::to_text(snapshot), obs::to_text(taken));
  // take() moved everything out: a second take is empty.
  const obs::Capture empty = recorder.take(1200.0);
  EXPECT_TRUE(empty.image_track(0).spans.empty());
  EXPECT_TRUE(empty.net_track().spans.empty());
}

TEST(ObsSpan, LabelIdsRoundTripByText) {
  const std::string text = "label-pool-round-trip";
  const std::uint16_t id = obs::intern_label_id(text.c_str());
  EXPECT_NE(id, 0);
  const std::string copy = text;  // another address, the same label
  EXPECT_EQ(obs::intern_label_id(copy.c_str()), id);
  EXPECT_STREQ(obs::label_text(id), text.c_str());
  EXPECT_EQ(obs::label_text(id), obs::intern_label(text));
  EXPECT_EQ(obs::intern_label_id(nullptr), 0);
  EXPECT_EQ(obs::label_text(0), nullptr);
}

TEST(ObsSpanDeathTest, MoreThan65535LabelsIsAUsageError) {
  // Filling the process-global pool would starve later tests, so the child
  // of a death test does it.
  EXPECT_EXIT(
      {
        try {
          for (int i = 0; i < 70000; ++i) {
            obs::intern_label("overflow-" + std::to_string(i));
          }
        } catch (const UsageError&) {
          std::_Exit(3);
        }
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(3), "");
}

/// --- blame oracle ------------------------------------------------------------

/// Brute-force restatement of analyze_blame's definition, O(N^2): every
/// timeline span (kCompute/kBlocked) and flight becomes a node, visited in
/// (end, flights first, then image and track order / net-track order); a
/// flight chains from the first-best earlier-visited source-image span
/// ending at or before its initiation, a timeline span from the previous
/// span on its image and, if longer, from the latest visited flight its
/// parent names.
obs::BlameReport oracle_blame(const obs::Capture& capture) {
  obs::BlameReport report;
  report.per_image.resize(static_cast<std::size_t>(capture.images));
  for (int image = 0; image < capture.images; ++image) {
    std::vector<std::pair<double, double>> delays;
    for (const obs::Span& span : capture.net_track().spans) {
      if (span.kind == obs::SpanKind::kRetransmitDelay &&
          span.image == image && span.end > span.begin) {
        delays.emplace_back(span.begin, span.end);
      }
    }
    std::sort(delays.begin(), delays.end());
    std::vector<std::pair<double, double>> merged;
    for (const auto& d : delays) {
      if (!merged.empty() && d.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, d.second);
      } else {
        merged.push_back(d);
      }
    }
    obs::BlameBreakdown& row = report.per_image[static_cast<std::size_t>(image)];
    for (const obs::Span& span : capture.image_track(image).spans) {
      const double dur = span.end - span.begin;
      if (span.kind == obs::SpanKind::kCompute) {
        row[obs::Blame::kCompute] += dur;
      } else if (span.kind == obs::SpanKind::kBlocked) {
        obs::Blame bucket = span.blame;
        if (bucket == obs::Blame::kOther && span.parent() != 0) {
          bucket = obs::Blame::kNetwork;
        }
        double delayed = 0.0;
        for (const auto& d : merged) {
          if (d.first >= span.end) {
            break;
          }
          delayed += std::max(0.0, std::min(span.end, d.second) -
                                       std::max(span.begin, d.first));
        }
        double charged = dur;
        if (delayed > 0.0 && bucket != obs::Blame::kNetwork) {
          row[obs::Blame::kNetwork] += delayed;
          report.retransmit_us += delayed;
          charged -= delayed;
        }
        row[bucket] += charged;
      } else if (span.kind == obs::SpanKind::kFinishDetect) {
        report.finish_rounds_max = std::max(report.finish_rounds_max, span.a());
      }
    }
  }
  for (const obs::BlameBreakdown& row : report.per_image) {
    for (std::size_t b = 0; b < obs::kBlameBuckets; ++b) {
      report.total.us[b] += row.us[b];
    }
  }

  struct Node {
    obs::Span span;
    int image;        // owning image (timeline) or -1 (flight)
    std::size_t pos;  // track position
  };
  std::vector<Node> nodes;
  for (int image = 0; image < capture.images; ++image) {
    const auto& spans = capture.image_track(image).spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].kind == obs::SpanKind::kCompute ||
          spans[i].kind == obs::SpanKind::kBlocked) {
        nodes.push_back({spans[i], image, i});
      }
    }
  }
  const auto& net = capture.net_track().spans;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net[i].kind == obs::SpanKind::kFlight) {
      nodes.push_back({net[i], -1, i});
    }
  }
  std::sort(nodes.begin(), nodes.end(), [](const Node& x, const Node& y) {
    if (x.span.end != y.span.end) {
      return x.span.end < y.span.end;
    }
    if ((x.image < 0) != (y.image < 0)) {
      return x.image < 0;
    }
    return std::pair(x.image, x.pos) < std::pair(y.image, y.pos);
  });

  struct Chain {
    double us = 0.0;
    std::uint64_t hops = 0;
  };
  std::vector<Chain> chain(nodes.size());
  Chain best;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const obs::Span& span = nodes[i].span;
    const double dur = span.end - span.begin;
    if (nodes[i].image < 0) {
      const Chain* pred = nullptr;
      for (std::size_t j = 0; j < i; ++j) {
        if (nodes[j].image == span.image && nodes[j].span.end <= span.begin &&
            (pred == nullptr || chain[j].us > pred->us)) {
          pred = &chain[j];
        }
      }
      chain[i] = {dur, 1};
      if (pred != nullptr) {
        chain[i].us += pred->us;
        chain[i].hops += pred->hops;
      }
      continue;
    }
    Chain pred;
    for (std::size_t j = 0; j < i; ++j) {
      if (nodes[j].image == nodes[i].image) {
        pred = chain[j];
      }
    }
    if (span.parent() != 0) {
      const Chain* cause = nullptr;
      for (std::size_t j = 0; j < i; ++j) {
        if (nodes[j].image < 0 && nodes[j].span.id == span.parent()) {
          cause = &chain[j];
        }
      }
      if (cause != nullptr && cause->us > pred.us) {
        pred = *cause;
      }
    }
    chain[i] = {pred.us + dur, pred.hops + 1};
    if (chain[i].us > best.us) {
      best = chain[i];
      report.critical_path_image = nodes[i].image;
    }
  }
  report.critical_path_us = best.us;
  report.critical_path_hops = best.hops;
  return report;
}

void expect_bits(double actual, double expected, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << ": " << actual << " vs oracle " << expected;
}

void expect_same_report(const obs::BlameReport& actual,
                        const obs::BlameReport& oracle) {
  ASSERT_EQ(actual.per_image.size(), oracle.per_image.size());
  for (std::size_t b = 0; b < obs::kBlameBuckets; ++b) {
    for (std::size_t i = 0; i < actual.per_image.size(); ++i) {
      expect_bits(actual.per_image[i].us[b], oracle.per_image[i].us[b],
                  "image " + std::to_string(i) + " bucket " +
                      std::to_string(b));
    }
    expect_bits(actual.total.us[b], oracle.total.us[b],
                "total bucket " + std::to_string(b));
  }
  expect_bits(actual.critical_path_us, oracle.critical_path_us,
              "critical_path_us");
  EXPECT_EQ(actual.critical_path_hops, oracle.critical_path_hops);
  EXPECT_EQ(actual.critical_path_image, oracle.critical_path_image);
  EXPECT_EQ(actual.finish_rounds_max, oracle.finish_rounds_max);
  expect_bits(actual.retransmit_us, oracle.retransmit_us, "retransmit_us");
}

/// Hand-built capture: images + 1 tracks, spans built as values by the
/// helpers and pushed. Image tracks are owned (ids implied by position);
/// network spans stay in `net` until finish() pushes them, so a test can
/// reorder them first.
struct CaptureBuilder {
  obs::Capture capture;
  std::vector<obs::Span> net;

  explicit CaptureBuilder(int images) {
    capture.images = images;
    for (int image = 0; image < images; ++image) {
      capture.tracks.emplace_back(image);
    }
    capture.tracks.emplace_back();
    capture.metrics.resize(static_cast<std::size_t>(images));
  }

  static obs::Span make(obs::SpanKind kind, int image, double begin,
                        double end) {
    obs::Span span;
    span.kind = kind;
    span.image = image;
    span.begin = begin;
    span.end = end;
    return span;
  }
  void push(int image, obs::Span span) {
    auto& spans = capture.tracks[static_cast<std::size_t>(image)].spans;
    span.id = (static_cast<std::uint64_t>(image) + 1) << 40 |
              (spans.size() + 1);
    spans.push_back(span);
  }
  void compute(int image, double begin, double end) {
    obs::Span span = make(obs::SpanKind::kCompute, image, begin, end);
    span.blame = obs::Blame::kCompute;
    push(image, span);
  }
  void blocked(int image, double begin, double end, std::uint64_t parent,
               obs::Blame blame = obs::Blame::kOther) {
    obs::Span span = make(obs::SpanKind::kBlocked, image, begin, end);
    span.blame = blame;
    span.set_parent(parent);
    push(image, span);
  }
  void op(int image, obs::SpanKind kind, double begin, double end,
          std::uint64_t a = 0) {
    obs::Span span = make(kind, image, begin, end);
    span.set_a(a);
    push(image, span);
  }
  void flight(std::uint64_t id, int source, int dest, double begin,
              double end) {
    obs::Span span = make(obs::SpanKind::kFlight, source, begin, end);
    span.id = id;
    span.peer = dest;
    span.set_a(8);
    net.push_back(span);
  }
  void retransmit(int image, double begin, double end) {
    obs::Span span = make(obs::SpanKind::kRetransmitDelay, image, begin, end);
    span.id = (static_cast<std::uint64_t>(capture.images) + 1) << 40 |
              (net.size() + 1);
    net.push_back(span);
  }
  /// Push the network spans into the network track; returns the capture.
  const obs::Capture& finish() {
    for (const obs::Span& span : net) {
      capture.tracks.back().spans.push_back(span);
    }
    net.clear();
    return capture;
  }
};

TEST(BlameOracle, HandBuiltTiesAndEdgesMatchTheOracle) {
  CaptureBuilder b(3);
  // Image 0 computes to 2, sends flight 100 at 2 (delivered at 4), computes
  // to 4, then sends flight 101 with initiation == delivery == 4: the span
  // ending at 4 is visited after the flight, so it is not a predecessor.
  b.compute(0, 0.0, 2.0);
  b.op(0, obs::SpanKind::kPut, 2.0, 6.0, 8);
  b.compute(0, 2.0, 4.0);
  b.flight(100, 0, 1, 2.0, 4.0);
  b.flight(101, 0, 2, 4.0, 4.0);
  // Image 1's wait ends exactly when flight 100 lands (a tie the flight
  // wins); image 2's wait names flight 101.
  b.blocked(1, 0.0, 4.0, 100, obs::Blame::kEventWait);
  b.blocked(2, 0.0, 4.0, 101);
  // Equal ends across images.
  b.compute(1, 4.0, 6.5);
  b.compute(2, 4.0, 6.5);
  // A parent naming a dropped flight, and one naming a flight that lands
  // after the wait closes: neither links.
  b.blocked(0, 4.0, 5.0, 999);
  b.flight(102, 1, 0, 5.5, 7.0);
  b.blocked(0, 5.0, 6.0, 102, obs::Blame::kFinishWait);
  b.op(0, obs::SpanKind::kFinishDetect, 4.0, 6.0, 3);
  // Retransmit delays overlapping two waits, merged where they overlap.
  b.retransmit(0, 4.5, 5.5);
  b.retransmit(0, 5.25, 5.75);
  b.blocked(0, 6.0, 7.0, 102, obs::Blame::kCofenceWait);
  b.retransmit(1, 1.0, 1.5);

  const obs::Capture& capture = b.finish();
  const obs::BlameReport report = obs::analyze_blame(capture);
  expect_same_report(report, oracle_blame(capture));
  // Spot-check the definition by hand: image 0's [0,2) -> flight 100 [2,4)
  // -> image 1's wait [0,4) -> compute [4,6.5) is 10.5 us over 4 spans.
  // Image 0's last wait takes flight 102 (from image 1 at 5.5, after the
  // chain's 8 us) at 7.0 and ties that 10.5, so the earlier end keeps it.
  EXPECT_EQ(report.critical_path_us, 10.5);
  EXPECT_EQ(report.critical_path_hops, 4u);
  EXPECT_EQ(report.critical_path_image, 1);
  EXPECT_EQ(report.finish_rounds_max, 3u);
  EXPECT_EQ(report.retransmit_us, 0.75 + 0.5);

  // Equal ends and equal chains on every image: the lowest image wins.
  CaptureBuilder tie(3);
  for (int image = 2; image >= 0; --image) {
    tie.compute(image, 0.0, 1.0);
  }
  const obs::BlameReport tied = obs::analyze_blame(tie.finish());
  expect_same_report(tied, oracle_blame(tie.capture));
  EXPECT_EQ(tied.critical_path_image, 0);
}

TEST(BlameOracle, RandomTiedCapturesMatchTheOracle) {
  std::mt19937 rng(20240517);
  const auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int images = 1 + pick(4);
    CaptureBuilder b(images);
    // Flights on a coarse half-microsecond grid so ends tie often; some
    // deliver at their initiation. Net-track order is shuffled.
    const int flights = pick(12);
    std::vector<std::uint64_t> ids;
    for (int f = 0; f < flights; ++f) {
      const double begin = 0.5 * pick(16);
      const std::uint64_t id = 1000 + static_cast<std::uint64_t>(f);
      b.flight(id, pick(images + 1) - (f % 5 == 0 ? 1 : 0), pick(images),
               begin, begin + 0.5 * pick(4));
      ids.push_back(id);
      if (pick(3) == 0) {
        b.retransmit(pick(images), begin, begin + 0.5 * pick(3));
      }
    }
    std::shuffle(b.net.begin(), b.net.end(), rng);
    // Timelines tile each image with zero and nonzero durations; blocked
    // spans name a random flight, an unknown id, or nothing.
    for (int image = 0; image < images; ++image) {
      double t = 0.0;
      const int spans = pick(10);
      for (int s = 0; s < spans; ++s) {
        const double end = t + 0.5 * pick(4);
        if (pick(2) == 0) {
          b.compute(image, t, end);
        } else {
          std::uint64_t parent = 0;
          const int choice = pick(4);
          if (choice == 1 && !ids.empty()) {
            parent = ids[static_cast<std::size_t>(pick(flights))];
          } else if (choice == 2) {
            parent = 77;
          }
          b.blocked(image, t, end, parent,
                    static_cast<obs::Blame>(2 + pick(5)));
        }
        if (pick(4) == 0) {
          b.op(image, obs::SpanKind::kFinishDetect, t, end,
               static_cast<std::uint64_t>(pick(5)));
        }
        t = end;
      }
    }
    const obs::Capture& capture = b.finish();
    expect_same_report(obs::analyze_blame(capture), oracle_blame(capture));
    if (HasFailure()) {
      return;
    }
  }
}

TEST(BlameOracle, OutOfOrderTimelineIsRejected) {
  CaptureBuilder b(1);
  b.compute(0, 0.0, 2.0);
  b.compute(0, 0.0, 1.0);
  EXPECT_THROW(obs::analyze_blame(b.finish()), FatalError);
}

TEST(BlameOracle, RecordedCapturesMatchTheOracle) {
  // Recorded flight ids are per-source composites, so parent lookups search
  // per-source blocks of the id table; a duplicated delivery records two
  // flights under one id.
  const RunStats mixed = run_stats(obs_options(8), mixed_workload);
  ASSERT_NE(mixed.obs, nullptr);
  expect_same_report(obs::analyze_blame(*mixed.obs), oracle_blame(*mixed.obs));

  RuntimeOptions options = obs_options(4);
  options.net = reliable_wire();
  options.net.faults.scripted.push_back(
      {.source = 0, .dest = 1, .nth = 1, .kind = FaultKind::kDuplicate});
  const RunStats faulty = run_stats(options, mixed_workload);
  ASSERT_NE(faulty.obs, nullptr);
  expect_same_report(obs::analyze_blame(*faulty.obs),
                     oracle_blame(*faulty.obs));
}

/// --- golden exports ----------------------------------------------------------

/// tests/golden/obs_mixed.{txt,trace.json,blame.txt} hold to_text,
/// to_chrome_trace and to_text(analyze_blame) of mixed_workload, byte for
/// byte, and every shard count must reproduce them. A change to the span
/// layout, the exporters or the blame analyzer must leave them untouched; a
/// change that means to move them regenerates them with
///   CAF2_REGEN_GOLDEN=1 build/tests/test_obs --gtest_filter='ObsGolden.*'
/// and shows the move as a diff of the committed files.
std::string golden_path(const char* suffix) {
  return std::string(CAF2_GOLDEN_DIR) + "/obs_mixed." + suffix;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Byte-for-byte comparison that names the first differing line instead of
/// dumping two whole exports. Under CAF2_REGEN_GOLDEN, a \p writer call
/// rewrites the golden before comparing.
void expect_golden(const std::string& path, const std::string& actual,
                   bool writer) {
  if (writer && std::getenv("CAF2_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(obs::write_file(path, actual)) << path;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty()) << "missing golden " << path;
  if (expected == actual) {
    return;
  }
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (int line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) {
      break;
    }
    if (!more_want || !more_got || want_line != got_line) {
      ADD_FAILURE() << path << ":" << line << " differs\n  golden: "
                    << (more_want ? want_line : "<end of file>")
                    << "\n  actual: " << (more_got ? got_line : "<end of file>");
      return;
    }
  }
  ADD_FAILURE() << path << " differs (line endings or trailing bytes)";
}

TEST(ObsGolden, MixedWorkloadExportsMatchAtEveryShardCount) {
  // Regeneration writes shards=1's exports; the other counts then compare
  // against them.
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RuntimeOptions options = obs_options(4);
    options.shards = shards;
    const RunStats stats = run_stats(options, mixed_workload);
    ASSERT_NE(stats.obs, nullptr);
    ASSERT_EQ(stats.shards, shards);
    expect_golden(golden_path("txt"), obs::to_text(*stats.obs), shards == 1);
    expect_golden(golden_path("trace.json"), obs::to_chrome_trace(*stats.obs),
                  shards == 1);
    expect_golden(golden_path("blame.txt"),
                  obs::to_text(obs::analyze_blame(*stats.obs)), shards == 1);
  }
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

/// --- span storage ------------------------------------------------------------

/// Every track's storage is at most 32 B per image-track span or 44 B per
/// network span, plus one block of slack, and image-track ids are the dense
/// compose_id(image, i + 1) the records leave implicit.
void expect_compact_tracks(const obs::Capture& capture) {
  for (int image = 0; image < capture.images; ++image) {
    SCOPED_TRACE("image " + std::to_string(image));
    const obs::SpanLog& spans = capture.image_track(image).spans;
    EXPECT_LE(spans.storage_bytes(),
              32 * (spans.size() + obs::SpanLog::kBlockSpans));
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const obs::Span span = spans[i];
      ASSERT_EQ(span.id,
                obs::compose_id(static_cast<std::uint64_t>(image), i + 1));
      ASSERT_EQ(span.image, image);
    }
  }
  const obs::SpanLog& net = capture.net_track().spans;
  EXPECT_LE(net.storage_bytes(), 44 * (net.size() + obs::SpanLog::kBlockSpans));
}

TEST(ObsMemory, TracksStoreCompactRecordsWithDenseImplicitIds) {
  constexpr int kImages = 64;
  constexpr std::size_t kCapSpans = 5;
  for (const int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RuntimeOptions options = obs_options(kImages);
    options.shards = shards;
    const RunStats full = run_stats(options, mixed_workload);
    ASSERT_NE(full.obs, nullptr);
    ASSERT_FALSE(full.obs->net_track().spans.empty());
    expect_compact_tracks(*full.obs);

    // A binding image-track cap (charged at sizeof(Span) per span) keeps a
    // prefix of each track, so kept ids stay dense.
    options.obs.max_image_track_bytes = kCapSpans * sizeof(obs::Span);
    const RunStats capped = run_stats(options, mixed_workload);
    ASSERT_NE(capped.obs, nullptr);
    expect_compact_tracks(*capped.obs);
    std::uint64_t dropped = 0;
    for (int image = 0; image < kImages; ++image) {
      const obs::Track& kept = capped.obs->image_track(image);
      const obs::Track& all = full.obs->image_track(image);
      EXPECT_EQ(kept.spans.size(), std::min(kCapSpans, all.spans.size()));
      EXPECT_EQ(kept.spans.size() + kept.dropped, all.spans.size());
      dropped += kept.dropped;
      for (std::size_t i = 0; i < kept.spans.size(); ++i) {
        EXPECT_EQ(kept.spans[i].id, all.spans[i].id);
        EXPECT_EQ(kept.spans[i].kind, all.spans[i].kind);
        EXPECT_EQ(kept.spans[i].end, all.spans[i].end);
      }
    }
    EXPECT_GT(dropped, 0u);
  }
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
