/// Unit tests for the network model: the four-point message lifecycle
/// (initiation / staging / delivery / ack), staged source reads, send-record
/// recycling, jitter reordering (non-FIFO channels), and traffic accounting.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/participant.hpp"

namespace {

using namespace caf2;
using namespace caf2::net;

NetworkParams test_params() {
  NetworkParams params;
  params.latency_us = 10.0;
  params.bandwidth_bytes_per_us = 100.0;  // 1 us per 100 bytes
  params.handler_cost_us = 0.0;
  params.ack_latency_us = 10.0;
  params.jitter_us = 0.0;
  return params;
}

/// A scripted fault on a message no test sends: it switches the
/// reliable-delivery protocol on without injecting anything.
ScriptedFault never_fires() {
  return {.source = 0, .dest = 0, .nth = ~std::uint64_t{0}};
}

/// Every send takes one path, whether its destination shares the source's
/// shard or not, and whether or not the reliable-delivery protocol is on.
/// Each case runs four images on a one- or two-shard engine (two shards put
/// images 0-1 on shard 0 and images 2-3 on shard 1) and sends from image 0
/// to `dest`, `reliable` cases with a fault plan that never fires; every
/// case must see the same stage, deliver and ack times.
struct PathCase {
  int shards;
  int dest;
  bool reliable;
};

class NetworkPath : public ::testing::TestWithParam<PathCase> {
 protected:
  /// An engine of the case's shape. The lookahead is the wire latency, as
  /// the runtime derives it.
  static sim::EngineOptions engine_options() {
    sim::EngineOptions options;
    options.shards = GetParam().shards;
    options.lookahead_us = test_params().latency_us;
    return options;
  }

  /// The wire of the case: test_params(), plus the never-firing fault
  /// when the case is reliable.
  static NetworkParams network_params() {
    NetworkParams params = test_params();
    if (GetParam().reliable) {
      params.faults.scripted.push_back(never_fires());
    }
    return params;
  }

  /// Check the engine and network really have the case's shape.
  static void expect_shape(const sim::Engine& engine, const Network& network) {
    ASSERT_EQ(engine.shard_count(), GetParam().shards);
    const bool cross = engine.shard_of(0) != engine.shard_of(GetParam().dest);
    EXPECT_EQ(cross, GetParam().shards > 1 && GetParam().dest >= 2);
    EXPECT_EQ(network.reliable(), GetParam().reliable);
  }
};

TEST_P(NetworkPath, LifecycleTiming) {
  const int dest = GetParam().dest;
  sim::Engine engine(4, engine_options());
  Network network(engine, network_params(), 1);
  expect_shape(engine, network);
  double staged_at = -1;
  double acked_at = -1;
  double delivered_at = -1;

  engine.run([&](int id) {
    sim::Engine& e = sim::this_engine();
    if (id == 0) {
      Message message;
      message.header.source = 0;
      message.header.dest = dest;
      message.header.handler = 99;
      message.payload.assign(200, 7);  // 2 us injection
      SendCallbacks callbacks(kStaged | kAcked, [&](SendPoint point) {
        (point == kStaged ? staged_at : acked_at) = e.now();
      });
      network.send(std::move(message), std::move(callbacks));
      e.advance(100.0);
    } else if (id == dest) {
      e.block();
      delivered_at = e.now();
      auto got = network.mailbox(dest).try_pop();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->header.handler, 99u);
      EXPECT_EQ(got->payload.size(), 200u);
    }
  });
  EXPECT_DOUBLE_EQ(staged_at, 2.0);        // bytes / bandwidth
  EXPECT_DOUBLE_EQ(delivered_at, 12.0);    // + latency
  EXPECT_DOUBLE_EQ(acked_at, 22.0);        // + ack latency
  EXPECT_EQ(network.send_records_in_use(), 0u);
  EXPECT_EQ(network.inflight_reliable(), 0u);
}

TEST_P(NetworkPath, StagedReadHappensAtStageTimeNotCallTime) {
  // The source buffer is read when the transfer is injected; mutating it
  // after initiation but before staging corrupts the payload — the hazard
  // cofence exists to prevent.
  const int dest = GetParam().dest;
  sim::Engine engine(4, engine_options());
  Network network(engine, network_params(), 1);
  expect_shape(engine, network);
  std::vector<std::uint8_t> received;
  double staged_at = -1;
  double acked_at = -1;
  double delivered_at = -1;

  engine.run([&](int id) {
    sim::Engine& e = sim::this_engine();
    if (id == 0) {
      std::vector<std::uint8_t> buffer(100, 1);
      MessageHeader header;
      header.source = 0;
      header.dest = dest;
      SendCallbacks callbacks(kStaged | kAcked, [&](SendPoint point) {
        (point == kStaged ? staged_at : acked_at) = e.now();
      });
      network.send_staged(
          header, buffer.size(),
          [&buffer] {
            return buffer;  // read at staging time
          },
          std::move(callbacks));
      buffer.assign(100, 2);  // overwrite *before* staging (1 us later)
      e.advance(50.0);
    } else if (id == dest) {
      e.block();
      delivered_at = e.now();
      auto got = network.mailbox(dest).try_pop();
      ASSERT_TRUE(got.has_value());
      received = got->payload;
    }
  });
  ASSERT_EQ(received.size(), 100u);
  EXPECT_EQ(received[0], 2) << "staged read must see the overwritten buffer";
  EXPECT_DOUBLE_EQ(staged_at, 1.0);
  EXPECT_DOUBLE_EQ(delivered_at, 11.0);
  EXPECT_DOUBLE_EQ(acked_at, 21.0);
  EXPECT_EQ(network.send_records_in_use(), 0u);
  EXPECT_EQ(network.inflight_reliable(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OneAndTwoShards, NetworkPath,
    ::testing::Values(PathCase{1, 1, false}, PathCase{1, 3, false},
                      PathCase{2, 1, false}, PathCase{2, 3, false},
                      PathCase{1, 1, true}, PathCase{1, 3, true},
                      PathCase{2, 1, true}, PathCase{2, 3, true}),
    [](const ::testing::TestParamInfo<PathCase>& info) {
      return "shards" + std::to_string(info.param.shards) + "_dest" +
             std::to_string(info.param.dest) +
             (info.param.reliable ? "_reliable" : "");
    });

/// Sends that report kStaged or kAcked keep their state in per-shard
/// send-record slabs until their last source-side event, in both delivery
/// modes. Each case runs eight images on one or four shards, without or
/// with the reliable-delivery protocol (a lossy, duplicating FaultPlan turns
/// it on), and makes both staged and plain sends.
struct RecordCase {
  int shards;
  bool reliable;
};

class SendRecords : public ::testing::TestWithParam<RecordCase> {};

TEST_P(SendRecords, ReturnToTheFreeListAndPeakAtTheSendsInFlight) {
  constexpr int kImages = 8;
  constexpr int kSends = 12;  // of each kind, per round
  NetworkParams params = test_params();
  if (GetParam().reliable) {
    params.faults.all.drop_probability = 0.2;
    params.faults.all.dup_probability = 0.2;
  }
  sim::EngineOptions options;
  options.shards = GetParam().shards;
  options.lookahead_us = params.latency_us;
  sim::Engine engine(kImages, options);
  ASSERT_EQ(engine.shard_count(), GetParam().shards);
  Network network(engine, params, 3);
  ASSERT_EQ(network.reliable(), GetParam().reliable);
  int staged = 0;
  int acked = 0;

  engine.run([&](int id) {
    if (id != 0) {
      return;
    }
    sim::Engine& e = sim::this_engine();
    const auto callbacks = [&] {
      return SendCallbacks(kStaged | kAcked, [&](SendPoint point) {
        if (point == kStaged) {
          staged += 1;
        } else {
          acked += 1;
          e.unblock(0);
        }
      });
    };
    // One staged and one plain send to the same destination.
    const auto send = [&](int k) {
      MessageHeader header;
      header.source = 0;
      header.dest = 1 + k % (kImages - 1);
      network.send_staged(
          header, 100,
          [k] { return std::vector<std::uint8_t>(100, std::uint8_t(k)); },
          callbacks());
      Message message;
      message.header = header;
      message.payload.assign(100, std::uint8_t(k));
      network.send(std::move(message), callbacks());
    };
    // Every send of the first round is in flight at once (none stages
    // before 1 us) ...
    for (int k = 0; k < kSends; ++k) {
      send(k);
    }
    while (acked < 2 * kSends) {
      e.block("first round");
    }
    // ... and the second round's one pair at a time, reusing freed records.
    for (int k = 0; k < kSends; ++k) {
      send(k);
      while (acked < 2 * (kSends + k + 1)) {
        e.block("second round");
      }
    }
  });
  EXPECT_EQ(staged, 4 * kSends);
  EXPECT_EQ(acked, 4 * kSends);
  EXPECT_EQ(network.send_records_in_use(), 0u);
  EXPECT_EQ(network.send_records_high_water(),
            static_cast<std::size_t>(2 * kSends));
  EXPECT_EQ(network.inflight_reliable(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OneAndFourShards, SendRecords,
    ::testing::Values(RecordCase{1, false}, RecordCase{4, false},
                      RecordCase{1, true}, RecordCase{4, true}),
    [](const ::testing::TestParamInfo<RecordCase>& info) {
      return "shards" + std::to_string(info.param.shards) +
             (info.param.reliable ? "_reliable" : "_unreliable");
    });

TEST(Network, JitterCanReorderDeliveries) {
  // With jitter comparable to the inter-send gap, two messages to the same
  // destination can arrive out of order: channels are not FIFO.
  NetworkParams params = test_params();
  params.jitter_us = 30.0;
  bool reordered_with_some_seed = false;
  for (std::uint64_t seed = 1; seed <= 20 && !reordered_with_some_seed;
       ++seed) {
    sim::Engine engine(2);
    Network network(engine, params, seed);
    std::vector<int> arrival_order;
    engine.run([&](int id) {
      sim::Engine& e = sim::this_engine();
      if (id == 0) {
        for (int k = 0; k < 4; ++k) {
          Message message;
          message.header.source = 0;
          message.header.dest = 1;
          message.payload.assign(4, static_cast<std::uint8_t>(k));
          network.send(std::move(message));
        }
        e.advance(200.0);
      } else {
        while (arrival_order.size() < 4) {
          if (auto got = network.mailbox(1).try_pop()) {
            arrival_order.push_back(got->payload[0]);
          } else {
            e.block();
          }
        }
      }
    });
    if (arrival_order != std::vector<int>{0, 1, 2, 3}) {
      reordered_with_some_seed = true;
    }
  }
  EXPECT_TRUE(reordered_with_some_seed)
      << "jitter never produced a reordering across 20 seeds";
}

TEST(Network, TrafficCountersPerImage) {
  sim::Engine engine(3);
  Network network(engine, test_params(), 1);
  engine.run([&](int id) {
    sim::Engine& e = sim::this_engine();
    if (id == 0) {
      for (int dest : {1, 2, 2}) {
        Message message;
        message.header.source = 0;
        message.header.dest = dest;
        message.payload.assign(10, 0);
        network.send(std::move(message));
      }
    }
    e.advance(100.0);
  });
  EXPECT_EQ(network.messages_sent(), 3u);
  EXPECT_EQ(network.bytes_sent(), 30u);
  EXPECT_EQ(network.traffic(0).messages_out, 3u);
  EXPECT_EQ(network.traffic(1).messages_in, 1u);
  EXPECT_EQ(network.traffic(2).messages_in, 2u);
  EXPECT_EQ(network.traffic(2).bytes_in, 20u);
  network.reset_traffic();
  EXPECT_EQ(network.traffic(2).messages_in, 0u);
}

TEST(Network, InstantParamsDeliverAtOnce) {
  sim::Engine engine(2);
  Network network(engine, NetworkParams::instant(), 1);
  double delivered_at = -1;
  engine.run([&](int id) {
    sim::Engine& e = sim::this_engine();
    if (id == 0) {
      Message message;
      message.header.source = 0;
      message.header.dest = 1;
      message.payload.assign(1000, 0);
      network.send(std::move(message));
      e.advance(1.0);
    } else {
      e.block();
      delivered_at = e.now();
    }
  });
  EXPECT_DOUBLE_EQ(delivered_at, 0.0);
}

TEST(Mailbox, FifoAndCounters) {
  Mailbox mailbox;
  EXPECT_TRUE(mailbox.empty());
  EXPECT_FALSE(mailbox.try_pop().has_value());
  for (int i = 0; i < 3; ++i) {
    Message message;
    message.header.handler = static_cast<HandlerId>(i);
    mailbox.push(std::move(message));
  }
  EXPECT_EQ(mailbox.size(), 3u);
  EXPECT_EQ(mailbox.delivered_total(), 3u);
  EXPECT_EQ(mailbox.try_pop()->header.handler, 0u);
  EXPECT_EQ(mailbox.try_pop()->header.handler, 1u);
  EXPECT_EQ(mailbox.try_pop()->header.handler, 2u);
  EXPECT_TRUE(mailbox.empty());
  EXPECT_EQ(mailbox.delivered_total(), 3u);
}

TEST(Network, OutOfRangeDestinationRejected) {
  sim::Engine engine(2);
  Network network(engine, test_params(), 1);
  engine.run([&](int id) {
    if (id == 0) {
      Message message;
      message.header.source = 0;
      message.header.dest = 9;
      EXPECT_THROW(network.send(std::move(message)), UsageError);
    }
  });
}

TEST(Network, OutOfRangeSourceRejected) {
  // A send's record lives in its source image's shard slab, so the source
  // is checked like the destination.
  sim::Engine engine(2);
  Network network(engine, test_params(), 1);
  engine.run([&](int id) {
    if (id == 0) {
      Message message;
      message.header.dest = 1;  // source left at -1
      EXPECT_THROW(network.send(std::move(message)), UsageError);
      MessageHeader header;
      header.source = 2;
      header.dest = 1;
      EXPECT_THROW(network.send_staged(
                       header, 1, [] { return std::vector<std::uint8_t>(1); }),
                   UsageError);
    }
  });
}

TEST(Network, OutOfRangeTrafficImageRejected) {
  sim::Engine engine(2);
  Network network(engine, test_params(), 1);
  EXPECT_THROW(network.traffic(-1), UsageError);
  EXPECT_THROW(network.traffic(network.size()), UsageError);
  EXPECT_EQ(network.traffic(1).messages_in, 0u);
}

}  // namespace
