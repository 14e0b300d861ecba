/// Unit tests for the network model: the four-point message lifecycle
/// (initiation / staging / delivery / ack), staged source reads, jitter
/// reordering (non-FIFO channels), and traffic accounting.

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

/// Every send takes one path, whether its destination shares the source's
/// shard or not. Each case runs four images on a one- or two-shard engine
/// (two shards put images 0-1 on shard 0 and images 2-3 on shard 1) and
/// sends from image 0 to `dest`; every case must see the same stage,
/// deliver and ack times.
struct PathCase {
  int shards;
  int dest;
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

  /// Check the engine really has the case's shape.
  static void expect_shape(const sim::Engine& engine) {
    ASSERT_EQ(engine.shard_count(), GetParam().shards);
    const bool cross = engine.shard_of(0) != engine.shard_of(GetParam().dest);
    EXPECT_EQ(cross, GetParam().shards > 1 && GetParam().dest >= 2);
  }
};

TEST_P(NetworkPath, LifecycleTiming) {
  const int dest = GetParam().dest;
  sim::Engine engine(4, engine_options());
  expect_shape(engine);
  Network network(engine, test_params(), 1);
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
      SendCallbacks callbacks;
      callbacks.on_staged = [&] { staged_at = e.now(); };
      callbacks.on_acked = [&] { acked_at = e.now(); };
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
}

TEST_P(NetworkPath, StagedReadHappensAtStageTimeNotCallTime) {
  // The source buffer is read when the transfer is injected; mutating it
  // after initiation but before staging corrupts the payload — the hazard
  // cofence exists to prevent.
  const int dest = GetParam().dest;
  sim::Engine engine(4, engine_options());
  expect_shape(engine);
  Network network(engine, test_params(), 1);
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
      SendCallbacks callbacks;
      callbacks.on_staged = [&] { staged_at = e.now(); };
      callbacks.on_acked = [&] { acked_at = e.now(); };
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
}

INSTANTIATE_TEST_SUITE_P(
    OneAndTwoShards, NetworkPath,
    ::testing::Values(PathCase{1, 1}, PathCase{1, 3}, PathCase{2, 1},
                      PathCase{2, 3}),
    [](const ::testing::TestParamInfo<PathCase>& info) {
      return "shards" + std::to_string(info.param.shards) + "_dest" +
             std::to_string(info.param.dest);
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

TEST(Network, OutOfRangeTrafficImageRejected) {
  sim::Engine engine(2);
  Network network(engine, test_params(), 1);
  EXPECT_THROW(network.traffic(-1), UsageError);
  EXPECT_THROW(network.traffic(network.size()), UsageError);
  EXPECT_EQ(network.traffic(1).messages_in, 0u);
}

}  // namespace
