/// Tests for the extended collectives of the paper's vision (§II-C3):
/// gather, scatter, alltoall, scan, the distributed sample sort, and the
/// algorithm suite of DESIGN.md §4.13 — the new allgather / reduce-scatter
/// / v-collectives, per-algorithm correctness oracles, the selection table
/// (JSON round-trip, Auto resolution), rooted-entry validation, and the
/// algorithm × shards × repeats determinism matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/caf2.hpp"
#include "core/detectors.hpp"
#include "ops/coll_algo.hpp"
#include "runtime/internal.hpp"
#include "runtime/runtime.hpp"
#include "sim/fiber.hpp"
#include "sim/trace.hpp"

namespace {

using namespace caf2;

RuntimeOptions ext_options(int images) {
  RuntimeOptions options;
  options.num_images = images;
  options.net.latency_us = 2.0;
  options.net.bandwidth_bytes_per_us = 1000.0;
  options.net.handler_cost_us = 0.1;
  options.net.jitter_us = 0.4;
  options.max_events = 10'000'000;
  return options;
}

class ExtSizes : public ::testing::TestWithParam<int> {};

TEST_P(ExtSizes, GatherConcatenatesByRank) {
  const int images = GetParam();
  run(ext_options(images), [images] {
    Team world = team_world();
    const int root = images / 2;
    std::vector<long> send{world.rank() * 10L, world.rank() * 10L + 1};
    std::vector<long> recv(static_cast<std::size_t>(2 * images), -1);
    Event done;
    gather_async<long>(world, send, recv, root, {.src_done = done.handle()});
    done.wait();
    if (world.rank() == root) {
      for (int r = 0; r < images; ++r) {
        EXPECT_EQ(recv[static_cast<std::size_t>(2 * r)], r * 10);
        EXPECT_EQ(recv[static_cast<std::size_t>(2 * r + 1)], r * 10 + 1);
      }
    }
    team_barrier(world);
  });
}

TEST_P(ExtSizes, ScatterSplitsByRank) {
  const int images = GetParam();
  run(ext_options(images), [images] {
    Team world = team_world();
    const int root = 0;
    std::vector<long> send;
    if (world.rank() == root) {
      send.resize(static_cast<std::size_t>(3 * images));
      std::iota(send.begin(), send.end(), 1000);
    }
    std::vector<long> recv(3, -1);
    Event done;
    scatter_async<long>(world, send, recv, root, {.src_done = done.handle()});
    done.wait();
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(recv[static_cast<std::size_t>(i)],
                1000 + 3 * world.rank() + i);
    }
    team_barrier(world);
  });
}

TEST_P(ExtSizes, AlltoallExchangesChunks) {
  const int images = GetParam();
  run(ext_options(images), [images] {
    Team world = team_world();
    // Chunk j of my send buffer = my_rank * 100 + j.
    std::vector<int> send(static_cast<std::size_t>(images));
    for (int j = 0; j < images; ++j) {
      send[static_cast<std::size_t>(j)] = world.rank() * 100 + j;
    }
    std::vector<int> recv(static_cast<std::size_t>(images), -1);
    Event done;
    alltoall_async<int>(world, send, recv, {.src_done = done.handle()});
    done.wait();
    // Chunk i of my receive buffer came from rank i: i * 100 + my_rank.
    for (int i = 0; i < images; ++i) {
      EXPECT_EQ(recv[static_cast<std::size_t>(i)],
                i * 100 + world.rank());
    }
    team_barrier(world);
  });
}

TEST_P(ExtSizes, InclusiveScanMatchesPrefixSums) {
  const int images = GetParam();
  run(ext_options(images), [] {
    Team world = team_world();
    std::vector<long> value{world.rank() + 1L, 100L * (world.rank() + 1)};
    Event done;
    scan_async<long>(world, value, RedOp::kSum, /*exclusive=*/false,
                     {.src_done = done.handle()});
    done.wait();
    long expect = 0;
    for (int i = 0; i <= world.rank(); ++i) {
      expect += i + 1;
    }
    EXPECT_EQ(value[0], expect);
    EXPECT_EQ(value[1], 100 * expect);
    team_barrier(world);
  });
}

TEST_P(ExtSizes, ExclusiveScanShiftsByOneRank) {
  const int images = GetParam();
  run(ext_options(images), [] {
    Team world = team_world();
    std::vector<long> value{world.rank() + 1L};
    Event done;
    scan_async<long>(world, value, RedOp::kSum, /*exclusive=*/true,
                     {.src_done = done.handle()});
    done.wait();
    if (world.rank() > 0) {
      long expect = 0;
      for (int i = 0; i < world.rank(); ++i) {
        expect += i + 1;
      }
      EXPECT_EQ(value[0], expect);
    }
    team_barrier(world);
  });
}

TEST_P(ExtSizes, SampleSortProducesGlobalOrder) {
  const int images = GetParam();
  run(ext_options(images), [images] {
    Team world = team_world();
    // Deterministic pseudo-random keys, distinct per image.
    Xoshiro256ss rng(1234u + static_cast<unsigned>(world.rank()));
    std::vector<std::uint64_t> keys(64);
    for (auto& key : keys) {
      key = rng.next();
    }
    std::vector<std::uint64_t> everyone;  // serial oracle
    for (int img = 0; img < images; ++img) {
      Xoshiro256ss r(1234u + static_cast<unsigned>(img));
      for (int i = 0; i < 64; ++i) {
        everyone.push_back(r.next());
      }
    }
    std::sort(everyone.begin(), everyone.end());

    Event done;
    sort_async<std::uint64_t>(world, keys, {.src_done = done.handle()});
    done.wait();

    // Local block sorted.
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    // Blocks are range-partitioned by rank and cover the whole input:
    // verify by gathering block sizes + boundaries through reductions.
    const auto count =
        allreduce<std::uint64_t>(world, keys.size(), RedOp::kSum);
    EXPECT_EQ(count, everyone.size());
    const std::uint64_t my_min = keys.empty() ? ~0ULL : keys.front();
    const std::uint64_t my_max = keys.empty() ? 0ULL : keys.back();
    // Exclusive scan of maxima: my predecessor blocks' largest key must not
    // exceed my smallest key.
    std::vector<std::uint64_t> carry{my_max};
    Event scanned;
    scan_async<std::uint64_t>(world, carry, RedOp::kMax, /*exclusive=*/true,
                              {.src_done = scanned.handle()});
    scanned.wait();
    if (world.rank() > 0 && !keys.empty()) {
      EXPECT_LE(carry[0], my_min);
    }
    // Global extremes match the oracle.
    EXPECT_EQ(allreduce<std::uint64_t>(world, my_min, RedOp::kMin),
              everyone.front());
    EXPECT_EQ(allreduce<std::uint64_t>(world, my_max, RedOp::kMax),
              everyone.back());
    team_barrier(world);
  });
}

// 13 gives the radix-4 tree two levels with a partial last subtree.
INSTANTIATE_TEST_SUITE_P(Images, ExtSizes,
                         ::testing::Values(1, 2, 3, 4, 8, 13));

TEST(ExtCollectives, SortWithUnevenBlocks) {
  run(ext_options(4), [] {
    Team world = team_world();
    std::vector<int> keys(static_cast<std::size_t>(
        world.rank() * 17 + 1));  // 1, 18, 35, 52 keys
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<int>((world.rank() * 131 + i * 37) % 211);
    }
    Event done;
    sort_async<int>(world, keys, {.src_done = done.handle()});
    done.wait();
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    const auto total = allreduce<long>(
        world, static_cast<long>(keys.size()), RedOp::kSum);
    EXPECT_EQ(total, 1 + 18 + 35 + 52);
    team_barrier(world);
  });
}

TEST(ExtCollectives, SortEmptyInput) {
  run(ext_options(3), [] {
    Team world = team_world();
    std::vector<double> keys;  // nothing anywhere
    Event done;
    sort_async<double>(world, keys, {.src_done = done.handle()});
    done.wait();
    EXPECT_TRUE(keys.empty());
    team_barrier(world);
  });
}

TEST(ExtCollectives, GatherImplicitThroughFinish) {
  run(ext_options(4), [] {
    Team world = team_world();
    std::vector<int> send{world.rank()};
    std::vector<int> recv(4, -1);
    finish(world, [&] {
      gather_async<int>(world, send, recv, 0);
    });
    if (world.rank() == 0) {
      EXPECT_EQ(recv, (std::vector<int>{0, 1, 2, 3}));
    }
    team_barrier(world);
  });
}

/// --- new collectives: allgather / reduce-scatter / v-variants --------------
/// Every supported schedule must produce the same buffers (the payloads are
/// integers, so even the reassociating schedules agree exactly).

TEST_P(ExtSizes, AllgatherEveryAlgorithmMatchesOracle) {
  const int images = GetParam();
  run(ext_options(images), [images] {
    Team world = team_world();
    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kAllgather)) {
      std::vector<long> send{world.rank() * 10L, world.rank() * 10L + 1};
      std::vector<long> recv(static_cast<std::size_t>(2 * images), -1);
      Event done;
      allgather_async<long>(world, send, recv,
                            {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      for (int r = 0; r < images; ++r) {
        EXPECT_EQ(recv[static_cast<std::size_t>(2 * r)], r * 10)
            << "algorithm " << to_string(algo);
        EXPECT_EQ(recv[static_cast<std::size_t>(2 * r + 1)], r * 10 + 1)
            << "algorithm " << to_string(algo);
      }
      team_barrier(world);
    }
  });
}

TEST_P(ExtSizes, ReduceScatterEveryAlgorithmMatchesOracle) {
  const int images = GetParam();
  run(ext_options(images), [images] {
    Team world = team_world();
    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kReduceScatter)) {
      // Element e of my contribution = rank * 1000 + e; chunk r of the
      // result on rank r = sum over all ranks.
      std::vector<long> send(static_cast<std::size_t>(2 * images));
      for (std::size_t e = 0; e < send.size(); ++e) {
        send[e] = world.rank() * 1000L + static_cast<long>(e);
      }
      std::vector<long> recv(2, -1);
      Event done;
      reduce_scatter_async<long>(
          world, send, recv, RedOp::kSum,
          {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      const long rank_sum = static_cast<long>(images) *
                            static_cast<long>(images - 1) / 2 * 1000L;
      for (int e = 0; e < 2; ++e) {
        EXPECT_EQ(recv[static_cast<std::size_t>(e)],
                  rank_sum + static_cast<long>(images) *
                                 (2L * world.rank() + e))
            << "algorithm " << to_string(algo);
      }
      team_barrier(world);
    }
  });
}

TEST_P(ExtSizes, AllreduceEveryAlgorithmMatchesOracle) {
  const int images = GetParam();
  run(ext_options(images), [images] {
    Team world = team_world();
    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kAllreduce)) {
      // 5 elements so the ring's element-boundary chunking goes uneven
      // (and empty at images = 8).
      std::vector<long> value(5);
      for (std::size_t e = 0; e < value.size(); ++e) {
        value[e] = world.rank() + static_cast<long>(e) * 100L;
      }
      Event done;
      allreduce_async<long>(world, value, RedOp::kSum,
                            {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      const long rank_sum =
          static_cast<long>(images) * static_cast<long>(images - 1) / 2;
      for (std::size_t e = 0; e < value.size(); ++e) {
        EXPECT_EQ(value[e],
                  rank_sum + static_cast<long>(images) *
                                 static_cast<long>(e) * 100L)
            << "algorithm " << to_string(algo);
      }
      team_barrier(world);
    }
  });
}

TEST_P(ExtSizes, BroadcastReduceBarrierAlternativeSchedules) {
  const int images = GetParam();
  run(ext_options(images), [images] {
    Team world = team_world();
    const int root = images > 1 ? 1 : 0;
    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kBroadcast)) {
      std::vector<int> buf(3, world.rank() == root ? 42 : -1);
      Event done;
      broadcast_async<int>(world, buf, root,
                           {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      EXPECT_EQ(buf, (std::vector<int>{42, 42, 42}))
          << "algorithm " << to_string(algo);
      team_barrier(world);
    }
    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kReduce)) {
      std::vector<long> buf{world.rank() + 1L};
      Event done;
      reduce_async<long>(world, buf, root, RedOp::kMax,
                         {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      if (world.rank() == root) {
        EXPECT_EQ(buf[0], images) << "algorithm " << to_string(algo);
      }
      team_barrier(world);
    }
    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kBarrier)) {
      Event done;
      barrier_async(world, {.local_done = done.handle(), .algorithm = algo});
      done.wait();
    }
    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kGather)) {
      std::vector<int> send{world.rank()};
      std::vector<int> recv(static_cast<std::size_t>(images), -1);
      Event done;
      gather_async<int>(world, send, recv, root,
                        {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      if (world.rank() == root) {
        for (int r = 0; r < images; ++r) {
          EXPECT_EQ(recv[static_cast<std::size_t>(r)], r)
              << "algorithm " << to_string(algo);
        }
      }
      team_barrier(world);
    }
    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kScatter)) {
      std::vector<int> send;
      if (world.rank() == root) {
        send.resize(static_cast<std::size_t>(images));
        std::iota(send.begin(), send.end(), 7);
      }
      std::vector<int> recv(1, -1);
      Event done;
      scatter_async<int>(world, send, recv, root,
                         {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      EXPECT_EQ(recv[0], 7 + world.rank()) << "algorithm " << to_string(algo);
      team_barrier(world);
    }
  });
}

TEST_P(ExtSizes, GathervScattervAlltoallvVariableCounts) {
  const int images = GetParam();
  run(ext_options(images), [images] {
    Team world = team_world();
    const int root = images - 1;
    // Rank r contributes r elements (rank 0 contributes nothing).
    std::vector<std::size_t> counts(static_cast<std::size_t>(images));
    for (int r = 0; r < images; ++r) {
      counts[static_cast<std::size_t>(r)] = static_cast<std::size_t>(r);
    }
    const std::size_t total = std::accumulate(counts.begin(), counts.end(),
                                              std::size_t{0});
    {
      std::vector<long> send(static_cast<std::size_t>(world.rank()));
      for (std::size_t i = 0; i < send.size(); ++i) {
        send[i] = world.rank() * 100L + static_cast<long>(i);
      }
      std::vector<long> recv(world.rank() == root ? total : 0, -1);
      Event done;
      gatherv_async<long>(world, send, recv, counts, root,
                          {.local_done = done.handle()});
      done.wait();
      if (world.rank() == root) {
        std::size_t at = 0;
        for (int r = 0; r < images; ++r) {
          for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)];
               ++i) {
            EXPECT_EQ(recv[at++], r * 100L + static_cast<long>(i));
          }
        }
      }
      team_barrier(world);
    }
    {
      std::vector<long> send;
      if (world.rank() == root) {
        send.resize(total);
        std::size_t at = 0;
        for (int r = 0; r < images; ++r) {
          for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)];
               ++i) {
            send[at++] = r * 1000L + static_cast<long>(i);
          }
        }
      }
      std::vector<long> recv(static_cast<std::size_t>(world.rank()), -1);
      Event done;
      scatterv_async<long>(world, send, counts, recv, root,
                           {.local_done = done.handle()});
      done.wait();
      for (std::size_t i = 0; i < recv.size(); ++i) {
        EXPECT_EQ(recv[i], world.rank() * 1000L + static_cast<long>(i));
      }
      team_barrier(world);
    }
    {
      // Rank r sends j+1 elements to rank j (independent of r), so rank j
      // receives j+1 elements from everyone: counts differ per pair and
      // extents are not divisible by the team size.
      std::vector<std::size_t> send_counts(static_cast<std::size_t>(images));
      std::vector<std::size_t> recv_counts(
          static_cast<std::size_t>(images),
          static_cast<std::size_t>(world.rank() + 1));
      for (int j = 0; j < images; ++j) {
        send_counts[static_cast<std::size_t>(j)] =
            static_cast<std::size_t>(j + 1);
      }
      std::vector<long> send(std::accumulate(send_counts.begin(),
                                             send_counts.end(),
                                             std::size_t{0}));
      std::size_t at = 0;
      for (int j = 0; j < images; ++j) {
        for (std::size_t i = 0; i <= static_cast<std::size_t>(j); ++i) {
          send[at++] = world.rank() * 10000L + j * 100L +
                       static_cast<long>(i);
        }
      }
      std::vector<long> recv(
          static_cast<std::size_t>(images) *
              static_cast<std::size_t>(world.rank() + 1),
          -1);
      Event done;
      alltoallv_async<long>(world, send, send_counts, recv, recv_counts,
                            {.local_done = done.handle()});
      done.wait();
      at = 0;
      for (int from = 0; from < images; ++from) {
        for (std::size_t i = 0; i <= static_cast<std::size_t>(world.rank());
             ++i) {
          EXPECT_EQ(recv[at++], from * 10000L + world.rank() * 100L +
                                    static_cast<long>(i));
        }
      }
      team_barrier(world);
    }
  });
}

TEST(ExtCollectives, NewCollectivesComposeWithFinishAndCofence) {
  run(ext_options(4), [] {
    Team world = team_world();
    std::vector<int> send{world.rank()};
    std::vector<int> all(4, -1);
    finish(world, [&] {
      allgather_async<int>(world, send, all);
    });
    EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3}));

    std::vector<int> contrib{world.rank(), 10 + world.rank(), 20 + world.rank(),
                             30 + world.rank()};
    std::vector<int> mine(1, -1);
    // Element e of rank's contribution is 10*e + rank, so chunk r of the
    // result = sum over ranks of (10*r + rank) = 40*r + 6.
    finish(world, [&] {
      reduce_scatter_async<int>(world, contrib, mine, RedOp::kSum);
    });
    EXPECT_EQ(mine[0], 40 * world.rank() + 6);
    team_barrier(world);
  });
}

/// --- rooted-entry validation ------------------------------------------------

TEST(ExtCollectives, OutOfRangeRootIsAUsageErrorNamingTheCollective) {
  run(ext_options(3), [] {
    Team world = team_world();
    std::vector<int> buf(1);
    std::vector<std::size_t> counts(3, 1);
    const int past_end = world.size();  // first invalid rank (runtime value)
    const int negative = -world.size();
    const auto expect_named = [](const char* name, auto&& call) {
      try {
        call();
        FAIL() << name << ": out-of-range root was accepted";
      } catch (const UsageError& error) {
        EXPECT_NE(std::string(error.what()).find(name), std::string::npos)
            << "actual message: " << error.what();
      }
    };
    expect_named("broadcast_async", [&] {
      broadcast_async<int>(world, buf, past_end);
    });
    expect_named("reduce_async", [&] {
      reduce_async<int>(world, buf, negative, RedOp::kSum);
    });
    expect_named("gather_async", [&] {
      gather_async<int>(world, buf, buf, past_end + 2);
    });
    expect_named("scatter_async", [&] {
      scatter_async<int>(world, buf, buf, past_end);
    });
    expect_named("gatherv_async", [&] {
      gatherv_async<int>(world, buf, buf, counts, past_end);
    });
    expect_named("scatterv_async", [&] {
      scatterv_async<int>(world, buf, counts, buf, negative);
    });
    team_barrier(world);
  });
}

TEST(ExtCollectives, ExplicitlyUnsupportedAlgorithmIsAUsageError) {
  run(ext_options(2), [] {
    Team world = team_world();
    std::vector<int> buf(1);
    EXPECT_THROW(broadcast_async<int>(world, buf, 0,
                                      {.algorithm = CollAlgorithm::kDirect}),
                 UsageError);
    std::vector<int> pair_send(2);
    std::vector<int> pair_recv(2);
    EXPECT_THROW(
        alltoall_async<int>(world, pair_send, pair_recv,
                            {.algorithm = CollAlgorithm::kBinomialTree}),
        UsageError);
    team_barrier(world);
  });
}

/// --- selection table --------------------------------------------------------

TEST(CollSelection, JsonRoundTripAndNearestBucketLookup) {
  ops::CollSelectionTable table;
  table.set(ops::CollKind::kAllreduce, 16, 64, CollAlgorithm::kBinomialTree);
  table.set(ops::CollKind::kAllreduce, 16, 1 << 16, CollAlgorithm::kRing);
  table.set(ops::CollKind::kAllgather, 8, 4096, CollAlgorithm::kRing);
  const std::string json = table.to_json();
  const ops::CollSelectionTable parsed =
      ops::CollSelectionTable::from_json(json);
  EXPECT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed.to_json(), json);  // byte-stable round trip
  // Exact buckets.
  EXPECT_EQ(parsed.lookup(ops::CollKind::kAllreduce, 16, 64),
            CollAlgorithm::kBinomialTree);
  EXPECT_EQ(parsed.lookup(ops::CollKind::kAllreduce, 16, 1 << 16),
            CollAlgorithm::kRing);
  // Nearest bucket: payload snaps to the closer measured class; unmeasured
  // team sizes snap to the nearest measured one.
  EXPECT_EQ(parsed.lookup(ops::CollKind::kAllreduce, 16, 128),
            CollAlgorithm::kBinomialTree);
  EXPECT_EQ(parsed.lookup(ops::CollKind::kAllreduce, 16, 1 << 20),
            CollAlgorithm::kRing);
  EXPECT_EQ(parsed.lookup(ops::CollKind::kAllreduce, 64, 1 << 16),
            CollAlgorithm::kRing);
  EXPECT_EQ(parsed.lookup(ops::CollKind::kAllgather, 5, 100),
            CollAlgorithm::kRing);
  // Unknown kind -> kAuto (caller falls back to the default).
  EXPECT_EQ(parsed.lookup(ops::CollKind::kBroadcast, 8, 64),
            CollAlgorithm::kAuto);
  EXPECT_THROW(ops::CollSelectionTable::from_json("{\"entries\": [{}]}"),
               UsageError);
  EXPECT_THROW(ops::CollSelectionTable::from_json("not json"), UsageError);
}

/// Auto demonstrably follows the loaded table: with a table mapping small
/// allreduces to the ring schedule, the recorded collective span is labeled
/// "allreduce/ring"; without a table it stays "allreduce/binomial".
TEST(CollSelection, AutoFollowsTheLoadedTable) {
  const auto span_labels = [](const RunStats& stats) {
    std::vector<std::string> labels;
    for (int image = 0; image < stats.obs->images; ++image) {
      for (const obs::Span& span : stats.obs->image_track(image).spans) {
        if (span.kind == obs::SpanKind::kCollective &&
            span.label() != nullptr) {
          labels.emplace_back(span.label());
        }
      }
    }
    return labels;
  };
  // The trailing barrier keeps every image alive until the allreduce's op
  // completion (and with it the span) lands: spans are recorded at local op
  // completion, and events still in flight when the last image body returns
  // are dropped with the run.
  const auto workload = [] {
    Team world = team_world();
    long value = world.rank();
    (void)allreduce<long>(world, value, RedOp::kSum);
    team_barrier(world);
  };
  RuntimeOptions options = ext_options(4);
  options.obs.enabled = true;

  ops::clear_selection_table();
  const RunStats untuned = run_stats(options, workload);
  ASSERT_NE(untuned.obs, nullptr);
  const auto before = span_labels(untuned);
  EXPECT_NE(std::find(before.begin(), before.end(), "allreduce/binomial"),
            before.end());

  ops::CollSelectionTable table;
  table.set(ops::CollKind::kAllreduce, 4, sizeof(long), CollAlgorithm::kRing);
  ops::set_selection_table(table);
  const RunStats tuned = run_stats(options, workload);
  const auto after = span_labels(tuned);
  EXPECT_NE(std::find(after.begin(), after.end(), "allreduce/ring"),
            after.end());
  EXPECT_EQ(std::find(after.begin(), after.end(), "allreduce/binomial"),
            after.end());
  ops::clear_selection_table();
}

/// Recursive-doubling allgather needs a power-of-two team; on others the
/// resolver degrades it to ring (still correct, span says so).
TEST(CollSelection, RdAllgatherClampsToRingOnNonPow2Teams) {
  RuntimeOptions options = ext_options(3);
  options.obs.enabled = true;
  const RunStats stats = run_stats(options, [] {
    Team world = team_world();
    std::vector<int> send{world.rank()};
    std::vector<int> recv(3, -1);
    Event done;
    allgather_async<int>(
        world, send, recv,
        {.local_done = done.handle(),
         .algorithm = CollAlgorithm::kRecursiveDoubling});
    done.wait();
    EXPECT_EQ(recv, (std::vector<int>{0, 1, 2}));
    team_barrier(world);
  });
  ASSERT_NE(stats.obs, nullptr);
  bool saw_ring = false;
  for (const obs::Span& span : stats.obs->image_track(0).spans) {
    if (span.kind == obs::SpanKind::kCollective && span.label() != nullptr &&
        std::string(span.label()) == "allgather/ring") {
      saw_ring = true;
    }
  }
  EXPECT_TRUE(saw_ring);
}

/// --- determinism matrix: algorithm × {shards 1,4} × {threads,fibers} --------

struct CollFingerprint {
  std::string trace;
  std::uint64_t events = 0;
  double end_us = 0.0;
  std::vector<long> result;  // image 0's buffers after the workload
};

RuntimeOptions matrix_options(int shards) {
  RuntimeOptions options;
  options.num_images = 8;
  options.shards = shards;
  options.net.latency_us = 2.0;
  options.net.bandwidth_bytes_per_us = 500.0;
  options.net.handler_cost_us = 0.1;
  options.net.jitter_us = 0.9;  // non-FIFO deliveries
  options.max_events = 50'000'000;
  options.record_trace = true;
  return options;
}

/// One run of every multi-algorithm collective pinned to \p algo (skipping
/// kinds that don't support it), capturing the engine trace and image 0's
/// result data.
CollFingerprint coll_fingerprint(const RuntimeOptions& options,
                                 CollAlgorithm algo) {
  rt::Runtime runtime(options);
  rt::install_event_handlers(runtime);
  ops::install_copy_handlers(runtime);
  ops::install_spawn_handlers(runtime);
  ops::install_collective_handlers(runtime);
  core::install_detector_handlers(runtime);
  CollFingerprint fp;
  runtime.run([&] {
    Team world = team_world();
    const int p = world.size();
    std::vector<long> sink;
    const auto run_kind = [&](ops::CollKind kind, auto&& body) {
      if (ops::algorithm_supported(kind, algo)) {
        body();
      }
    };
    run_kind(ops::CollKind::kAllreduce, [&] {
      std::vector<long> value(6);
      for (std::size_t e = 0; e < value.size(); ++e) {
        value[e] = world.rank() * 3L + static_cast<long>(e);
      }
      Event done;
      allreduce_async<long>(world, value, RedOp::kSum,
                            {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      sink.insert(sink.end(), value.begin(), value.end());
    });
    run_kind(ops::CollKind::kAllgather, [&] {
      std::vector<long> send{world.rank() * 7L};
      std::vector<long> recv(static_cast<std::size_t>(p), -1);
      Event done;
      allgather_async<long>(world, send, recv,
                            {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      sink.insert(sink.end(), recv.begin(), recv.end());
    });
    run_kind(ops::CollKind::kReduceScatter, [&] {
      std::vector<long> send(static_cast<std::size_t>(p));
      for (int e = 0; e < p; ++e) {
        send[static_cast<std::size_t>(e)] = world.rank() + 10L * e;
      }
      std::vector<long> recv(1, -1);
      Event done;
      reduce_scatter_async<long>(
          world, send, recv, RedOp::kSum,
          {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      sink.insert(sink.end(), recv.begin(), recv.end());
    });
    run_kind(ops::CollKind::kBroadcast, [&] {
      std::vector<long> buf(4, world.rank() == 2 ? 99L : -1L);
      Event done;
      broadcast_async<long>(world, buf, 2,
                            {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      sink.insert(sink.end(), buf.begin(), buf.end());
    });
    team_barrier(world);
    if (world.rank() == 0) {
      fp.result = sink;
    }
  });
  fp.trace = sim::render_trace(runtime.engine().trace());
  fp.events = runtime.engine().event_count();
  fp.end_us = runtime.engine().now();
  return fp;
}

class CollMatrix : public ::testing::TestWithParam<CollAlgorithm> {};

TEST_P(CollMatrix, BitIdenticalTracesAndResultsAcrossShardsAndRepeats) {
  const CollAlgorithm algo = GetParam();
  std::vector<CollFingerprint> fps;
  std::vector<long> expect_result;
  bool have_expect = false;
  for (const int shards : {1, 4}) {
    // Repeats at a fixed shard count must be bit-identical.
    const CollFingerprint a = coll_fingerprint(matrix_options(shards), algo);
    const CollFingerprint b = coll_fingerprint(matrix_options(shards), algo);
    EXPECT_EQ(a.trace, b.trace) << "shards " << shards;
    EXPECT_EQ(a.events, b.events) << "shards " << shards;
    EXPECT_EQ(a.end_us, b.end_us) << "shards " << shards;
    EXPECT_EQ(a.result, b.result) << "shards " << shards;
    // Result buffers are schedule-independent and shard-count-independent.
    if (!have_expect) {
      expect_result = a.result;
      have_expect = true;
    } else {
      EXPECT_EQ(a.result, expect_result) << "shards " << shards;
    }
    fps.push_back(a);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, CollMatrix,
    ::testing::Values(CollAlgorithm::kBinomialTree,
                      CollAlgorithm::kKnomialTree, CollAlgorithm::kRing,
                      CollAlgorithm::kRecursiveDoubling,
                      CollAlgorithm::kDirect),
    [](const ::testing::TestParamInfo<CollAlgorithm>& info) {
      std::string name = to_string(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

/// The same collective run under different algorithms produces identical
/// buffers (integer payloads): cross-check ring vs binomial vs RD allreduce
/// explicitly at a non-power-of-two size.
TEST(CollMatrix, ResultBuffersIdenticalAcrossAlgorithmsAtNonPow2) {
  std::vector<std::vector<long>> results;
  for (const CollAlgorithm algo :
       ops::supported_algorithms(ops::CollKind::kAllreduce)) {
    RuntimeOptions options = ext_options(6);
    std::vector<long> out;
    run(options, [&out, algo] {
      Team world = team_world();
      std::vector<long> value{world.rank() + 1L, world.rank() * 11L};
      Event done;
      allreduce_async<long>(world, value, RedOp::kSum,
                            {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      if (world.rank() == 0) {
        out = value;
      }
      team_barrier(world);
    });
    results.push_back(out);
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]);
  }
}

/// A collective whose last event is an acknowledgement of its own send
/// completes on the send path, not the message path; its state must still
/// be dropped. After a final barrier every image holds no collective state.
TEST(ExtCollectives, CompletedCollectivesLeaveNoState) {
  run(ext_options(5), [] {
    Team world = team_world();
    const int p = world.size();
    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kAllreduce)) {
      std::vector<long> value(64, world.rank());
      Event done;
      allreduce_async<long>(world, value, RedOp::kSum,
                            {.local_done = done.handle(), .algorithm = algo});
      done.wait();
    }
    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kBroadcast)) {
      std::vector<long> buf(64, world.rank());
      Event done;
      broadcast_async<long>(world, buf, 1,
                            {.local_done = done.handle(), .algorithm = algo});
      done.wait();
    }
    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kScatter)) {
      std::vector<long> send(static_cast<std::size_t>(p), 1);
      std::vector<long> recv(1);
      Event done;
      scatter_async<long>(world, send, recv, 2,
                          {.local_done = done.handle(), .algorithm = algo});
      done.wait();
    }
    team_barrier(world);
    EXPECT_EQ(rt::Image::current().live_collectives(), 0u);
  });
}

TEST(ExtCollectives, AlltoallOnSubteam) {
  run(ext_options(6), [] {
    Team world = team_world();
    Team sub = world.split(world.rank() % 2, world.rank());
    std::vector<int> send(static_cast<std::size_t>(sub.size()));
    for (int j = 0; j < sub.size(); ++j) {
      send[static_cast<std::size_t>(j)] = sub.rank() * 10 + j;
    }
    std::vector<int> recv(static_cast<std::size_t>(sub.size()), -1);
    Event done;
    alltoall_async<int>(sub, send, recv, {.src_done = done.handle()});
    done.wait();
    for (int i = 0; i < sub.size(); ++i) {
      EXPECT_EQ(recv[static_cast<std::size_t>(i)], i * 10 + sub.rank());
    }
    team_barrier(world);
  });
}

}  // namespace
