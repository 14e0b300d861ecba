/// Kernel correctness: UTS node counts must match the sequential count for
/// every image count and detector; RandomAccess function shipping must
/// reproduce the race-free serial checksum exactly.

#include <gtest/gtest.h>

#include <set>

#include "kernels/randomaccess.hpp"
#include "kernels/uts_scheduler.hpp"
#include "support/rng.hpp"

namespace {

using caf2::kernels::RaConfig;
using caf2::kernels::UtsConfig;
using caf2::kernels::UtsTree;

caf2::RuntimeOptions sim_options(int images) {
  caf2::RuntimeOptions options;
  options.num_images = images;
  options.net.latency_us = 1.5;
  options.net.bandwidth_bytes_per_us = 2000.0;
  options.net.handler_cost_us = 0.1;
  options.net.jitter_us = 0.3;  // non-FIFO delivery
  options.max_events = 20'000'000;
  return options;
}

TEST(UtsTree, DeterministicAndNontrivial) {
  UtsTree tree;
  tree.b0 = 3.0;
  tree.max_depth = 6;
  const std::uint64_t count1 = tree.count_tree();
  const std::uint64_t count2 = tree.count_tree();
  EXPECT_EQ(count1, count2);
  EXPECT_GT(count1, 50u);  // unbalanced but not degenerate

  // The paper's tree (b0 = 4, root 19) to depth 8 pins every SHA-1 digest
  // on its ~113K nodes.
  UtsTree paper;
  paper.b0 = 4.0;
  paper.max_depth = 8;
  paper.root_seed = 19;
  EXPECT_EQ(paper.count_tree(), 112'955u);
}

TEST(UtsTree, DepthLimitMakesLeaves) {
  UtsTree tree;
  tree.max_depth = 0;
  EXPECT_EQ(tree.count_tree(), 1u);
}

class UtsRunTest : public ::testing::TestWithParam<int> {};

TEST_P(UtsRunTest, CountsMatchSequential) {
  const int images = GetParam();
  UtsConfig config;
  config.tree.b0 = 3.0;
  config.tree.max_depth = 6;
  config.node_cost_us = 0.2;
  const std::uint64_t expected = config.tree.count_tree();

  caf2::run(sim_options(images), [&] {
    const auto stats = caf2::kernels::uts_run(caf2::team_world(), config);
    EXPECT_EQ(stats.total_nodes, expected);
    EXPECT_GE(stats.finish_rounds, 1);
  });
}

INSTANTIATE_TEST_SUITE_P(Images, UtsRunTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(UtsRun, AllDetectorsAgreeOnCount) {
  UtsConfig config;
  config.tree.b0 = 3.0;
  config.tree.max_depth = 5;
  const std::uint64_t expected = config.tree.count_tree();
  for (auto detector :
       {caf2::DetectorKind::kEpoch, caf2::DetectorKind::kSpeculative,
        caf2::DetectorKind::kFourCounter, caf2::DetectorKind::kCentralized}) {
    config.detector = detector;
    caf2::run(sim_options(4), [&] {
      const auto stats = caf2::kernels::uts_run(caf2::team_world(), config);
      EXPECT_EQ(stats.total_nodes, expected)
          << "detector " << static_cast<int>(detector);
    });
  }
}

class RaTest : public ::testing::TestWithParam<int> {};

TEST_P(RaTest, FunctionShippingMatchesSerialChecksum) {
  const int images = GetParam();
  RaConfig config;
  config.log2_local_table = 6;
  config.updates_per_image = 200;
  config.bunch = 64;
  caf2::run(sim_options(images), [&] {
    const auto stats = caf2::kernels::ra_run_function_shipping(
        caf2::team_world(), config);
    const std::uint64_t expected = caf2::kernels::ra_expected_checksum(
        images, caf2::this_image(), config);
    EXPECT_EQ(stats.checksum, expected);
    EXPECT_EQ(stats.updates, config.updates_per_image);
  });
}

INSTANTIATE_TEST_SUITE_P(Images, RaTest, ::testing::Values(1, 2, 4, 8));

TEST(Ra, AppliedUpdatesSumToTotal) {
  RaConfig config;
  config.log2_local_table = 6;
  config.updates_per_image = 100;
  config.bunch = 32;
  caf2::run(sim_options(4), [&] {
    const auto stats = caf2::kernels::ra_run_function_shipping(
        caf2::team_world(), config);
    const auto applied_total = caf2::allreduce<std::uint64_t>(
        caf2::team_world(), stats.applied, caf2::RedOp::kSum);
    EXPECT_EQ(applied_total, 4 * config.updates_per_image);
  });
}

TEST(Ra, GetUpdatePutMatchesSerialChecksumWhenUpdatesDoNotCollide) {
  // The reference version has the data races the paper acknowledges: when
  // two images hit the same word concurrently, a get-get-put-put interleave
  // loses an update. When no global index is hit twice, no race is possible
  // and even the reference version must match the serial checksum. The
  // update streams are deterministic, so check which regime we are in.
  RaConfig config;
  config.log2_local_table = 14;
  config.updates_per_image = 40;
  const int images = 2;

  bool collision_free = true;
  {
    std::set<std::uint64_t> seen;
    const std::uint64_t total =
        (1ULL << config.log2_local_table) * static_cast<std::uint64_t>(images);
    for (int img = 0; img < images && collision_free; ++img) {
      caf2::HpccRandom stream(97'003'919 +
                              static_cast<std::int64_t>(
                                  img * config.updates_per_image));
      for (std::uint64_t k = 0; k < config.updates_per_image; ++k) {
        if (!seen.insert(stream.next() % total).second) {
          collision_free = false;
          break;
        }
      }
    }
  }
  ASSERT_TRUE(collision_free)
      << "pick parameters whose streams do not collide";

  caf2::run(sim_options(images), [&] {
    const auto stats = caf2::kernels::ra_run_get_update_put(
        caf2::team_world(), config);
    const std::uint64_t expected = caf2::kernels::ra_expected_checksum(
        images, caf2::this_image(), config);
    EXPECT_EQ(stats.checksum, expected);
  });
}

TEST(Ra, BunchSizeDoesNotChangeResult) {
  for (int bunch : {1, 16, 100}) {
    RaConfig config;
    config.log2_local_table = 5;
    config.updates_per_image = 100;
    config.bunch = bunch;
    caf2::run(sim_options(3), [&] {
      const auto stats = caf2::kernels::ra_run_function_shipping(
          caf2::team_world(), config);
      const std::uint64_t expected = caf2::kernels::ra_expected_checksum(
          3, caf2::this_image(), config);
      EXPECT_EQ(stats.checksum, expected) << "bunch " << bunch;
    });
  }
}

}  // namespace
