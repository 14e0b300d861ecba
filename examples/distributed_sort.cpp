/// Distributed sample sort — the `sort` entry of the paper's asynchronous
/// collective vision (§II-C3). Each image starts with a block of random
/// keys; after sort_async the keys are globally range-partitioned by team
/// rank, and the collective's completion events let the sort overlap with
/// unrelated computation.

#include <algorithm>
#include <cstdio>
#include <exception>

#include "core/caf2.hpp"

namespace {

void spmd_main() {
  caf2::Team world = caf2::team_world();
  auto& rng = caf2::image_rng();

  std::vector<std::uint32_t> keys(1000);
  for (auto& key : keys) {
    key = static_cast<std::uint32_t>(rng.next_below(1'000'000));
  }

  caf2::Event done;
  caf2::sort_async<std::uint32_t>(world, keys, {.src_done = done.handle()});

  // Overlap: the sort's sampling/splitting/exchange runs through the
  // progress engine while this image does something else.
  caf2::compute(25.0);
  done.wait();

  // Verify the global order via neighbor boundary checks.
  const std::uint32_t my_min = keys.empty() ? ~0u : keys.front();
  std::vector<std::uint32_t> prev_max{keys.empty() ? 0u : keys.back()};
  caf2::Event scanned;
  caf2::scan_async<std::uint32_t>(world, prev_max, caf2::RedOp::kMax,
                                  /*exclusive=*/true,
                                  {.src_done = scanned.handle()});
  scanned.wait();
  const bool sorted_locally = std::is_sorted(keys.begin(), keys.end());
  const bool boundary_ok =
      world.rank() == 0 || keys.empty() || prev_max[0] <= my_min;

  const long total = caf2::allreduce<long>(
      world, static_cast<long>(keys.size()), caf2::RedOp::kSum);
  std::printf("image %d: %4zu keys  locally sorted: %s  boundary ok: %s\n",
              world.rank(), keys.size(), sorted_locally ? "yes" : "NO",
              boundary_ok ? "yes" : "NO");
  caf2::team_barrier(world);
  if (world.rank() == 0) {
    std::printf("global: %ld keys range-partitioned over %d images in "
                "%.1f virtual us\n",
                total, world.size(), caf2::now_us());
  }
  caf2::team_barrier(world);
}

}  // namespace

int main() {
  caf2::RuntimeOptions options;
  options.num_images = 6;
  options.net = caf2::NetworkParams::gemini_like();
  try {
    caf2::run(options, spmd_main);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
