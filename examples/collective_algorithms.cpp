/// Collective schedules (DESIGN.md §4.13).
///
/// Eight images run the same allreduce under every selectable schedule —
/// binomial tree, ring (reduce-scatter + allgather), recursive doubling —
/// and under an allgather's ring/recursive-doubling/direct choices,
/// verifying every schedule produces identical integer results. Each call
/// names its schedule through CollOptions::algorithm; the default,
/// CollAlgorithm::kAuto, runs the kind's first-listed schedule.
///
/// Exits 0 only when all schedules agree.
///
/// Build & run:   ./build/examples/collective_algorithms

#include <cstdio>
#include <exception>
#include <vector>

#include "core/caf2.hpp"
#include "ops/coll_algo.hpp"

namespace {

using namespace caf2;

constexpr int kImages = 8;

bool run_schedules() {
  bool ok = true;
  RuntimeOptions options;
  options.num_images = kImages;
  run(options, [&ok] {
    Team world = team_world();
    const int p = world.size();

    // The same allreduce under every schedule; integer payloads make even
    // the reassociating ring/recursive-doubling schedules bit-identical.
    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kAllreduce)) {
      std::vector<long> value{world.rank() + 1L, 10L * world.rank()};
      Event done;
      allreduce_async<long>(world, value, RedOp::kSum,
                            {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      const long expect0 = static_cast<long>(p) * (p + 1) / 2;
      const long expect1 = 10L * p * (p - 1) / 2;
      if (value[0] != expect0 || value[1] != expect1) {
        std::fprintf(stderr, "allreduce/%s: wrong result on rank %d\n",
                     to_string(algo), world.rank());
        ok = false;
      }
      if (world.rank() == 0) {
        std::printf("allreduce/%-18s -> {%ld, %ld}\n", to_string(algo),
                    value[0], value[1]);
      }
      team_barrier(world);
    }

    for (const CollAlgorithm algo :
         ops::supported_algorithms(ops::CollKind::kAllgather)) {
      std::vector<long> send{7L * world.rank()};
      std::vector<long> recv(static_cast<std::size_t>(p), -1);
      Event done;
      allgather_async<long>(world, send, recv,
                            {.local_done = done.handle(), .algorithm = algo});
      done.wait();
      for (int r = 0; r < p; ++r) {
        if (recv[static_cast<std::size_t>(r)] != 7L * r) {
          std::fprintf(stderr, "allgather/%s: wrong result on rank %d\n",
                       to_string(algo), world.rank());
          ok = false;
        }
      }
      team_barrier(world);
    }
  });
  return ok;
}

}  // namespace

int main() {
  bool ok = false;
  try {
    ok = run_schedules();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL\n");
    return 1;
  }
  std::printf("all schedules agree\n");
  return 0;
}
