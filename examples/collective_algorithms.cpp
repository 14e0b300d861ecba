/// Collective schedules and the autotuned selection table (DESIGN.md §4.13).
///
/// Eight images run the same allreduce under every selectable schedule —
/// binomial tree, ring (reduce-scatter + allgather), recursive doubling —
/// and under an allgather's ring/direct choices, verifying every schedule
/// produces identical integer results. Then a small selection table is
/// installed (the same caf2.coll_selection JSON shape that
/// `bench_collectives --tune` measures and CAF2_COLL_TABLE loads) and an
/// observed run proves CollAlgorithm::kAuto follows it: the recorded
/// collective span is labeled with the table's winner, not the built-in
/// default.
///
/// Exits 0 only when all schedules agree and Auto demonstrably follows the
/// table.
///
/// Build & run:   ./build/examples/collective_algorithms

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
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

/// Install a measured-winner table mapping 8-image scalar allreduces to the
/// ring schedule, run with CollAlgorithm::kAuto under the span recorder, and
/// check the collective span is labeled "allreduce/ring".
bool run_auto_follows_table() {
  ops::CollSelectionTable table;
  table.set(ops::CollKind::kAllreduce, kImages, sizeof(long),
            CollAlgorithm::kRing);
  ops::set_selection_table(table);

  RuntimeOptions options;
  options.num_images = kImages;
  options.obs.enabled = true;
  const RunStats stats = run_stats(options, [] {
    Team world = team_world();
    long value = world.rank();
    (void)allreduce<long>(world, value, RedOp::kSum);
    team_barrier(world);  // keep images alive until op completions land
  });
  ops::clear_selection_table();

  bool saw_ring = false;
  for (int image = 0; image < stats.obs->images; ++image) {
    for (const obs::Span& span : stats.obs->image_track(image).spans) {
      if (span.kind == obs::SpanKind::kCollective && span.label() != nullptr &&
          std::strcmp(span.label(), "allreduce/ring") == 0) {
        saw_ring = true;
      }
    }
  }
  std::printf("auto-follows-table: collective span labeled allreduce/ring: "
              "%s\n",
              saw_ring ? "yes" : "NO");
  return saw_ring;
}

}  // namespace

int main() {
  bool schedules_ok = false;
  bool auto_ok = false;
  try {
    schedules_ok = run_schedules();
    auto_ok = run_auto_follows_table();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!schedules_ok || !auto_ok) {
    std::fprintf(stderr, "FAIL\n");
    return 1;
  }
  std::printf("all schedules agree; kAuto follows the loaded table\n");
  return 0;
}
