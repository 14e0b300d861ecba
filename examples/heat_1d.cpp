/// 1-D heat diffusion with halo exchange — a classic SPMD stencil showing
/// how the three completion levels compose in a real solver:
///
///  - halo pushes are implicitly-synchronized copy_async calls;
///  - a CoEvent per neighbor signals halo arrival (local operation
///    completion of the incoming data);
///  - cofence gives local data completion so the interior update can start
///    while halos are still in flight (communication/computation overlap);
///  - a final allreduce checks convergence.

#include <cmath>
#include <cstdio>
#include <exception>

#include "core/caf2.hpp"

namespace {

using namespace caf2;

constexpr int kLocal = 128;   // interior cells per image
constexpr int kSteps = 50;
constexpr double kAlpha = 0.25;

void spmd_main() {
  Team world = team_world();
  const int me = world.rank();
  const int p = world.size();
  const int left = (me + p - 1) % p;
  const int right = (me + 1) % p;

  // Cells [1, kLocal] are interior; 0 and kLocal+1 are halos.
  Coarray<double> grid(world, kLocal + 2);
  Coarray<double> next(world, kLocal + 2);
  CoEvent halo_in(world);  // notified once per arriving halo

  for (int i = 0; i < kLocal + 2; ++i) {
    grid[static_cast<std::size_t>(i)] = 0.0;
  }
  if (me == 0) {
    grid[1] = 1000.0;  // heat source at the global left edge
  }
  team_barrier(world);

  const double t0 = now_us();
  for (int step = 0; step < kSteps; ++step) {
    // Push boundary cells into the neighbors' halo slots. Explicit dst_done
    // events double as arrival notifications for the neighbors.
    const double my_left = grid[1];
    const double my_right = grid[kLocal];
    copy_async(grid.slice(left, kLocal + 1, 1),
               std::span<const double>(&my_left, 1),
               {.dst_done = halo_in(left)});
    copy_async(grid.slice(right, 0, 1),
               std::span<const double>(&my_right, 1),
               {.dst_done = halo_in(right)});

    // Overlap: update the interior (cells that need no halo) while the
    // halos travel.
    for (int i = 2; i < kLocal; ++i) {
      next[static_cast<std::size_t>(i)] =
          grid[static_cast<std::size_t>(i)] +
          kAlpha * (grid[static_cast<std::size_t>(i - 1)] -
                    2.0 * grid[static_cast<std::size_t>(i)] +
                    grid[static_cast<std::size_t>(i + 1)]);
    }
    compute(0.05 * (kLocal - 2));

    // Both halos arrived (one notification per neighbor push landing here).
    halo_in.local().wait_many(2);
    next[1] = grid[1] + kAlpha * (grid[0] - 2.0 * grid[1] + grid[2]);
    next[kLocal] = grid[kLocal] +
                   kAlpha * (grid[kLocal - 1] - 2.0 * grid[kLocal] +
                             grid[kLocal + 1]);
    compute(0.1);

    // Swap: copy next's interior back into grid (locally).
    for (int i = 1; i <= kLocal; ++i) {
      grid[static_cast<std::size_t>(i)] = next[static_cast<std::size_t>(i)];
    }
    if (me == 0) {
      grid[1] = 1000.0;  // Dirichlet source
    }
    team_barrier(world);  // step boundary
  }

  // Global diagnostics.
  double local_heat = 0.0;
  for (int i = 1; i <= kLocal; ++i) {
    local_heat += grid[static_cast<std::size_t>(i)];
  }
  Event reduced;
  double total = local_heat;
  allreduce_async<double>(world, std::span<double>(&total, 1), RedOp::kSum,
                          {.src_done = reduced.handle()});
  reduced.wait();

  if (me == 0) {
    std::printf("heat_1d: %d images x %d cells, %d steps: total heat %.3f, "
                "virtual time %.1f us\n",
                p, kLocal, kSteps, total, now_us() - t0);
  }
  team_barrier(world);
}

}  // namespace

int main() {
  caf2::RuntimeOptions options;
  options.num_images = 8;
  options.net = caf2::NetworkParams::gemini_like();
  try {
    caf2::run(options, spmd_main);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
