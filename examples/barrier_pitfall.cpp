/// The paper's Fig. 5: why a barrier cannot detect termination of
/// transitively shipped functions — and why finish can.
///
/// Image p ships f1 to q; f1 ships f2 to r. p waits for f1's completion
/// event and then joins a barrier. Because f2 may land on r *after* r has
/// exited the barrier, the barrier "detects" termination while f2 is still
/// in flight. The finish construct counts the transitive spawn and stays
/// open until f2 really completed.

#include <cstdio>
#include <exception>

#include "core/caf2.hpp"
#include "runtime/image.hpp"

namespace {

using namespace caf2;

// Per-image "f2 ran here" flag (Image::scratch, not thread_local: under the
// fiber execution backend every image shares one OS thread).
constexpr char kF2FlagTag = 0;

bool& f2_executed() {
  std::shared_ptr<void>& slot = rt::Image::current().scratch(&kF2FlagTag);
  if (!slot) {
    slot = std::make_shared<bool>(false);
  }
  return *std::static_pointer_cast<bool>(slot);
}

void f2(std::vector<std::uint8_t> payload) {
  f2_executed() = true;
  std::printf("  f2 executed on image %d at t=%.2f us (payload %zu B)\n",
              this_image(), now_us(), payload.size());
}

void f1(std::int32_t r) {
  // The transitive spawn carries a large argument: its injection outlasts
  // the barrier, so f2 is still in flight when the barrier completes. The
  // barrier never learns about this message.
  spawn<f2>(r, std::vector<std::uint8_t>(3500, 0x5A));
}

void spmd_main() {
  Team world = team_world();
  const int p = 0;
  const int q = 1;
  const int r = 2;

  // --- Attempt 1: barrier-based "termination detection" (incorrect) -------
  if (world.rank() == p) {
    Event f1_done;
    spawn<f1>(f1_done, q, static_cast<std::int32_t>(r));
    f1_done.wait();  // f1 completed on q... but f2 is still in flight to r
  }
  team_barrier(world);
  const bool f2_seen_at_barrier = f2_executed();
  if (world.rank() == r) {
    std::printf("image r after barrier:  f2 executed? %s   <- the barrier "
                "missed the transitive spawn (paper Fig. 5)\n",
                f2_seen_at_barrier ? "yes" : "NO");
  }

  // Drain the stray f2 so the second experiment starts clean.
  team_barrier(world);
  compute(50.0);
  team_barrier(world);
  f2_executed() = false;

  // --- Attempt 2: finish (correct) ----------------------------------------
  finish(world, [&] {
    if (world.rank() == p) {
      spawn<f1>(q, static_cast<std::int32_t>(r));
    }
  });
  if (world.rank() == r) {
    std::printf("image r after finish:   f2 executed? %s   <- finish counts "
                "transitive spawns and waited for f2\n",
                f2_executed() ? "yes" : "NO");
  }
  team_barrier(world);
}

}  // namespace

int main() {
  caf2::RuntimeOptions options;
  options.num_images = 3;
  options.net = caf2::NetworkParams::gemini_like();
  // Make the window obvious: f2's large payload injects slowly relative to
  // the barrier's empty tokens.
  options.net.latency_us = 2.0;
  options.net.bandwidth_bytes_per_us = 100.0;
  try {
    caf2::run(options, spmd_main);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
