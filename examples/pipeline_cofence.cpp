/// A software pipeline over a ring of images, tuned with cofence — the
/// pattern of the paper's Fig. 8 and its producer-consumer micro-benchmark.
///
/// Each image repeatedly produces a block, pushes it to its successor's
/// inbox with an implicitly-synchronized copy_async, and starts producing
/// the next block as soon as *local data completion* allows — it never waits
/// for delivery. A directional cofence(DOWNWARD=WRITE) lets incoming writes
/// (this image's own pending gets) pass while still fencing the outgoing
/// reads, exactly the relaxation of Fig. 8's second cofence.

#include <cstdio>
#include <exception>

#include "core/caf2.hpp"

namespace {

using namespace caf2;

constexpr int kRounds = 32;
constexpr int kBlock = 256;

void spmd_main() {
  Team world = team_world();
  const int me = world.rank();
  const int succ = (me + 1) % world.size();

  // Double-buffered inbox: round parity selects the slot.
  Coarray<double> inbox(world, 2 * kBlock);
  std::vector<double> outbuf(kBlock);
  team_barrier(world);

  const double t0 = now_us();
  finish(world, [&] {
    for (int round = 0; round < kRounds; ++round) {
      // Produce this round's block (modeled cost + real values).
      for (int i = 0; i < kBlock; ++i) {
        outbuf[static_cast<std::size_t>(i)] = me * 1000.0 + round + i * 1e-3;
      }
      compute(5.0);

      // Push into the successor's inbox slot for this round's parity.
      const std::uint64_t slot = static_cast<std::uint64_t>(round % 2) * kBlock;
      copy_async(inbox.slice(succ, slot, kBlock),
                 std::span<const double>(outbuf));

      // Only the *read* of outbuf must complete before we overwrite it;
      // operations that write local data may pass downward unconstrained.
      cofence(Pass::kWrite, Pass::kNone);
    }
  });
  const double elapsed = now_us() - t0;

  // Verify the last round landed from our predecessor.
  const int pred = (me + world.size() - 1) % world.size();
  const std::uint64_t slot = static_cast<std::uint64_t>((kRounds - 1) % 2) * kBlock;
  const double expect = pred * 1000.0 + (kRounds - 1);
  if (inbox[slot] != expect) {
    std::printf("image %d: verification FAILED (%f != %f)\n", me,
                inbox[slot], expect);
  }
  if (me == 0) {
    std::printf("pipeline of %d rounds x %d doubles over %d images: "
                "%.1f virtual us (%.2f us/round)\n",
                kRounds, kBlock, world.size(), elapsed, elapsed / kRounds);
  }
  team_barrier(world);
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
