/// Quickstart: the caf2 programming model in one file.
///
/// Eight simulated process images cooperate to build a distributed table:
/// every image fills a local block, ships a checksum function to its right
/// neighbor, and the team reduces a global sum — demonstrating coarrays,
/// asynchronous copies with cofence, function shipping with finish, and an
/// asynchronous collective.
///
/// Build & run:   ./build/examples/quickstart

#include <cstdio>
#include <exception>

#include "core/caf2.hpp"

namespace {

/// Shipped function: runs on the image that owns `block`.
void tally(caf2::Coref<long> block, caf2::Coref<long> sums) {
  long total = 0;
  for (long value : block.local()) {
    total += value;
  }
  sums.local()[0] += total;
}

void spmd_main() {
  caf2::Team world = caf2::team_world();
  const int me = world.rank();
  const int p = world.size();

  // A coarray: every image owns 16 elements of a distributed table.
  caf2::Coarray<long> table(world, 16);
  caf2::Coarray<long> sums(world, 1);
  sums[0] = 0;

  // Fill a private buffer, then push it into the *next* image's block with
  // an implicitly-synchronized asynchronous copy. cofence() gives local
  // data completion: after it, `mine` may be reused — the copy itself may
  // still be in flight (that is the point of the paper's Fig. 12).
  std::vector<long> mine(16);
  for (int i = 0; i < 16; ++i) {
    mine[static_cast<std::size_t>(i)] = me * 100 + i;
  }
  caf2::team_barrier(world);

  caf2::finish(world, [&] {
    caf2::copy_async(table((me + 1) % p), std::span<const long>(mine));
    caf2::cofence();  // `mine` is reusable here
    mine.assign(16, -1);
  });
  // finish guarantees *global* completion: every block has its data now.

  // Ship a function to the neighbor that owns the data we just wrote; it
  // executes there, reading the block locally (coarrays travel by
  // reference into shipped functions).
  caf2::finish(world, [&] {
    caf2::spawn<tally>((me + 1) % p, table.ref(), sums.ref());
  });

  // An asynchronous collective with explicit completion: reduce the partial
  // sums while this image could keep computing, then wait.
  long value = sums[0];
  caf2::Event done;
  caf2::allreduce_async<long>(world, std::span<long>(&value, 1),
                              caf2::RedOp::kSum, {.src_done = done.handle()});
  done.wait();

  if (me == 0) {
    long expect = 0;
    for (int img = 0; img < p; ++img) {
      for (int i = 0; i < 16; ++i) {
        expect += img * 100 + i;
      }
    }
    std::printf("global sum = %ld (expected %ld) across %d images, "
                "virtual time %.2f us\n",
                value, expect, p, caf2::now_us());
  }
  caf2::team_barrier(world);
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
