/// The paper's motivating example for function shipping (Figs. 2 and 3):
/// a work-stealing steal attempt written two ways.
///
///  - PGAS style (paper Fig. 2): the thief performs five round trips of
///    one-sided operations against the victim — get metadata, lock, re-get,
///    put reserved metadata, get the work.
///  - Function shipping (paper Fig. 3): the whole check-and-reserve ships to
///    the victim and runs there; only two spawns (two one-way trips) cross
///    the network.
///
/// The example measures the virtual time of a steal under both protocols,
/// reproducing the 5-round-trip vs 2-round-trip structure.

#include <cstdio>
#include <exception>

#include "core/caf2.hpp"
#include "runtime/image.hpp"

namespace {

using namespace caf2;

struct Meta {
  std::int64_t available = 0;
};

constexpr int kItems = 64;

/// State of the victim's queue, published as coarrays.
struct Queues {
  Coarray<Meta> metadata;
  Coarray<std::int64_t> items;
  Coarray<std::int64_t> stolen;  ///< thief-side landing buffer

  explicit Queues(const Team& world)
      : metadata(world, 1), items(world, kItems), stolen(world, kItems) {}
};

/// Per-image example state (Image::scratch, not thread_local: under the
/// fiber execution backend every image shares one OS thread, and steal_work
/// must see the queues of the image it landed on).
struct StealCtx {
  Queues* queues = nullptr;
  bool steal_done = false;
  std::int64_t steal_amount = 0;
};

constexpr char kStealTag = 0;

StealCtx& ctx() {
  std::shared_ptr<void>& slot = rt::Image::current().scratch(&kStealTag);
  if (!slot) {
    slot = std::make_shared<StealCtx>();
  }
  return *std::static_pointer_cast<StealCtx>(slot);
}

/// Fig. 3's provide_work: runs back on the thief.
void provide_work(std::int64_t amount) {
  ctx().steal_done = true;
  ctx().steal_amount = amount;
}

/// Fig. 3's steal_work: the entire steal protocol, local to the victim.
void steal_work(std::int32_t thief) {
  Queues& q = *ctx().queues;
  Meta& meta = q.metadata.local()[0];
  if (meta.available > 0) {  // work_available + reserve_work, all local
    const std::int64_t grab = meta.available / 2 + 1;
    meta.available -= grab;
    // Hand the reserved items to the thief: one more spawn (trip #2).
    spawn<provide_work>(thief, grab);
  } else {
    spawn<provide_work>(thief, std::int64_t{0});
  }
}

double steal_with_function_shipping(const Team& world, int victim) {
  const double t0 = now_us();
  ctx().steal_done = false;
  // finish is collective: every image opens the block, image 0 steals.
  finish(world, [&] {
    if (world.rank() == 0) {
      spawn<steal_work>(victim, std::int32_t{0});
    }
  });
  return now_us() - t0;
}

double steal_with_gets_and_puts(const Team& world, Queues& q, int victim) {
  const double t0 = now_us();
  if (world.rank() == 0) {
    // Trip 1: m <- get(v.metadata)
    Meta meta{};
    Event e1;
    copy_async(std::span<Meta>(&meta, 1), q.metadata(victim),
               {.dst_done = e1.handle()});
    e1.wait();
    if (meta.available > 0) {
      // Trip 2: lock(v) — modeled as a one-element swap round trip.
      std::int64_t lock_word = 1;
      Event e2;
      copy_async(q.items.slice(victim, 0, 1),
                 std::span<const std::int64_t>(&lock_word, 1),
                 {.dst_done = e2.handle()});
      e2.wait();
      // Trip 3: m <- get(v.metadata) again under the lock.
      Event e3;
      copy_async(std::span<Meta>(&meta, 1), q.metadata(victim),
                 {.dst_done = e3.handle()});
      e3.wait();
      // Trip 4: put(m - w, v.metadata)
      Meta updated{meta.available - (meta.available / 2 + 1)};
      Event e4;
      copy_async(q.metadata(victim), std::span<const Meta>(&updated, 1),
                 {.dst_done = e4.handle()});
      e4.wait();
      // Trip 5: queue <- get(w, v.queue) + unlock
      std::array<std::int64_t, 4> grabbed{};
      Event e5;
      copy_async(std::span<std::int64_t>(grabbed), q.items.slice(victim, 0, 4),
                 {.dst_done = e5.handle()});
      e5.wait();
    }
  }
  team_barrier(world);
  return now_us() - t0;
}

void spmd_main() {
  Team world = team_world();
  Queues queues(world);
  ctx().queues = &queues;
  queues.metadata[0].available = world.rank() == 1 ? kItems : 0;
  team_barrier(world);

  const double gp = steal_with_gets_and_puts(world, queues, 1);
  team_barrier(world);
  queues.metadata[0].available = world.rank() == 1 ? kItems : 0;
  team_barrier(world);
  const double fs = steal_with_function_shipping(world, 1);

  if (world.rank() == 0) {
    std::printf("steal attempt, get/put protocol   : %7.2f virtual us "
                "(5 round trips, paper Fig. 2)\n", gp);
    std::printf("steal attempt, function shipping  : %7.2f virtual us "
                "(2 one-way trips + finish, paper Fig. 3)\n", fs);
    std::printf("stolen via FS: %lld items\n",
                static_cast<long long>(ctx().steal_amount));
  }
  team_barrier(world);
  ctx().queues = nullptr;
}

}  // namespace

int main() {
  caf2::RuntimeOptions options;
  options.num_images = 4;
  options.net = caf2::NetworkParams::gemini_like();
  try {
    caf2::run(options, spmd_main);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
