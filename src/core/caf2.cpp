#include "core/caf2.hpp"

#include "core/detectors.hpp"
#include "runtime/internal.hpp"
#include "runtime/runtime.hpp"
#include "support/sysinfo.hpp"

namespace caf2 {

void run(const RuntimeOptions& options, const std::function<void()>& body) {
  (void)run_stats(options, body);
}

RunStats run_stats(const RuntimeOptions& options,
                   const std::function<void()>& body) {
  rt::Runtime runtime(options);
  rt::install_event_handlers(runtime);
  ops::install_copy_handlers(runtime);
  ops::install_spawn_handlers(runtime);
  ops::install_collective_handlers(runtime);
  core::install_detector_handlers(runtime);
  runtime.run(body);
  RunStats stats;
  stats.events = runtime.engine().event_count();
  stats.virtual_us = runtime.engine().now();
  stats.context_switches = runtime.engine().context_switch_count();
  stats.schedule_digest = runtime.engine().schedule_digest();
  stats.peak_rss_bytes = peak_rss_bytes();
  stats.shards = runtime.engine().shard_count();
  stats.windows = runtime.engine().window_count();
  stats.window_stalls = runtime.engine().window_stall_count();
  stats.shard_events = runtime.engine().shard_event_counts();
  stats.faults = runtime.network().fault_stats();
  stats.obs = runtime.take_capture();
  return stats;
}

int this_image() { return rt::Image::current().rank(); }

int num_images() { return rt::Image::current().num_images(); }

double now_us() { return rt::Image::current().runtime().engine().now(); }

void compute(double us) {
  rt::Image::current().runtime().engine().advance(us);
}

Xoshiro256ss& image_rng() { return rt::Image::current().rng(); }

obs::Postmortem dump_postmortem() {
  return rt::Image::current().runtime().dump_postmortem();
}

}  // namespace caf2
