#pragma once

/// \file caf2.hpp
/// Public umbrella header of the caf2 library — a C++20 reimplementation of
/// Coarray Fortran 2.0's asynchronous-operation runtime (Yang, Murthy,
/// Mellor-Crummey, IPDPS 2013) over a deterministic multi-image simulator.
///
/// Quick tour (see examples/quickstart.cpp for a runnable version):
///
///   caf2::RuntimeOptions opt;
///   opt.num_images = 8;
///   caf2::run(opt, [] {
///     caf2::Team world = caf2::team_world();
///     caf2::Coarray<double> data(world, 1024);
///     caf2::finish(world, [&] {
///       if (caf2::this_image() == 0) {
///         caf2::copy_async(data(1), std::span<const double>(...));
///       }
///     });  // global completion of everything initiated inside
///   });
///
/// Synchronization toolbox (paper Fig. 1):
///   caf2::cofence()      local data completion of implicit async ops
///   caf2::Event          local operation completion (explicit)
///   caf2::finish(...)    global completion across a team

#include <memory>
#include <string>
#include <vector>

#include "core/cofence.hpp"
#include "core/finish.hpp"
#include "ops/collectives.hpp"
#include "ops/copy.hpp"
#include "ops/spawn.hpp"
#include "runtime/coarray.hpp"
#include "runtime/event.hpp"
#include "runtime/team.hpp"
#include "support/config.hpp"

namespace caf2::obs {
struct Capture;
struct Postmortem;
}  // namespace caf2::obs

namespace caf2 {

/// Execute \p body SPMD on options.num_images simulated process images.
/// Installs all standard active-message handlers, runs the simulation to
/// completion, and rethrows the first image failure (if any).
void run(const RuntimeOptions& options, const std::function<void()>& body);

/// Simulator-side statistics of one completed run (real cost of the
/// simulation, as opposed to the virtual-time results the run computed).
///
/// events, virtual_us, context_switches, schedule_digest, and faults are
/// deterministic: for a given options + body (and shard count) they are
/// bit-identical across repeats. peak_rss_bytes is a *measured* property of
/// the host process (monotone high-water mark, not deterministic) —
/// determinism comparisons must exclude it.
struct RunStats {
  std::uint64_t events = 0;  ///< engine events dispatched
  double virtual_us = 0.0;   ///< final virtual time
  std::uint64_t context_switches = 0;  ///< token handoffs between images
  /// sim::Engine::schedule_digest(): one 64-bit digest of every scheduling
  /// decision, equal across repeats and at every shard count.
  std::uint64_t schedule_digest = 0;
  /// Process peak RSS after the run, summed over every worker thread (Linux:
  /// VmHWM of the whole process, not just the scheduler thread).
  std::uint64_t peak_rss_bytes = 0;
  /// --- sharded execution (DESIGN.md §4.11) ----------------------------------
  /// events, virtual_us, schedule_digest, faults and obs are the same at
  /// every shard count (obs up to which network spans a binding
  /// max_net_track_bytes keeps);
  /// context_switches, windows, window_stalls and shard_events describe the
  /// partition and are deterministic for a fixed shard count.
  /// shards=1 reports windows = window_stalls = 0 and a single shard_events
  /// entry equal to `events`.
  int shards = 1;                     ///< engine shards the run executed on
  std::uint64_t windows = 0;          ///< conservative window advances
  std::uint64_t window_stalls = 0;    ///< per-shard window entries with no
                                      ///< dispatchable event (scaling-loss
                                      ///< diagnostic, summed over shards)
  std::vector<std::uint64_t> shard_events;  ///< events dispatched per shard
  FaultStats faults{};       ///< injected-fault / retransmission counters
  /// Observability capture (spans + metrics); non-null only when
  /// RuntimeOptions::obs.enabled was set. Feed to obs::to_chrome_trace(),
  /// obs::to_text(), or obs::analyze_blame().
  std::shared_ptr<const obs::Capture> obs;
};

/// Like run(), but returns the simulator statistics of the finished run.
/// Benchmark drivers use this to report events/sec.
RunStats run_stats(const RuntimeOptions& options,
                   const std::function<void()>& body);

/// World rank of the calling image (0-based; the paper's image index).
int this_image();

/// Total number of process images.
int num_images();

/// Current virtual time in microseconds.
double now_us();

/// Model \p us microseconds of local computation (advances virtual time).
void compute(double us);

/// Per-image deterministic random generator (seeded from RuntimeOptions).
Xoshiro256ss& image_rng();

/// On-demand structured postmortem of the current runtime state (wait-for
/// graph, finish accounting, recent flight-recorder events, network state) —
/// no failure required. Must be called from an image context. Render with
/// obs::to_text(), obs::to_json(), or obs::wait_graph_to_dot().
obs::Postmortem dump_postmortem();

}  // namespace caf2
