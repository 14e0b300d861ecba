#pragma once

/// \file probes.hpp
/// Layer probes of the traced run: small fixed loops that time one public
/// entry point of a layer in isolation, so a change to that layer shows as
/// a per-call cost even where a workload's wall time hides it.

#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of \p values (0 when empty).
double median_of(std::vector<double> values);

/// sim::Engine loops from the substrate benchmark, in host ns per engine
/// event: one participant advancing its own clock (self-wake), 64 fibers
/// passing the token round-robin (hand-off), and post_in + advance.
struct EngineProbe {
  double selfwake_ns = 0.0;
  double handoff_ns = 0.0;
  double post_ns = 0.0;
};
EngineProbe probe_engine();

/// Host ns per non-blocking spawn<>() / copy_async() return, timed around
/// the call inside image code (64 images, gemini_like network). Sets
/// \p ok to false when a shipped function went missing.
struct IssueProbe {
  double spawn_ns = 0.0;
  double copy_ns = 0.0;
};
IssueProbe probe_issue(std::uint64_t seed, bool& ok);

/// Host-speed calibration: host seconds of a fixed discrete-event-style loop
/// (binary-heap event queue, one small heap-allocated callback per event)
/// that uses no library code, so no library change moves it. On the shared
/// 4-core VM the benchmark was defined on, host speed swings by 20-30% in
/// phases lasting tens of seconds; the swing hits allocation- and
/// cache-heavy code like the simulator's while sparing pure arithmetic, and
/// this loop tracks it (correlation 0.8-0.85 with a collective run and with
/// UTS hashing). perfbench.cpp scales each run_stats() call's host times by a
/// reference loop time over the loop's mean time around that call.
double calibration_loop_s();

}  // namespace perfbench
