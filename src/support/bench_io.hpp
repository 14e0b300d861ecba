#pragma once

/// \file bench_io.hpp
/// Wall-clock timing and machine-readable benchmark output.
///
/// Every benchmark driver emits a BENCH_<name>.json next to its table so the
/// simulator's real-time performance (events/sec, wall seconds per sweep
/// point) is tracked from run to run — virtual-time results tell us about
/// the modeled machine, these files tell us about the simulator itself.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace caf2 {

/// Version stamp written into every BENCH_*.json ("schema_version"). Bump
/// when the document shape changes so downstream tooling can dispatch.
inline constexpr int kBenchSchemaVersion = 1;

/// Stopwatch over std::chrono::steady_clock (real time, not virtual time).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  void reset() { start_ = std::chrono::steady_clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Measurements of one benchmark sweep point.
struct BenchRecord {
  std::string name;              ///< sweep-point label, e.g. "allreduce/images=32"
  double wall_seconds = 0.0;     ///< real time spent simulating
  std::uint64_t events = 0;      ///< simulator events dispatched
  double events_per_sec = 0.0;   ///< events / wall_seconds
  double virtual_us = 0.0;       ///< final virtual time of the run
  /// The run's RunStats::schedule_digest as 16 hex digits; written to the
  /// JSON only when set.
  std::string schedule_digest;
  /// Driver-specific extras (e.g. "images", "bunch", "virtual_ms").
  std::vector<std::pair<std::string, double>> metrics;
};

/// Serialize \p records to \p path as JSON:
///   {"benchmark": ..., "meta": {...}, "sweep": [{...}, ...]}
/// Returns false (after printing to stderr) if the file cannot be written.
bool write_bench_json(
    const std::string& path, const std::string& benchmark,
    const std::vector<BenchRecord>& records,
    const std::vector<std::pair<std::string, std::string>>& meta = {});

/// Escape a string for embedding in a JSON document (quotes not included).
std::string json_escape(const std::string& text);

/// Append \p text to \p out, escaped as json_escape() does.
void json_escape_append(std::string& out, std::string_view text);

}  // namespace caf2
