#pragma once

/// \file bench_common.hpp
/// Shared plumbing for the figure-reproduction benchmark drivers.
///
/// Every driver prints the same series the corresponding paper figure plots.
/// Times are *virtual* seconds/microseconds of the interconnect simulator
/// (DESIGN.md §1): absolute values are not comparable to the paper's Cray
/// numbers, but the shapes — orderings, ratios, crossovers — are.
///
/// All drivers accept:
///   --quick            smaller sweeps (used in CI-style runs)
///   --images=a,b,c     override the image-count sweep
///   --jobs=n           run up to n sweep points concurrently
///                      (default: one per hardware thread)
///   --shards=n         run each simulation on an n-shard parallel engine
///                      (DESIGN.md §4.11); raises the paper-scale drivers'
///                      default image sweeps to the 4K-32K band
///   --json=path        override the BENCH_<name>.json output path
///
/// Each Engine is fully self-contained (its own heap, mailboxes, RNG
/// streams), so independent sweep points run concurrently on a small thread
/// pool (run_sweep) without perturbing each other's virtual-time results.

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/caf2.hpp"
#include "obs/blame.hpp"
#include "obs/export.hpp"
#include "support/bench_io.hpp"
#include "support/table.hpp"

namespace caf2::bench {

struct BenchArgs {
  bool quick = false;
  std::vector<int> images;  ///< empty = driver default
  int jobs = 0;             ///< sweep concurrency; 0 = hardware threads
  int shards = 1;           ///< engine shards per simulation (1 = serial DES)
  std::string json;         ///< JSON output path; empty = driver default
};

/// Parse a strictly numeric flag value; reject anything std::stoi would
/// throw on (or silently truncate) with a diagnostic and a nonzero exit.
inline int parse_int_or_die(const std::string& token, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(token.c_str(), &end, 10);
  if (token.empty() || end == nullptr || *end != '\0' || errno == ERANGE ||
      value < INT_MIN || value > INT_MAX) {
    std::fprintf(stderr, "%s: not a valid integer: '%s'\n", flag,
                 token.c_str());
    std::exit(2);
  }
  return static_cast<int>(value);
}

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      args.quick = true;
    } else if (arg.rfind("--images=", 0) == 0) {
      const std::string list = arg.substr(9);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string token =
            list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        const int images = parse_int_or_die(token, "--images");
        if (images <= 0) {
          std::fprintf(stderr, "--images: image count must be positive: %d\n",
                       images);
          std::exit(2);
        }
        args.images.push_back(images);
        if (comma == std::string::npos) {
          break;
        }
        pos = comma + 1;
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      args.jobs = parse_int_or_die(arg.substr(7), "--jobs");
      if (args.jobs < 0) {
        std::fprintf(stderr, "--jobs: must be >= 0\n");
        std::exit(2);
      }
    } else if (arg.rfind("--shards=", 0) == 0) {
      args.shards = parse_int_or_die(arg.substr(9), "--shards");
      if (args.shards < 1) {
        std::fprintf(stderr, "--shards: must be >= 1\n");
        std::exit(2);
      }
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: %s [--quick] [--images=a,b,c] [--jobs=n] "
                   "[--shards=n] [--json=path]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  return args;
}

/// Interconnect model used by all figure drivers: Gemini-class latency and
/// bandwidth with a little jitter so channels are not FIFO. \p shards > 1
/// runs the simulation on a sharded parallel engine (DESIGN.md §4.11);
/// virtual-time results then differ from the serial engine's, so keep shard
/// counts fixed when comparing runs.
inline RuntimeOptions bench_options(int images, int shards = 1) {
  RuntimeOptions options;
  options.num_images = images;
  options.net = NetworkParams::gemini_like();
  options.max_events = 600'000'000;
  options.label = "bench";
  options.shards = shards;
  return options;
}

/// --- parallel sweep driver -------------------------------------------------

/// One independently simulable configuration of a sweep.
struct SweepPoint {
  std::string name;
  /// Runs the point's simulation(s) and returns its measurements. The
  /// returned record's `name` is overwritten with the point's name.
  std::function<BenchRecord()> body;
};

/// Resolve a --jobs value: 0 means one worker per hardware thread.
inline int resolve_jobs(int requested, std::size_t points) {
  int jobs = requested > 0
                 ? requested
                 : static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) {
    jobs = 1;
  }
  if (static_cast<std::size_t>(jobs) > points) {
    jobs = static_cast<int>(points);
  }
  return jobs;
}

/// Run every sweep point, up to \p jobs at a time, on a thread pool.
/// Results come back in sweep order regardless of completion order. The
/// first exception thrown by a point is rethrown after the pool drains.
inline std::vector<BenchRecord> run_sweep(std::vector<SweepPoint> points,
                                          int jobs = 0) {
  std::vector<BenchRecord> results(points.size());
  if (points.empty()) {
    return results;
  }
  const int workers = resolve_jobs(jobs, points.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> poisoned{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t index = next.fetch_add(1);
      if (index >= points.size() || poisoned.load()) {
        return;
      }
      try {
        results[index] = points[index].body();
        results[index].name = points[index].name;
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
        poisoned.store(true);
        return;
      }
    }
  };

  if (workers == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      pool.emplace_back(worker);
    }
    for (std::thread& thread : pool) {
      thread.join();
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
  return results;
}

/// A schedule digest as 16 lower-case hex digits, the form every sweep
/// record carries (BenchRecord::schedule_digest): equal digests at two
/// commits or shard counts mean the same schedule.
inline std::string digest_hex(std::uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

/// Run one simulation under wall-clock measurement and fill the simulator-
/// side fields of a BenchRecord (wall seconds, events, events/sec, schedule
/// digest).
inline BenchRecord measure_run(const RuntimeOptions& options,
                               const std::function<void()>& body) {
  WallTimer timer;
  const RunStats stats = run_stats(options, body);
  BenchRecord record;
  record.wall_seconds = timer.seconds();
  record.schedule_digest = digest_hex(stats.schedule_digest);
  record.events = stats.events;
  record.virtual_us = stats.virtual_us;
  record.events_per_sec =
      record.wall_seconds > 0.0
          ? static_cast<double>(stats.events) / record.wall_seconds
          : 0.0;
  if (stats.shards > 1) {
    record.metrics.emplace_back("shards", static_cast<double>(stats.shards));
    record.metrics.emplace_back("windows",
                                static_cast<double>(stats.windows));
    record.metrics.emplace_back("window_stalls",
                                static_cast<double>(stats.window_stalls));
  }
  return record;
}

/// Emit BENCH_<name>.json (or args.json when set) for a finished sweep.
inline void emit_bench_json(const BenchArgs& args, const std::string& name,
                            const std::vector<BenchRecord>& records) {
  const std::string path =
      args.json.empty() ? "BENCH_" + name + ".json" : args.json;
  std::vector<std::pair<std::string, std::string>> meta;
  meta.emplace_back("quick", args.quick ? "true" : "false");
  meta.emplace_back("jobs",
                    std::to_string(resolve_jobs(args.jobs, records.size())));
  meta.emplace_back("hardware_threads",
                    std::to_string(std::thread::hardware_concurrency()));
  meta.emplace_back("shards", std::to_string(args.shards));
  if (write_bench_json(path, name, records, meta)) {
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

/// --- blame sidecars ---------------------------------------------------------

/// bench_options() with span recording enabled, for drivers that emit a
/// BENCH_<name>_blame.json sidecar. Recording never schedules events, so the
/// virtual-time results are identical to an un-observed run at the same shard
/// count; only wall-clock figures shift (by the cost of appending spans).
inline RuntimeOptions bench_obs_options(int images, int shards = 1) {
  RuntimeOptions options = bench_options(images, shards);
  options.obs.enabled = true;
  // Figure drivers at 1024 images generate far more network flights than
  // the default cap retains; flights feed the critical path and the trace
  // export, so keep more of them.
  options.obs.max_net_track_bytes = std::size_t{64} << 20;
  return options;
}

/// Append a blame report's aggregate buckets and critical path to a sweep
/// record's metrics (keys: blame_<bucket>_us, critical_path_us, ...).
inline void append_blame_metrics(BenchRecord& record,
                                 const obs::BlameReport& report) {
  for (std::size_t b = 0; b < obs::kBlameBuckets; ++b) {
    const auto blame = static_cast<obs::Blame>(b);
    record.metrics.emplace_back(
        std::string("blame_") + obs::to_string(blame) + "_us",
        report.total[blame]);
  }
  record.metrics.emplace_back("critical_path_us", report.critical_path_us);
  record.metrics.emplace_back(
      "critical_path_hops", static_cast<double>(report.critical_path_hops));
  record.metrics.emplace_back(
      "finish_rounds_max", static_cast<double>(report.finish_rounds_max));
  record.metrics.emplace_back("retransmit_us", report.retransmit_us);
}

/// Path of a named sidecar next to the main BENCH json.
inline std::string sidecar_path(const BenchArgs& args, const std::string& name,
                                const std::string& kind) {
  return args.json.empty() ? "BENCH_" + name + "_" + kind + ".json"
                           : args.json + "." + kind;
}

/// Emit the BENCH_<name>_blame.json sidecar for a finished sweep.
inline void emit_blame_json(
    const BenchArgs& args, const std::string& name,
    const std::vector<BenchRecord>& records,
    std::vector<std::pair<std::string, std::string>> extra_meta = {}) {
  const std::string path = sidecar_path(args, name, "blame");
  std::vector<std::pair<std::string, std::string>> meta;
  meta.emplace_back("quick", args.quick ? "true" : "false");
  for (auto& entry : extra_meta) {
    meta.push_back(std::move(entry));
  }
  if (write_bench_json(path, name + "_blame", records, meta)) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

/// --- scalar collectives used by the drivers ---------------------------------

/// Collect one double from each image into rank 0 (via allreduce of a
/// one-hot vector is overkill; a max over a single slot per call is enough
/// for the scalar statistics the drivers report).
inline double reduce_max(const Team& team, double value) {
  double out = value;
  Event done;
  allreduce_async<double>(team, std::span<double>(&out, 1), RedOp::kMax,
                          {.src_done = done.handle()});
  done.wait();
  return out;
}

inline double reduce_min(const Team& team, double value) {
  double out = value;
  Event done;
  allreduce_async<double>(team, std::span<double>(&out, 1), RedOp::kMin,
                          {.src_done = done.handle()});
  done.wait();
  return out;
}

inline double reduce_sum(const Team& team, double value) {
  double out = value;
  Event done;
  allreduce_async<double>(team, std::span<double>(&out, 1), RedOp::kSum,
                          {.src_done = done.handle()});
  done.wait();
  return out;
}

}  // namespace caf2::bench
