/// Collective-schedule sweep and simulator-driven autotuner (DESIGN.md
/// §4.13). For every multi-schedule collective this driver measures each
/// selectable schedule (binomial/k-nomial tree, ring, recursive doubling,
/// dissemination, direct) across an image-count × payload grid on the
/// Gemini-class interconnect model and reports the *virtual* per-operation
/// latency.
///
/// With --tune[=path] the driver additionally prints the measured winner
/// per (collective, images, payload) and writes it as a JSON report
/// (default BENCH_coll_selection.json). The run fails (nonzero exit) if no
/// collective shows a latency/bandwidth crossover — a winner that differs
/// between the smallest and largest payload class: tree schedules win the
/// latency-bound regime, ring schedules the bandwidth-bound one. Callers
/// act on the report per call through CollOptions::algorithm.
///
/// Per-op timing: each sweep point runs `reps` iterations of
/// (collective, team barrier) under one simulation and divides the virtual
/// time by reps; a barrier-only baseline at the same image count is
/// subtracted so small-payload points are not dominated by the barrier.
/// Everything is deterministic — same sweep, same table, bit for bit.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "ops/coll_algo.hpp"

namespace {

using namespace caf2;
using bench::BenchArgs;
using ops::CollKind;

struct Point {
  CollKind kind{};
  CollAlgorithm algorithm{};
  int images = 0;
  std::size_t payload = 0;  ///< payload bytes (0 for barrier)
  double per_op_us = 0.0;   ///< barrier-baseline-subtracted virtual latency
  BenchRecord record;
};

/// The collectives worth tuning: every kind with more than one schedule.
const std::vector<CollKind> kTunedKinds = {
    CollKind::kBarrier,   CollKind::kBroadcast,     CollKind::kReduce,
    CollKind::kAllreduce, CollKind::kGather,        CollKind::kScatter,
    CollKind::kAllgather, CollKind::kReduceScatter,
};

/// Elements of `long` covering \p bytes (at least one).
std::size_t elems_for(std::size_t bytes) {
  return std::max<std::size_t>(1, bytes / sizeof(long));
}

/// One iteration of the measured collective. Buffers are reused across
/// reps; values are irrelevant to the timing, correctness is covered by
/// tests/test_collectives_ext.cpp.
void run_collective(CollKind kind, CollAlgorithm algo, const Team& world,
                    std::size_t payload, std::vector<long>& a,
                    std::vector<long>& b) {
  const CollOptions options{.algorithm = algo};
  Event done;
  CollOptions with_done = options;
  with_done.local_done = done.handle();
  const auto p = static_cast<std::size_t>(world.size());
  const std::size_t n = elems_for(payload);
  switch (kind) {
    case CollKind::kBarrier:
      barrier_async(world, with_done);
      break;
    case CollKind::kBroadcast:
      broadcast_async<long>(world, std::span<long>(a.data(), n), 0,
                            with_done);
      break;
    case CollKind::kReduce:
      reduce_async<long>(world, std::span<long>(a.data(), n), 0, RedOp::kSum,
                         with_done);
      break;
    case CollKind::kAllreduce:
      allreduce_async<long>(world, std::span<long>(a.data(), n), RedOp::kSum,
                            with_done);
      break;
    case CollKind::kGather:
      gather_async<long>(world, std::span<const long>(a.data(), n),
                         std::span<long>(b.data(), n * p), 0, with_done);
      break;
    case CollKind::kScatter:
      scatter_async<long>(world, std::span<const long>(a.data(), n * p),
                          std::span<long>(b.data(), n), 0, with_done);
      break;
    case CollKind::kAllgather:
      allgather_async<long>(world, std::span<const long>(a.data(), n),
                            std::span<long>(b.data(), n * p), with_done);
      break;
    case CollKind::kReduceScatter: {
      // send extent must be a team-size multiple; round the payload up.
      const std::size_t chunk = (n + p - 1) / p;
      reduce_scatter_async<long>(
          world, std::span<const long>(a.data(), chunk * p),
          std::span<long>(b.data(), chunk), RedOp::kSum, with_done);
      break;
    }
    default:
      break;
  }
  done.wait();
}

/// Simulate one sweep point: reps × (collective + barrier) in one run.
/// Returns the total virtual time of the measured loop divided by reps
/// (barrier included; subtract the baseline afterwards).
double measure_point(CollKind kind, CollAlgorithm algo, int images,
                     std::size_t payload, int reps, int shards,
                     BenchRecord& record) {
  RuntimeOptions options = bench::bench_options(images, shards);
  double per_iter = 0.0;
  WallTimer timer;
  const RunStats stats = run_stats(options, [&] {
    Team world = team_world();
    const auto p = static_cast<std::size_t>(world.size());
    const std::size_t n = elems_for(payload);
    // One allocation covers every kind's largest role (root gather/scatter
    // sides are n*p).
    std::vector<long> a(n * p, 1);
    std::vector<long> b(n * p, 0);
    team_barrier(world);
    const double t0 = now_us();
    for (int i = 0; i < reps; ++i) {
      run_collective(kind, algo, world, payload, a, b);
      if (kind != CollKind::kBarrier) {
        team_barrier(world);
      }
    }
    const double t1 = now_us();
    if (world.rank() == 0) {
      per_iter = (t1 - t0) / reps;
    }
  });
  record.wall_seconds = timer.seconds();
  record.schedule_digest = bench::digest_hex(stats.schedule_digest);
  record.events = stats.events;
  record.virtual_us = stats.virtual_us;
  record.events_per_sec =
      record.wall_seconds > 0.0
          ? static_cast<double>(stats.events) / record.wall_seconds
          : 0.0;
  return per_iter;
}

std::string point_name(const Point& point) {
  return std::string(to_string(point.kind)) + "/" +
         to_string(point.algorithm) + "/p" + std::to_string(point.images) +
         "/b" + std::to_string(point.payload);
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --tune[=path] before the shared flag parser (which rejects
  // flags it does not know).
  bool tune = false;
  std::string tune_path = "BENCH_coll_selection.json";
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tune") {
      tune = true;
    } else if (arg.rfind("--tune=", 0) == 0) {
      tune = true;
      tune_path = arg.substr(7);
    } else {
      rest.push_back(argv[i]);
    }
  }
  const BenchArgs args =
      bench::parse_args(static_cast<int>(rest.size()), rest.data());

  const std::vector<int> images_sweep =
      !args.images.empty() ? args.images
      : args.quick         ? std::vector<int>{4, 16}
                           : std::vector<int>{4, 8, 16, 32};
  // The largest class sits past the ring allreduce's latency/bandwidth
  // crossover (~117 KiB at 16 images under the gemini-like model: ring
  // injects ~2·b total vs log2(p)·b for the tree schedules).
  const std::vector<std::size_t> payloads =
      args.quick ? std::vector<std::size_t>{64, 262144}
                 : std::vector<std::size_t>{64, 4096, 65536, 262144};
  const int reps = args.quick ? 4 : 8;

  // Barrier-only baseline per image count (the non-barrier points interleave
  // a barrier per rep; subtracting it keeps small payloads honest).
  std::map<int, double> barrier_baseline;
  for (const int images : images_sweep) {
    BenchRecord scratch;
    barrier_baseline[images] =
        measure_point(CollKind::kBarrier, ops::default_algorithm(CollKind::kBarrier),
                      images, 0, reps, args.shards, scratch);
  }

  // Build the sweep. Barrier has no payload axis; everything else gets the
  // full grid.
  std::vector<Point> points;
  for (const CollKind kind : kTunedKinds) {
    for (const CollAlgorithm algo : ops::supported_algorithms(kind)) {
      for (const int images : images_sweep) {
        if (kind == CollKind::kBarrier) {
          Point point;
          point.kind = kind;
          point.algorithm = algo;
          point.images = images;
          points.push_back(point);
          continue;
        }
        for (const std::size_t payload : payloads) {
          Point point;
          point.kind = kind;
          point.algorithm = algo;
          point.images = images;
          point.payload = payload;
          points.push_back(point);
        }
      }
    }
  }

  std::vector<bench::SweepPoint> sweep;
  sweep.reserve(points.size());
  for (Point& point : points) {
    sweep.push_back({point_name(point), [&point, reps, &args,
                                         &barrier_baseline] {
                       BenchRecord record;
                       const double per_iter = measure_point(
                           point.kind, point.algorithm, point.images,
                           point.payload, reps, args.shards, record);
                       const double baseline =
                           point.kind == CollKind::kBarrier
                               ? 0.0
                               : barrier_baseline.at(point.images);
                       point.per_op_us = std::max(0.0, per_iter - baseline);
                       record.metrics.emplace_back(
                           "images", static_cast<double>(point.images));
                       record.metrics.emplace_back(
                           "payload_bytes",
                           static_cast<double>(point.payload));
                       record.metrics.emplace_back("per_op_us",
                                                   point.per_op_us);
                       point.record = record;
                       return record;
                     }});
  }
  std::vector<BenchRecord> records = bench::run_sweep(sweep, args.jobs);

  Table table("Collective schedules, virtual per-op latency (gemini-like)");
  table.columns({"collective/schedule", "images", "bytes", "per-op us",
                 "events", "wall s"});
  table.precision(3);
  for (const Point& point : points) {
    table.add_row({std::string(to_string(point.kind)) + "/" +
                       to_string(point.algorithm),
                   static_cast<long long>(point.images),
                   static_cast<long long>(point.payload), point.per_op_us,
                   static_cast<long long>(point.record.events),
                   point.record.wall_seconds});
  }
  table.print();

  bench::emit_bench_json(args, "collectives", records);

  if (!tune) {
    return 0;
  }

  // --- autotuner: argmin over schedules per (kind, images, payload) ---------
  std::map<std::tuple<int, int, std::size_t>, const Point*> winner;
  for (const Point& point : points) {
    const auto key = std::make_tuple(static_cast<int>(point.kind),
                                     point.images, point.payload);
    const auto it = winner.find(key);
    if (it == winner.end() || point.per_op_us < it->second->per_op_us) {
      winner[key] = &point;
    }
  }

  Table winners("Autotuned winners (-> " + tune_path + ")");
  winners.columns({"collective", "images", "bytes", "winner", "per-op us"});
  winners.precision(3);
  for (const auto& [key, point] : winner) {
    winners.add_row({std::string(to_string(point->kind)),
                     static_cast<long long>(point->images),
                     static_cast<long long>(point->payload),
                     std::string(to_string(point->algorithm)),
                     point->per_op_us});
  }
  winners.print();

  // A collective whose winner differs between the smallest and largest
  // payload class demonstrates the latency/bandwidth crossover.
  bool crossover = false;
  for (const CollKind kind : kTunedKinds) {
    if (kind == CollKind::kBarrier) {
      continue;
    }
    for (const int images : images_sweep) {
      const auto lo = winner.find(std::make_tuple(static_cast<int>(kind),
                                                  images, payloads.front()));
      const auto hi = winner.find(std::make_tuple(static_cast<int>(kind),
                                                  images, payloads.back()));
      if (lo != winner.end() && hi != winner.end() &&
          lo->second->algorithm != hi->second->algorithm) {
        std::printf(
            "crossover: %s at %d images: %s (%zuB) -> %s (%zuB)\n",
            to_string(kind), images, to_string(lo->second->algorithm),
            payloads.front(), to_string(hi->second->algorithm),
            payloads.back());
        crossover = true;
      }
    }
  }

  {
    std::ofstream out(tune_path, std::ios::binary | std::ios::trunc);
    out << "{\n  \"schema\": \"caf2.coll_winners\",\n"
        << "  \"schema_version\": 1,\n  \"winners\": [";
    bool first = true;
    for (const auto& [key, point] : winner) {
      out << (first ? "\n" : ",\n") << "    {\"collective\": \""
          << to_string(point->kind) << "\", \"images\": " << point->images
          << ", \"payload_bytes\": " << point->payload
          << ", \"algorithm\": \"" << to_string(point->algorithm)
          << "\", \"per_op_us\": " << point->per_op_us << "}";
      first = false;
    }
    out << (first ? "]\n}\n" : "\n  ]\n}\n");
    if (!out.good()) {
      std::fprintf(stderr, "FAIL: could not write %s\n", tune_path.c_str());
      return 1;
    }
  }
  std::printf("wrote %s (%zu entries)\n", tune_path.c_str(), winner.size());

  if (!crossover) {
    std::fprintf(stderr,
                 "FAIL: no collective changed winners between %zuB and %zuB "
                 "payloads\n",
                 payloads.front(), payloads.back());
    return 1;
  }
  return 0;
}
