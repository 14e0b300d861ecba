/// Reproduces paper Fig. 17: parallel efficiency of the UTS implementation
/// relative to single-core performance. The paper reports 0.80 at 256 cores
/// declining gently to 0.74 at 32768 — i.e. the finish construct's
/// termination-detection overhead does not grow dramatically with machine
/// size. Efficiency here is T1 / (p * Tp) in virtual time.

#include "kernels/uts_scheduler.hpp"

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace caf2;
  const auto args = bench::parse_args(argc, argv);
  // Default sweep runs to the paper's full 1024 images — tractable on one
  // machine thanks to the fiber execution backend (DESIGN.md §4.8). With
  // --shards=n the sharded parallel engine (DESIGN.md §4.11) carries the
  // sweep into the paper's actual 4K-32K core band.
  std::vector<int> sweep;
  if (!args.images.empty()) {
    sweep = args.images;
  } else if (args.shards > 1) {
    sweep = args.quick ? std::vector<int>{256, 1024}
                       : std::vector<int>{4096, 8192, 16384, 32768};
  } else {
    sweep = args.quick
                ? std::vector<int>{1, 2, 4, 8}
                : std::vector<int>{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  }

  kernels::UtsConfig config;
  config.tree.b0 = 4.0;
  // Depth 10 (~1.8M nodes) keeps >1.5k nodes per image at 1024 images;
  // smaller trees starve the tail of the sweep and efficiency collapses for
  // the wrong reason (not enough work, rather than detection overhead).
  // Depth 11 pushes the band out further but costs ~4x the wall time.
  config.tree.max_depth = args.quick ? 6 : 10;
  config.tree.root_seed = 19;

  Table table("Fig. 17 — UTS parallel efficiency (T1WL-style tree)");
  table.columns({"images", "total nodes", "time (virtual ms)", "speedup",
                 "efficiency"});
  table.precision(3);

  double t1_us = 0.0;
  std::vector<BenchRecord> blame_records;
  for (int images : sweep) {
    double elapsed = 0.0;
    std::uint64_t total = 0;
    // Span recording runs sharded too (DESIGN.md §4.12): the 4K-32K sweeps
    // get the blame sidecar, not just the serial band.
    const RuntimeOptions options =
        bench::bench_obs_options(images, args.shards);
    const RunStats run_result = run_stats(options, [&] {
      const auto stats = kernels::uts_run(team_world(), config);
      elapsed = bench::reduce_max(team_world(), stats.elapsed_us);
      total = stats.total_nodes;
    });
    if (images == sweep.front() && images == 1) {
      t1_us = elapsed;
    } else if (t1_us == 0.0) {
      // Sweep did not include 1: derive T1 from the modeled per-node cost.
      t1_us = static_cast<double>(total) * config.node_cost_us;
    }
    const double speedup = t1_us / elapsed;
    table.add_row({static_cast<long long>(images),
                   static_cast<long long>(total), elapsed / 1000.0, speedup,
                   speedup / images});

    BenchRecord record;
    record.name = "uts/images=" + std::to_string(images);
    record.schedule_digest = bench::digest_hex(run_result.schedule_digest);
    record.virtual_us = run_result.virtual_us;
    record.events = run_result.events;
    record.metrics.emplace_back("images", images);
    record.metrics.emplace_back("total_nodes",
                                static_cast<double>(total));
    record.metrics.emplace_back("efficiency", speedup / images);
    if (run_result.obs) {
      // Blame sidecar: where the non-compute fraction of the run went —
      // the paper's efficiency loss is exactly these buckets.
      const obs::BlameReport report = obs::analyze_blame(*run_result.obs);
      std::uint64_t steal_attempts = 0;
      for (const obs::Metrics& m : run_result.obs->metrics) {
        steal_attempts += m.counter(obs::Counter::kStealAttempts);
      }
      record.metrics.emplace_back("steal_attempts",
                                  static_cast<double>(steal_attempts));
      bench::append_blame_metrics(record, report);
    }
    if (run_result.shards > 1) {
      record.metrics.emplace_back("shards",
                                  static_cast<double>(run_result.shards));
    }
    blame_records.push_back(std::move(record));
  }
  table.print();
  std::printf(
      "\nExpected shape (paper Fig. 17): efficiency in the 0.7-1.0 band,\n"
      "declining gently as images increase (74%%-80%% across the paper's\n"
      "256-32768 cores).\n");
  bench::emit_blame_json(args, "fig17", blame_records,
                         {{"shards", std::to_string(args.shards)}});
  return 0;
}
