/// Reproduces paper Fig. 18: rounds of termination-detection allreduce used
/// by UTS — the paper's algorithm (which waits for local quiescence before
/// each wave, bounding the count by L+1) against the speculative variant
/// with no such upper bound. The paper reports the bounded algorithm using
/// about half the allreduce rounds (3-6 vs 7-14 across 128-2048 cores).

#include "kernels/uts_scheduler.hpp"

#include <bit>

#include "bench_common.hpp"

namespace {

struct RoundsResult {
  int rounds = 0;  ///< reduce_max over every image's last finish report
  std::shared_ptr<const caf2::obs::Capture> capture;
  std::uint64_t schedule_digest = 0;
};

RoundsResult rounds_for(caf2::DetectorKind detector, int images, int shards,
                        const caf2::kernels::UtsConfig& base) {
  using namespace caf2;
  kernels::UtsConfig config = base;
  config.detector = detector;
  RoundsResult result;
  // Span recording runs sharded too (DESIGN.md §4.12): the obs round
  // cross-check and blame sidecar now cover the 4K-32K band as well.
  const RuntimeOptions options = bench::bench_obs_options(images, shards);
  const RunStats stats = run_stats(options, [&] {
    const auto uts = kernels::uts_run(team_world(), config);
    result.rounds = static_cast<int>(bench::reduce_max(
        team_world(), static_cast<double>(uts.finish_rounds)));
  });
  result.capture = stats.obs;
  result.schedule_digest = stats.schedule_digest;
  return result;
}

}  // namespace

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
    sweep = args.quick ? std::vector<int>{4, 8, 16}
                       : std::vector<int>{4, 8, 16, 32, 64, 128, 256, 512, 1024};
  }

  kernels::UtsConfig config;
  config.tree.b0 = 4.0;
  config.tree.max_depth = args.quick ? 6 : 7;
  config.tree.root_seed = 19;

  Table table(
      "Fig. 18 — rounds of termination detection in UTS (allreduce waves)");
  table.columns({"images", "our algorithm (bounded)",
                 "algorithm w/o upper bound", "ratio"});
  table.precision(2);

  std::vector<BenchRecord> blame_records;
  bool rounds_consistent = true;
  for (int images : sweep) {
    const RoundsResult bounded =
        rounds_for(DetectorKind::kEpoch, images, args.shards, config);
    const RoundsResult speculative =
        rounds_for(DetectorKind::kSpeculative, images, args.shards, config);
    table.add_row({static_cast<long long>(images),
                   static_cast<long long>(bounded.rounds),
                   static_cast<long long>(speculative.rounds),
                   static_cast<double>(speculative.rounds) /
                       static_cast<double>(bounded.rounds)});

    // Blame sidecar: one record per detector. The recorder counts rounds
    // independently of the detectors' own reports (finish-detect spans carry
    // the wave count), so the sidecar cross-checks the table.
    const int ceil_log2_images =
        images <= 1 ? 0 : std::bit_width(static_cast<unsigned>(images - 1));
    struct Pair {
      const char* name;
      const RoundsResult* result;
    };
    for (const Pair& entry : {Pair{"bounded", &bounded},
                              Pair{"speculative", &speculative}}) {
      BenchRecord record;
      record.name =
          std::string(entry.name) + "/images=" + std::to_string(images);
      record.metrics.emplace_back("images", images);
      record.metrics.emplace_back("rounds",
                                  static_cast<double>(entry.result->rounds));
      record.metrics.emplace_back("ceil_log2_images", ceil_log2_images);
      record.schedule_digest = bench::digest_hex(entry.result->schedule_digest);
      if (entry.result->capture) {
        const obs::BlameReport report =
            obs::analyze_blame(*entry.result->capture);
        rounds_consistent =
            rounds_consistent &&
            static_cast<int>(report.finish_rounds_max) == entry.result->rounds;
        bench::append_blame_metrics(record, report);
      }
      blame_records.push_back(std::move(record));
    }
  }
  table.print();
  std::printf("obs finish-round count matches the detectors' reports: %s\n",
              rounds_consistent ? "ok" : "VIOLATED");
  bench::emit_blame_json(
      args, "fig18", blame_records,
      {{"rounds_consistent", rounds_consistent ? "ok" : "violated"},
       {"shards", std::to_string(args.shards)}});
  std::printf(
      "\nPaper Fig. 18 reports the bounded algorithm using about half the\n"
      "waves of the unbounded variant. In this reproduction the two are\n"
      "close: detection waves are collective, so both variants are rate-\n"
      "limited by the same tail work-drains (work landing on quiesced\n"
      "images executes inside the wave wait). The speculation penalty only\n"
      "appears when waves are much cheaper than in-flight settling — see\n"
      "EXPERIMENTS.md for the full analysis.\n");
  return rounds_consistent ? 0 : 1;
}
