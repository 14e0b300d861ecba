/// Reproduces paper Fig. 13: RandomAccess — the reference get-update-put
/// implementation against function shipping with different finish
/// granularities (the paper encloses bunches of 512/1024/2048 updates in a
/// finish block, i.e. 8192/4096/2048 finish invocations over the run).
///
/// Paper result: the function-shipping version is comparable to the
/// RDMA-style get/put version across scales, and the number of finish
/// invocations makes no significant difference — synchronization with
/// finish is cheap once amortized.
///
/// Each (images, variant) cell is an independent simulation dispatched
/// through bench::run_sweep, so cells run concurrently under --jobs.

#include "kernels/randomaccess.hpp"

#include "bench_common.hpp"

namespace {

using namespace caf2;
using kernels::RaConfig;

BenchRecord measure_cell(int images, int shards, const RaConfig& config,
                         bool shipping) {
  double elapsed = 0.0;
  BenchRecord record =
      bench::measure_run(bench::bench_options(images, shards), [&] {
        const auto stats =
            shipping ? kernels::ra_run_function_shipping(team_world(), config)
                     : kernels::ra_run_get_update_put(team_world(), config);
        elapsed = bench::reduce_max(team_world(), stats.elapsed_us);
      });
  record.metrics.emplace_back("images", images);
  record.metrics.emplace_back("virtual_ms", elapsed / 1000.0);
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = caf2::bench::parse_args(argc, argv);
  // With --shards=n each cell runs on the sharded parallel engine
  // (DESIGN.md §4.11); the default sweep then moves to the image counts
  // where sharding pays off.
  std::vector<int> sweep_images;
  if (!args.images.empty()) {
    sweep_images = args.images;
  } else if (args.shards > 1) {
    sweep_images = args.quick ? std::vector<int>{64}
                              : std::vector<int>{64, 128, 256, 512};
  } else {
    sweep_images =
        args.quick ? std::vector<int>{4, 8} : std::vector<int>{4, 8, 16, 32};
  }

  RaConfig config;
  config.log2_local_table = 14;
  config.updates_per_image = args.quick ? 512 : 2048;

  // Scaled analogue of the paper's 512/1024/2048-update bunches.
  const std::vector<int> bunches = {256, 512, 1024};

  std::vector<caf2::bench::SweepPoint> sweep;
  const int shards = args.shards;
  for (const int images : sweep_images) {
    sweep.push_back({"getput/images=" + std::to_string(images),
                     [images, shards, config] {
                       return measure_cell(images, shards, config, false);
                     }});
    for (const int bunch : bunches) {
      RaConfig fs = config;
      fs.bunch = bunch;
      sweep.push_back({"fs" + std::to_string(bunch) +
                           "/images=" + std::to_string(images),
                       [images, shards, fs] {
                         return measure_cell(images, shards, fs, true);
                       }});
    }
  }
  const std::vector<caf2::BenchRecord> results =
      caf2::bench::run_sweep(std::move(sweep), args.jobs);

  caf2::Table table(
      "Fig. 13 — RandomAccess: get-update-put vs function shipping "
      "(virtual ms; " +
      std::to_string(config.updates_per_image) + " updates/image)");
  table.columns({"images", "Get-Update-Put", "FS bunch=256", "FS bunch=512",
                 "FS bunch=1024"});
  table.precision(3);

  const std::size_t stride = 1 + bunches.size();
  for (std::size_t i = 0; i < sweep_images.size(); ++i) {
    std::vector<caf2::Cell> row;
    row.reserve(1 + stride);
    row.emplace_back(static_cast<long long>(sweep_images[i]));
    for (std::size_t v = 0; v < stride; ++v) {
      row.emplace_back(results[i * stride + v].metrics.back().second);
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nExpected shape (paper Fig. 13): the three FS columns are close to\n"
      "each other (finish granularity does not matter at these bunch sizes)\n"
      "and comparable to the get-update-put column at every scale.\n");

  caf2::bench::emit_bench_json(args, "fig13", results);
  return 0;
}
