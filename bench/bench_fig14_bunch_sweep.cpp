/// Reproduces paper Fig. 14: RandomAccess with function shipping as a
/// function of the bunch size (updates per finish block), at two machine
/// sizes. Small bunches mean many finish invocations, whose termination-
/// detection cost dominates the actual updates; the curve flattens once the
/// bunch is large enough to amortize synchronization (>= 256 in the paper).
///
/// Every (bunch, images) cell is an independent simulation, so the grid is
/// dispatched through bench::run_sweep and cells run concurrently when
/// --jobs (or the hardware) allows.

#include "kernels/randomaccess.hpp"

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace caf2;
  const auto args = bench::parse_args(argc, argv);
  std::vector<int> image_counts =
      args.images.empty() ? std::vector<int>{8, 32} : args.images;
  if (args.quick && args.images.empty()) {
    image_counts = {4, 8};
  }

  kernels::RaConfig config;
  config.log2_local_table = 14;
  config.updates_per_image = args.quick ? 512 : 2048;

  std::vector<int> bunches = {16, 32, 64, 128, 256, 512, 1024, 2048};
  if (args.quick) {
    bunches = {16, 64, 256, 512};
  }

  std::vector<bench::SweepPoint> sweep;
  for (const int bunch : bunches) {
    for (const int images : image_counts) {
      kernels::RaConfig c = config;
      c.bunch = bunch;
      sweep.push_back({"bunch=" + std::to_string(bunch) +
                           "/images=" + std::to_string(images),
                       [c, images, bunch] {
                         double elapsed = 0.0;
                         BenchRecord record = bench::measure_run(
                             bench::bench_options(images), [&] {
                               const auto stats =
                                   kernels::ra_run_function_shipping(
                                       team_world(), c);
                               elapsed = bench::reduce_max(team_world(),
                                                           stats.elapsed_us);
                             });
                         record.metrics.emplace_back("bunch", bunch);
                         record.metrics.emplace_back("images", images);
                         record.metrics.emplace_back("virtual_ms",
                                                     elapsed / 1000.0);
                         return record;
                       }});
    }
  }
  const std::vector<BenchRecord> results =
      bench::run_sweep(std::move(sweep), args.jobs);

  Table table("Fig. 14 — RandomAccess (FS) vs bunch size (virtual ms; " +
              std::to_string(config.updates_per_image) + " updates/image)");
  std::vector<std::string> headers{"bunch size"};
  for (int images : image_counts) {
    headers.push_back(std::to_string(images) + " images");
  }
  headers.emplace_back("finishes");
  table.columns(std::move(headers));
  table.precision(3);

  for (std::size_t b = 0; b < bunches.size(); ++b) {
    const int bunch = bunches[b];
    std::vector<Cell> row;
    row.reserve(image_counts.size() + 2);
    row.emplace_back(static_cast<long long>(bunch));
    for (std::size_t i = 0; i < image_counts.size(); ++i) {
      const BenchRecord& record = results[b * image_counts.size() + i];
      row.emplace_back(record.metrics.back().second);  // virtual_ms
    }
    row.emplace_back(static_cast<long long>(
        (config.updates_per_image + static_cast<unsigned>(bunch) - 1) /
        static_cast<unsigned>(bunch)));
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nExpected shape (paper Fig. 14): execution time falls steeply as the\n"
      "bunch grows (synchronization dominates at bunch 16) and flattens for\n"
      "bunches >= 256, at both machine sizes.\n");

  bench::emit_bench_json(args, "fig14", results);
  return 0;
}
