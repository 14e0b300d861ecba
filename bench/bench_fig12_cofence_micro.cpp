/// Reproduces paper Fig. 12: the producer-consumer micro-benchmark of
/// Fig. 11. Image 0 repeatedly sends five 80-byte asynchronous copies to
/// random images, then prepares the next round's buffer. The three variants
/// differ only in how the producer learns it may reuse the source buffer:
///
///   cofence  local data completion   (buffer injected -> reusable)
///   events   local operation completion (all five copies delivered)
///   finish   global completion        (a finish block per iteration)
///
/// Paper result: cofence fastest, events next, finish slowest (the gap to
/// finish grows with core count). The same ordering must hold here, with
/// the finish curve growing like log p.

#include <optional>

#include "bench_common.hpp"

namespace {

using namespace caf2;

enum class Variant { kCofence, kEvents, kFinish };

const char* variant_name(Variant variant) {
  switch (variant) {
    case Variant::kCofence:
      return "cofence";
    case Variant::kEvents:
      return "events";
    case Variant::kFinish:
      return "finish";
  }
  return "?";
}

/// The blame bucket the variant's producer-side wait lands in.
caf2::obs::Blame variant_blame(Variant variant) {
  switch (variant) {
    case Variant::kCofence:
      return caf2::obs::Blame::kCofenceWait;
    case Variant::kEvents:
      return caf2::obs::Blame::kEventWait;
    case Variant::kFinish:
      return caf2::obs::Blame::kFinishWait;
  }
  return caf2::obs::Blame::kOther;
}

constexpr int kPayloadBytes = 80;  // the paper's copied-data size
constexpr int kTargetsPerIteration = 5;
constexpr double kProduceCostUs = 2.0;  // produce_work_next_rnd() model

struct VariantResult {
  double elapsed_us = 0.0;
  std::shared_ptr<const obs::Capture> capture;
  std::uint64_t schedule_digest = 0;
};

VariantResult run_variant(Variant variant, int images, int iterations,
                          int shards) {
  double elapsed_us = 0.0;
  RuntimeOptions options = bench::bench_obs_options(images, shards);
  const RunStats stats = run_stats(options, [&] {
    Team world = team_world();
    Coarray<std::uint8_t> inbuf(world, kPayloadBytes);
    std::vector<std::uint8_t> src(kPayloadBytes, 0xAB);
    auto& rng = image_rng();
    team_barrier(world);
    const double t0 = now_us();

    finish(world, [&] {
      if (world.rank() == 0) {
        for (int iter = 0; iter < iterations; ++iter) {
          switch (variant) {
            case Variant::kCofence: {
              for (int c = 0; c < kTargetsPerIteration; ++c) {
                const int dest = static_cast<int>(
                    rng.next_below(static_cast<std::uint64_t>(images)));
                copy_async(inbuf(dest), std::span<const std::uint8_t>(src));
              }
              cofence();  // local data completion: src reusable
              break;
            }
            case Variant::kEvents: {
              Event delivered;
              for (int c = 0; c < kTargetsPerIteration; ++c) {
                const int dest = static_cast<int>(
                    rng.next_below(static_cast<std::uint64_t>(images)));
                copy_async(inbuf(dest), std::span<const std::uint8_t>(src),
                           {.dst_done = delivered.handle()});
              }
              delivered.wait_many(kTargetsPerIteration);
              break;
            }
            case Variant::kFinish:
              break;  // handled below (collective inner finish)
          }
          if (variant != Variant::kFinish) {
            src.assign(kPayloadBytes,
                       static_cast<std::uint8_t>(iter));  // produce next
            compute(kProduceCostUs);
          }
        }
      }
      if (variant == Variant::kFinish) {
        for (int iter = 0; iter < iterations; ++iter) {
          finish(world, [&] {
            if (world.rank() == 0) {
              for (int c = 0; c < kTargetsPerIteration; ++c) {
                const int dest = static_cast<int>(
                    rng.next_below(static_cast<std::uint64_t>(images)));
                copy_async(inbuf(dest), std::span<const std::uint8_t>(src));
              }
            }
          });
          if (world.rank() == 0) {
            src.assign(kPayloadBytes, static_cast<std::uint8_t>(iter));
            compute(kProduceCostUs);
          }
        }
      }
    });
    elapsed_us = now_us() - t0;
    team_barrier(world);
  });
  return {elapsed_us, stats.obs, stats.schedule_digest};
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = caf2::bench::parse_args(argc, argv);
  // Default sweep runs to the paper's full 1024 images — tractable on one
  // machine thanks to the fiber execution backend (DESIGN.md §4.8).
  std::vector<int> sweep =
      args.images.empty()
          ? std::vector<int>{8, 16, 32, 64, 128, 256, 512, 1024}
          : args.images;
  if (args.quick && args.images.empty()) {
    sweep = {4, 8};
  }
  const int iterations = args.quick ? 40 : 200;

  caf2::Table table(
      "Fig. 12 — producer-consumer micro-benchmark (virtual ms; " +
      std::to_string(iterations) + " iterations, 80 B x 5 targets)");
  table.columns({"images", "finish (ms)", "events (ms)", "cofence (ms)",
                 "cofence speedup vs finish"});
  table.precision(3);

  std::vector<caf2::BenchRecord> blame_records;
  bool ordering_ok = true;
  const std::string trace_path =
      caf2::bench::sidecar_path(args, "fig12", "trace");
  bool trace_ok = false;

  for (std::size_t point = 0; point < sweep.size(); ++point) {
    const int images = sweep[point];
    std::array<VariantResult, 3> results;
    std::array<double, 3> producer_wait{};  // producer's own-mechanism wait
    const Variant variants[] = {Variant::kFinish, Variant::kEvents,
                                Variant::kCofence};
    // The last point's variants, as distinct pids of one Chrome trace,
    // stream into the file as each run finishes.
    std::optional<caf2::obs::ChromeTraceWriter> trace;
    if (point + 1 == sweep.size()) {
      trace.emplace(trace_path);
      trace->raw("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    }
    for (int v = 0; v < 3; ++v) {
      results[v] = run_variant(variants[v], images, iterations, args.shards);
      const caf2::obs::BlameReport report =
          caf2::obs::analyze_blame(*results[v].capture);
      producer_wait[v] = report.per_image[0][variant_blame(variants[v])];

      caf2::BenchRecord record;
      record.name = std::string(variant_name(variants[v])) +
                    "/images=" + std::to_string(images);
      record.virtual_us = results[v].elapsed_us;
      record.schedule_digest =
          caf2::bench::digest_hex(results[v].schedule_digest);
      record.metrics.emplace_back("images", images);
      record.metrics.emplace_back("virtual_ms",
                                  results[v].elapsed_us / 1000.0);
      record.metrics.emplace_back("producer_wait_us", producer_wait[v]);
      caf2::bench::append_blame_metrics(record, report);
      blame_records.push_back(std::move(record));

      if (trace) {
        if (v > 0) {
          trace->raw(",");
        }
        trace->events(*results[v].capture, v, variant_name(variants[v]));
      }
      results[v].capture.reset();
    }
    if (trace) {
      trace->raw("]}");
      trace_ok = trace->close();
    }
    // The paper's ordering, measured at the producer's wait itself:
    // cofence (data completion) < events (operation completion) < finish
    // (global completion).
    ordering_ok = ordering_ok && producer_wait[2] < producer_wait[1] &&
                  producer_wait[1] < producer_wait[0];

    const double fin = results[0].elapsed_us;
    const double evt = results[1].elapsed_us;
    const double cof = results[2].elapsed_us;
    table.add_row({static_cast<long long>(images), fin / 1000.0, evt / 1000.0,
                   cof / 1000.0, fin / cof});
  }
  table.print();
  std::printf(
      "\nExpected shape (paper Fig. 12): cofence < events < finish at every\n"
      "scale, with the finish column growing with log(images).\n");
  std::printf("producer blame ordering (cofence < events < finish): %s\n",
              ordering_ok ? "ok" : "VIOLATED");

  caf2::bench::emit_blame_json(
      args, "fig12", blame_records,
      {{"producer_wait_ordering", ordering_ok ? "ok" : "violated"}});
  if (trace_ok) {
    std::printf("wrote %s (load in https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  return ordering_ok ? 0 : 1;
}
