/// Fault-tolerance overhead sweep: cost of the reliable-delivery protocol
/// (DESIGN.md §4.7) as a function of injected drop rate and image count.
///
/// The workload is finish-heavy — repeated finish blocks whose bodies fan
/// spawns out to every image — so it stresses exactly the machinery loss
/// perturbs: tracked-message accounting, delivery acks, and the detection
/// allreduce. For every (drop rate, images) point the driver reports
///
///   virtual_ms          virtual time of the whole run
///   overhead_x          virtual-time inflation vs the zero-fault point at
///                       the same image count
///   rounds              max detection rounds any finish needed (inflation
///                       over the fault-free value shows how loss delays,
///                       but must not break, the L+1 bound)
///   retransmits etc.    protocol activity counters
///
/// Results land in BENCH_faults.json. The zero-fault row doubles as the
/// regression guard: its fault plan is inactive, so the reliable protocol is
/// off and its events/sec is the bare network's.

#include <algorithm>
#include <cmath>

#include "bench_common.hpp"

namespace {

using namespace caf2;
using bench::BenchArgs;
using bench::SweepPoint;

void bump(Coref<long> counter) { counter.local()[0] += 1; }

struct PointConfig {
  int images = 4;
  double drop = 0.0;
  int reps = 8;
  int shards = 1;
};

BenchRecord measure_point(const PointConfig& config) {
  RuntimeOptions options = bench::bench_options(config.images, config.shards);
  options.net.jitter_us = std::max(options.net.jitter_us, 0.5);
  if (config.drop > 0.0) {
    options.net.faults.all.drop_probability = config.drop;
    options.net.faults.all.dup_probability = config.drop / 2;
    options.net.faults.all.ack_drop_probability = config.drop / 2;
    options.net.faults.all.delay_probability = config.drop;
    options.net.faults.all.delay_max_us = 20.0;
  }

  double max_rounds = 0.0;
  WallTimer timer;
  const RunStats stats = run_stats(options, [&] {
    Team world = team_world();
    Coarray<long> counter(world, 1);
    counter[0] = 0;
    team_barrier(world);
    int rounds = 0;
    for (int rep = 0; rep < config.reps; ++rep) {
      finish(world, [&] {
        for (int target = 0; target < world.size(); ++target) {
          spawn<bump>(target, counter.ref());
        }
      });
      rounds = std::max(rounds, last_finish_report().rounds);
    }
    if (counter[0] != static_cast<long>(config.reps) * world.size()) {
      throw FatalError("fault sweep lost a spawn: counter " +
                       std::to_string(counter[0]));
    }
    const double global_rounds =
        bench::reduce_max(world, static_cast<double>(rounds));
    if (world.rank() == 0) {
      max_rounds = global_rounds;
    }
    team_barrier(world);
  });

  BenchRecord record;
  record.wall_seconds = timer.seconds();
  record.schedule_digest = bench::digest_hex(stats.schedule_digest);
  record.events = stats.events;
  record.virtual_us = stats.virtual_us;
  record.events_per_sec =
      record.wall_seconds > 0.0
          ? static_cast<double>(stats.events) / record.wall_seconds
          : 0.0;
  record.metrics.emplace_back("images", config.images);
  record.metrics.emplace_back("drop_pct", config.drop * 100.0);
  record.metrics.emplace_back("rounds", max_rounds);
  record.metrics.emplace_back(
      "retransmits", static_cast<double>(stats.faults.retransmits));
  record.metrics.emplace_back(
      "dropped", static_cast<double>(stats.faults.deliveries_dropped +
                                     stats.faults.acks_dropped));
  record.metrics.emplace_back(
      "dups_suppressed",
      static_cast<double>(stats.faults.duplicates_suppressed));
  if (stats.shards > 1) {
    record.metrics.emplace_back("shards", static_cast<double>(stats.shards));
    record.metrics.emplace_back("windows", static_cast<double>(stats.windows));
    record.metrics.emplace_back("window_stalls",
                                static_cast<double>(stats.window_stalls));
  }
  return record;
}

double metric(const BenchRecord& record, const std::string& key) {
  for (const auto& [name, value] : record.metrics) {
    if (name == key) {
      return value;
    }
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = bench::parse_args(argc, argv);

  // With --shards=n the sharded engine runs the reliable-delivery protocol
  // too (DESIGN.md §4.12), so the default sweep moves to image counts where
  // sharding pays off.
  std::vector<int> image_counts = args.images;
  if (image_counts.empty()) {
    if (args.shards > 1) {
      image_counts =
          args.quick ? std::vector<int>{32} : std::vector<int>{32, 64, 128};
    } else {
      image_counts =
          args.quick ? std::vector<int>{4} : std::vector<int>{4, 8, 16};
    }
  }
  const std::vector<double> drops = args.quick
                                        ? std::vector<double>{0.0, 0.10}
                                        : std::vector<double>{0.0, 0.02, 0.05,
                                                              0.10};
  const int reps = args.quick ? 4 : 16;

  std::vector<SweepPoint> sweep;
  for (const int images : image_counts) {
    for (const double drop : drops) {
      PointConfig config{images, drop, reps, args.shards};
      char name[64];
      std::snprintf(name, sizeof(name), "faults/images=%d,drop=%.0f%%", images,
                    drop * 100.0);
      sweep.push_back({name, [config] { return measure_point(config); }});
    }
  }

  std::vector<BenchRecord> records = bench::run_sweep(sweep, args.jobs);

  // Virtual-time inflation vs the zero-fault point of the same image count.
  for (BenchRecord& record : records) {
    for (const BenchRecord& base : records) {
      if (metric(base, "images") == metric(record, "images") &&
          metric(base, "drop_pct") == 0.0 && base.virtual_us > 0.0) {
        record.metrics.emplace_back("overhead_x",
                                    record.virtual_us / base.virtual_us);
      }
    }
  }

  caf2::Table table("Fault-injection overhead (finish-heavy spawn fanout)");
  table.columns({"point", "virtual_ms", "overhead_x", "rounds", "retransmits",
                 "dropped", "dups_suppressed", "events/sec"});
  table.precision(3);
  for (const BenchRecord& record : records) {
    table.add_row({record.name, record.virtual_us / 1000.0,
                   metric(record, "overhead_x"), metric(record, "rounds"),
                   metric(record, "retransmits"), metric(record, "dropped"),
                   metric(record, "dups_suppressed"), record.events_per_sec});
  }
  table.print();

  bench::emit_bench_json(args, "faults", records);
  return 0;
}
