#pragma once

/// \file coll_algo.hpp
/// Collective algorithm inventory and selection (DESIGN.md §4.13).
///
/// Every collective kind maps to a set of selectable schedules; the
/// CollAlgorithm::kAuto default resolves through a process-global *selection
/// table* keyed by (collective kind, log2 team size, log2 payload bytes).
/// Tables come from two places: the built-in per-kind defaults (the first
/// entry of supported_algorithms), or a table measured under the simulator
/// by `bench_collectives --tune` and loaded back here
/// (load_selection_table_file / set_selection_table, or
/// RuntimeOptions::coll_selection_table / the CAF2_COLL_TABLE environment
/// variable at caf2::run entry).
///
/// Determinism: resolution depends only on team-uniform inputs — every
/// member of a team observes the same kind, team size, and contribution
/// size for the multi-algorithm kinds — so all images independently resolve
/// the same schedule and the stage machinery stays in lockstep. The table
/// itself is process-global and must not be mutated mid-run.

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "ops/collectives.hpp"

namespace caf2::ops {

/// Schedules implemented for \p kind, default first. Never empty.
std::vector<CollAlgorithm> supported_algorithms(CollKind kind);

/// The fallback schedule for \p kind: what kAuto runs when no table entry
/// applies.
CollAlgorithm default_algorithm(CollKind kind);

bool algorithm_supported(CollKind kind, CollAlgorithm algorithm);

/// Parse the to_string() names back ("ring", "allreduce", ...). Returns
/// false (leaving \p out untouched) on an unknown name.
bool parse_algorithm(std::string_view name, CollAlgorithm& out);
bool parse_coll_kind(std::string_view name, CollKind& out);

/// Measured winner table: (kind, floor-log2 team size, floor-log2 payload
/// bytes) -> algorithm. Lookup snaps to the nearest recorded bucket (team
/// size first, then payload) so a table tuned at {4,16} images generalizes
/// to 8.
class CollSelectionTable {
 public:
  static int log2_bucket(std::size_t value);

  void set(CollKind kind, int images, std::size_t bytes,
           CollAlgorithm algorithm);

  /// kAuto when the table has no entry for \p kind at all.
  CollAlgorithm lookup(CollKind kind, int images, std::size_t bytes) const;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Deterministic JSON artifact (sorted entries, fixed field order).
  std::string to_json() const;

  /// Parse a to_json() document; throws UsageError on malformed input or
  /// unknown kind/algorithm names.
  static CollSelectionTable from_json(const std::string& text);

 private:
  // (kind, log2 images, log2 bytes) -> algorithm, ordered for stable dumps.
  std::map<std::tuple<int, int, int>, CollAlgorithm> entries_;
};

/// Install \p table as the process-global Auto source (replacing any
/// previous one). Not to be called while a run is in flight.
void set_selection_table(CollSelectionTable table);

/// Drop the process-global table; Auto falls back to the built-in defaults.
void clear_selection_table();

/// Read a to_json() artifact from \p path into the process-global table.
/// Throws UsageError when the file is unreadable or malformed.
void load_selection_table_file(const std::string& path);

/// Snapshot of the process-global table (empty when none is loaded).
CollSelectionTable selection_table();

/// Resolve the schedule start_collective will run: kAuto consults the
/// loaded table (nearest bucket), else the built-in default; an explicit
/// unsupported (kind, algorithm) pairing is a UsageError. Structural clamps
/// are applied last — recursive-doubling allgather needs a power-of-two
/// team and degrades to ring otherwise — so the returned value is always
/// runnable. Deterministic in (kind, requested, team_size, bytes).
CollAlgorithm resolve_algorithm(CollKind kind, CollAlgorithm requested,
                                int team_size, std::size_t bytes);

/// Interned "kind/algorithm" label (e.g. "allreduce/ring") with static
/// lifetime, suitable as an obs span label.
const char* coll_span_label(CollKind kind, CollAlgorithm algorithm);

}  // namespace caf2::ops
