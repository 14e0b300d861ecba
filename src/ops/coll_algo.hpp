#pragma once

/// \file coll_algo.hpp
/// Collective algorithm inventory and resolution (DESIGN.md §4.13).
///
/// Every collective kind maps to a set of selectable schedules, default
/// first. CollOptions::algorithm names one per call; CollAlgorithm::kAuto
/// runs the kind's default.
///
/// Determinism: resolution depends only on the kind, the requested schedule
/// and the team size, which every member of a team observes identically, so
/// all images independently resolve the same schedule and the stage
/// machinery stays in lockstep.

#include <span>

#include "ops/collectives.hpp"

namespace caf2::ops {

/// Schedules implemented for \p kind, default first. Never empty; the span
/// views static storage.
std::span<const CollAlgorithm> supported_algorithms(CollKind kind);

/// The schedule kAuto runs for \p kind.
CollAlgorithm default_algorithm(CollKind kind);

bool algorithm_supported(CollKind kind, CollAlgorithm algorithm);

/// Resolve the schedule start_collective will run: kAuto becomes the kind's
/// default; an explicit unsupported (kind, algorithm) pairing is a
/// UsageError. Structural clamps are applied last — recursive-doubling
/// allgather needs a power-of-two team and degrades to ring otherwise — so
/// the returned value is always runnable. Deterministic in (kind,
/// requested, team_size).
CollAlgorithm resolve_algorithm(CollKind kind, CollAlgorithm requested,
                                int team_size);

/// Interned "kind/algorithm" label (e.g. "allreduce/ring") with static
/// lifetime, suitable as an obs span label.
const char* coll_span_label(CollKind kind, CollAlgorithm algorithm);

}  // namespace caf2::ops
