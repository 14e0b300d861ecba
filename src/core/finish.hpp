#pragma once

/// \file finish.hpp
/// The finish construct (paper §III-A).
///
/// finish is a block-structured *collective* construct over a team: every
/// member executes a matching finish block, and no member leaves the block
/// until every asynchronous operation with implicit completion that any
/// member initiated inside it — including transitively shipped functions —
/// is globally complete. This differs from X10's finish (rooted at a single
/// place) because CAF 2.0 is SPMD: computation starts in multiple places.
///
/// Termination is detected with the paper's epoch-counting algorithm
/// (Fig. 7): each image waits until it is locally quiescent (every message
/// it sent was delivered, every message it received completed), then joins a
/// team allreduce of (sent − completed); a zero sum proves global
/// termination. The quiescence precondition bounds the number of reduction
/// waves by L+1, where L is the longest chain of transitively shipped
/// functions (paper Theorem 1).

#include <functional>

#include "runtime/team.hpp"

namespace caf2 {

/// Which termination-detection strategy an individual finish block uses.
/// kEpoch is the paper's algorithm; the others exist for the paper's
/// comparative evaluation (Fig. 18 and §V) — see core/detectors.hpp.
enum class DetectorKind {
  kEpoch,        ///< paper Fig. 7: quiescence wait + epoch allreduce
  kSpeculative,  ///< same allreduce loop without the quiescence wait
                 ///< (the "algorithm w/o upper bound" of paper Fig. 18)
  kFourCounter,  ///< Mattern's four-counter wave algorithm (AM++, §V)
  kCentralized,  ///< X10-style vector counting at a single owner (§V)
};

struct FinishOptions {
  DetectorKind detector = DetectorKind::kEpoch;
};

/// Statistics of the most recent finish block completed by this image.
struct FinishReport {
  int rounds = 0;          ///< detection reduction waves used
  double detect_us = 0.0;  ///< virtual time spent between end-finish entry
                           ///< and detected termination
};

/// Execute \p body inside a finish block over \p team. Collective: every
/// member of \p team must call finish at the same program point. Blocks may
/// nest; a nested block's team may differ from its parent's.
void finish(const Team& team, const std::function<void()>& body,
            FinishOptions options = {});

/// Report of the calling image's most recent completed finish block.
FinishReport last_finish_report();

}  // namespace caf2
