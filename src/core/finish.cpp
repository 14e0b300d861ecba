#include "core/finish.hpp"

#include "core/detectors.hpp"
#include "runtime/image.hpp"
#include "runtime/runtime.hpp"

namespace caf2 {

namespace {

// Per-image, not thread_local: under the fiber execution backend every image
// of an engine runs on the same OS thread (Image::scratch).
constexpr char kReportTag = 0;

FinishReport& last_report(rt::Image& image) {
  std::shared_ptr<void>& slot = image.scratch(&kReportTag);
  if (!slot) {
    slot = std::make_shared<FinishReport>();
  }
  return *std::static_pointer_cast<FinishReport>(slot);
}

net::FinishKey begin_finish(rt::Image& image, const Team& team) {
  CAF2_REQUIRE(team.valid(), "finish over an invalid team");
  CAF2_REQUIRE(team.world_rank(team.rank()) == image.rank(),
               "finish caller is not a member of the team");
  CAF2_REQUIRE(image.cofence_tracker().depth() == 1,
               "finish may not be used inside a shipped function");
  const net::FinishKey key{team.id(), image.next_finish_seq(team.id())};
  // Create the scope's state now: Image::finish_scope_passed tells a member
  // inside the scope (live state) from one that passed it (none).
  image.finish_state(key);
  image.push_finish(key);
  return key;
}

void end_finish(rt::Image& image, const Team& team, const net::FinishKey& key,
                const FinishOptions& options) {
  image.pop_finish();

  obs::Recorder* const rec = image.runtime().observer();
  const double start_us = image.runtime().engine().now();
  int rounds = 0;
  {
    // Every wait inside the detector — allreduce event waits, quiescence
    // drains — is finish termination-detection time. The detector's actual
    // blocking happens in nested event/quiescence waits, so also keep the
    // finish scope itself on the wait stack for the whole detection: a
    // postmortem taken mid-detection names the scope, not just the innermost
    // event.
    rt::WaitFrameScope wait_frame(
        image,
        obs::ResourceId{obs::ResourceKind::kFinish, -1,
                        static_cast<std::uint64_t>(key.team), key.seq},
        "finish detection");
    obs::BlameScope blame(rec, image.rank(), obs::Blame::kFinishWait);
    switch (options.detector) {
      case DetectorKind::kEpoch:
        rounds =
            core::detect_epoch(image, team, key, /*wait_quiescence=*/true);
        break;
      case DetectorKind::kSpeculative:
        rounds =
            core::detect_epoch(image, team, key, /*wait_quiescence=*/false);
        break;
      case DetectorKind::kFourCounter:
        rounds = core::detect_four_counter(image, team, key);
        break;
      case DetectorKind::kCentralized:
        rounds = core::detect_centralized(image, team, key);
        break;
    }
  }
  if (rec != nullptr) {
    rec->op_span(image.rank(), obs::SpanKind::kFinishDetect, start_us,
                 image.runtime().engine().now(),
                 static_cast<std::uint64_t>(rounds), key.seq);
    rec->add(image.rank(), obs::Counter::kFinishScopes);
    rec->add(image.rank(), obs::Counter::kFinishRounds,
             static_cast<std::uint64_t>(rounds));
  }

  image.finish_state(key).mark_terminated();
  // Global termination proven: no tracked message for this scope is in
  // flight anywhere, so the accounting can be reclaimed.
  image.erase_finish_state(key);

  FinishReport& report = last_report(image);
  report.rounds = rounds;
  report.detect_us = image.runtime().engine().now() - start_us;
}

}  // namespace

void finish(const Team& team, const std::function<void()>& body,
            FinishOptions options) {
  rt::Image& image = rt::Image::current();
  obs::Recorder* const rec = image.runtime().observer();
  const double obs_begin =
      rec != nullptr ? image.runtime().engine().now() : 0.0;
  const net::FinishKey key = begin_finish(image, team);
  try {
    body();
  } catch (...) {
    image.pop_finish();
    throw;
  }
  if (rec != nullptr) {
    rec->op_span(image.rank(), obs::SpanKind::kFinishBody, obs_begin,
                 image.runtime().engine().now(), 0, key.seq);
  }
  end_finish(image, team, key, options);
}

FinishReport last_finish_report() {
  return last_report(rt::Image::current());
}

}  // namespace caf2
