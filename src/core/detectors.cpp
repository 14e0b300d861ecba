#include "core/detectors.hpp"

#include <array>
#include <unordered_map>

#include "ops/collectives.hpp"
#include "runtime/internal.hpp"
#include "support/serialize.hpp"

namespace caf2::core {

namespace {
using rt::Image;

/// Wait-for-graph identity of a finish scope's termination.
obs::ResourceId finish_resource(const net::FinishKey& key) {
  return obs::ResourceId{obs::ResourceKind::kFinish, -1,
                         static_cast<std::uint64_t>(key.team), key.seq};
}
}  // namespace

int detect_epoch(rt::Image& image, const Team& team,
                 const net::FinishKey& key, bool wait_quiescence) {
  rt::FinishState& state = image.finish_state(key);
  int rounds = 0;
  for (;;) {
    if (wait_quiescence) {
      // Paper Fig. 7 line 4: all messages this image sent have landed and
      // all messages it received have completed execution. This is the
      // precondition that bounds detection to L+1 waves (Theorem 1). The
      // wait spans both epochs: a message sent from the odd epoch has its
      // `sent` folded into the even counters at round end while its
      // acknowledgement still carries odd parity, so an even-only check
      // could block forever on a count the odd epoch will receive.
      image.wait_for([&state] { return state.quiesced_totals(); },
                     "finish quiescence", finish_resource(key));
    }
    state.enter_allreduce();  // proceed into the odd epoch
    const std::int64_t deficit = state.even_deficit();
    const std::int64_t total =
        allreduce<std::int64_t>(team, deficit, RedOp::kSum);
    state.exit_allreduce();  // fold odd into even; proceed into even epoch
    if (obs::FlightRecorder* fr = image.runtime().flight_recorder()) {
      fr->record(image.rank(), image.runtime().engine().now(),
                 obs::FrKind::kEpochFold, -1,
                 static_cast<std::uint64_t>(key.team), key.seq);
    }
    ++rounds;
    if (total == 0) {
      return rounds;
    }
  }
}

int detect_four_counter(rt::Image& image, const Team& team,
                        const net::FinishKey& key) {
  rt::FinishState& state = image.finish_state(key);
  std::int64_t prev_sent = -1;
  std::int64_t prev_completed = -1;
  int rounds = 0;
  for (;;) {
    // No quiescence precondition and no epochs: the wave snapshots raw
    // totals, so a single balanced wave can be a coincidence of an
    // inconsistent cut. Correctness comes from requiring two consecutive
    // agreeing waves — which is why this algorithm always pays at least one
    // reduction more than the epoch algorithm's base case.
    std::array<std::int64_t, 2> counters = {
        static_cast<std::int64_t>(state.sent_total()),
        static_cast<std::int64_t>(state.completed_total())};
    Event done;
    allreduce_async<std::int64_t>(team, counters, RedOp::kSum,
                                  {.src_done = done.handle()});
    done.wait();
    ++rounds;
    if (counters[0] == counters[1] && counters[0] == prev_sent &&
        counters[1] == prev_completed) {
      return rounds;
    }
    prev_sent = counters[0];
    prev_completed = counters[1];
    // Let in-flight work land before the next wave; otherwise waves can
    // spin without the cut changing.
    image.wait_for([&state] { return state.quiesced_totals(); },
                   "four-counter wave", finish_resource(key));
  }
}

/// --- centralized (X10-style) detector ---------------------------------------

namespace {

enum class DetectorMsg : std::uint8_t {
  kVector = 0,   ///< member -> owner: round, sent_to[p], completed_local
  kVerdict = 1,  ///< owner -> member: round, done flag
};

/// Owner-side per-round collection state and member-side verdict state,
/// keyed by finish scope. Handlers always execute on the destination image's
/// context, so this lives in per-image scratch storage (Image::scratch) —
/// NOT thread_local, which would be shared by every image under the fiber
/// execution backend.
struct CentralScope {
  // owner side
  std::unordered_map<std::int64_t, int> arrived;
  std::unordered_map<std::int64_t, std::vector<std::int64_t>> sent_sums;
  std::unordered_map<std::int64_t, std::vector<std::int64_t>> completed_by;
  // member side
  std::int64_t verdict_round = -1;
  bool verdict_done = false;
};

using CentralMap = std::unordered_map<net::FinishKey, CentralScope>;

constexpr char kCentralTag = 0;  // tag address for Image::scratch

CentralMap& central_map(Image& image) {
  std::shared_ptr<void>& slot = image.scratch(&kCentralTag);
  if (!slot) {
    slot = std::make_shared<CentralMap>();
  }
  return *std::static_pointer_cast<CentralMap>(slot);
}

void owner_absorb(Image& image, const Team& team, const net::FinishKey& key,
                  std::int64_t round, int from_team_rank,
                  const std::vector<std::int64_t>& sent_to,
                  std::int64_t completed_local);

void send_verdict(Image& image, const Team& team, const net::FinishKey& key,
                  std::int64_t round, bool done) {
  WriteArchive archive;
  archive.write(static_cast<std::uint8_t>(DetectorMsg::kVerdict));
  archive.write(key);
  archive.write(round);
  archive.write(static_cast<std::uint8_t>(done ? 1 : 0));
  for (int member = 1; member < team.size(); ++member) {
    image.send(team.world_rank(member), rt::kHandlerDetector, archive.bytes());
  }
  // Owner applies its own verdict directly.
  CentralScope& scope = central_map(image)[key];
  scope.verdict_round = round;
  scope.verdict_done = done;
}

void send_vector(Image& image, const Team& team, const net::FinishKey& key,
                 std::int64_t round) {
  rt::FinishState& state = image.finish_state(key);
  // X10's wire format: scatter the sparse counts into a dense p-vector.
  std::vector<std::int64_t> sent_to(
      static_cast<std::size_t>(image.num_images()), 0);
  state.sent_to().for_each([&sent_to](int dest, std::int64_t count) {
    sent_to[static_cast<std::size_t>(dest)] = count;
  });
  const auto completed =
      static_cast<std::int64_t>(state.completed_total());

  if (team.rank() == 0) {
    owner_absorb(image, team, key, round, 0, sent_to, completed);
    return;
  }
  WriteArchive archive;
  archive.write(static_cast<std::uint8_t>(DetectorMsg::kVector));
  archive.write(key);
  archive.write(round);
  archive.write(static_cast<std::int32_t>(team.rank()));
  archive.write(completed);
  archive.write(sent_to);
  image.send(team.world_rank(0), rt::kHandlerDetector, archive.take());
}

void owner_absorb(Image& image, const Team& team, const net::FinishKey& key,
                  std::int64_t round, int from_team_rank,
                  const std::vector<std::int64_t>& sent_to,
                  std::int64_t completed_local) {
  CentralScope& scope = central_map(image)[key];
  auto& sums = scope.sent_sums[round];
  auto& completed = scope.completed_by[round];
  const auto images = static_cast<std::size_t>(image.num_images());
  if (sums.empty()) {
    sums.assign(images, 0);
    completed.assign(images, 0);
  }
  for (std::size_t j = 0; j < images && j < sent_to.size(); ++j) {
    sums[j] += sent_to[j];
  }
  completed[static_cast<std::size_t>(
      team.world_rank(from_team_rank))] += completed_local;
  scope.arrived[round] += 1;

  if (scope.arrived[round] == team.size()) {
    // A place terminated iff every message targeted at it has completed
    // there; global termination iff that holds for every place.
    bool done = true;
    for (std::size_t j = 0; j < images; ++j) {
      if (sums[j] != completed[j]) {
        done = false;
        break;
      }
    }
    scope.arrived.erase(round);
    scope.sent_sums.erase(round);
    scope.completed_by.erase(round);
    send_verdict(image, team, key, round, done);
  }
}

}  // namespace

int detect_centralized(rt::Image& image, const Team& team,
                       const net::FinishKey& key) {
  rt::FinishState& state = image.finish_state(key);
  int rounds = 0;
  for (std::int64_t round = 0;; ++round) {
    // A worker reports its vector once it has locally quiesced (X10 workers
    // report on local quiescence of their task pools).
    image.wait_for([&state] { return state.quiesced_totals(); },
                   "centralized quiescence", finish_resource(key));
    send_vector(image, team, key, round);
    ++rounds;
    // Re-resolve the scope each wave: handlers may rehash the map while we
    // are blocked, and the entry may not exist yet on the first pass.
    image.wait_for(
        [&image, key, round] {
          CentralScope& scope = central_map(image)[key];
          return scope.verdict_round >= round;
        },
        "centralized verdict", finish_resource(key));
    if (central_map(image)[key].verdict_done) {
      central_map(image).erase(key);
      return rounds;
    }
  }
}

void install_detector_handlers(rt::Runtime& runtime) {
  runtime.set_handler(
      rt::kHandlerDetector, [](Image& image, net::Message&& message) {
        ReadArchive archive(message.payload);
        const auto type = static_cast<DetectorMsg>(
            archive.read<std::uint8_t>());
        const auto key = archive.read<net::FinishKey>();
        const auto round = archive.read<std::int64_t>();
        if (type == DetectorMsg::kVector) {
          const auto from_team_rank = archive.read<std::int32_t>();
          const auto completed = archive.read<std::int64_t>();
          const auto sent_to = archive.read<std::vector<std::int64_t>>();
          const auto team_data = image.find_team(key.team);
          CAF2_ASSERT(team_data != nullptr,
                      "centralized detector: unknown team");
          owner_absorb(image, Team(team_data), key, round, from_team_rank,
                       sent_to, completed);
        } else {
          const auto done = archive.read<std::uint8_t>() != 0;
          CentralScope& scope = central_map(image)[key];
          scope.verdict_round = round;
          scope.verdict_done = done;
          image.runtime().engine().unblock(image.rank());
        }
      });
}

}  // namespace caf2::core
