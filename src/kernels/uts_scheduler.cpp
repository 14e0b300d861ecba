#include "kernels/uts_scheduler.hpp"

#include <algorithm>
#include <deque>

#include "runtime/image.hpp"
#include "runtime/runtime.hpp"

namespace caf2::kernels {

namespace {

/// Per-image scheduler state. Shipped functions run on the target image's
/// thread, so thread-local storage addresses "the executing image's state"
/// exactly as the paper's runtime does with image-local globals.
struct UtsState {
  UtsConfig config{};
  double log_fail = 0.0;  ///< config.tree.log_fail(), computed once
  Team team;
  std::deque<UtsNode> queue;
  std::vector<int> lifelines;  ///< team ranks waiting for work from us
  bool draining = false;
  bool pending_steal = false;
  bool quiesced = false;  ///< past its steal phase; relies on lifelines
  UtsStats stats{};

  int effective_batch() const {
    const auto limit = rt::Image::current()
                           .runtime()
                           .options()
                           .net.max_medium_payload;
    const int by_payload =
        static_cast<int>((limit - 64) / sizeof(UtsNode));
    return std::clamp(config.steal_batch, 1, std::max(by_payload, 1));
  }
};

// Per-image scheduler-state pointer (Image::scratch, non-owning: the state
// lives on uts_run's frame). Not thread_local — under the fiber execution
// backend every image shares one OS thread, and shipped functions must see
// the state of the image they landed on.
constexpr char kUtsTag = 0;

UtsState& uts() {
  std::shared_ptr<void>& slot = rt::Image::current().scratch(&kUtsTag);
  CAF2_ASSERT(slot != nullptr, "UTS shipped function outside uts_run");
  return *static_cast<UtsState*>(slot.get());
}

std::vector<UtsNode> take_front(std::deque<UtsNode>& queue, int n) {
  std::vector<UtsNode> out;
  const int take = std::min<int>(n, static_cast<int>(queue.size()));
  out.reserve(static_cast<std::size_t>(take));
  for (int i = 0; i < take; ++i) {
    out.push_back(queue.front());
    queue.pop_front();
  }
  return out;
}

void drain();
void share_to_lifelines();

void arm_lifelines();

/// Shipped: deposit a batch of nodes on this image and, if it is idle,
/// process them right here (the active-message handler is the execution
/// vehicle for work that lands on a quiesced image). A quiesced image that
/// exhausts the pushed work re-arms its lifelines — lifelines are consumed
/// by each push, and without re-arming the image would starve for the rest
/// of the run (Saraswat et al. re-establish lifelines the same way).
void uts_push_work(std::vector<UtsNode> batch) {
  UtsState& s = uts();
  for (const UtsNode& node : batch) {
    s.queue.push_back(node);
  }
  if (s.pending_steal) {
    s.pending_steal = false;
    s.stats.steals_successful += 1;
  }
  if (!s.draining) {
    drain();
    if (s.quiesced) {
      arm_lifelines();
    }
  }
}

/// Shipped: nothing to steal at the victim.
void uts_steal_nack() { uts().pending_steal = false; }

/// Shipped: a steal attempt landing on this image (the victim). The whole
/// check-and-reserve runs locally — the 2-round-trip rewrite of Fig. 3.
void uts_steal_request(std::int32_t thief_team_rank) {
  UtsState& s = uts();
  const int thief_world = s.team.world_rank(thief_team_rank);
  if (static_cast<int>(s.queue.size()) > s.config.share_threshold) {
    const int give = std::min(static_cast<int>(s.queue.size()) / 2,
                              s.effective_batch());
    spawn<uts_push_work>(thief_world,
                         take_front(s.queue, std::max(give, 1)));
  } else {
    spawn<uts_steal_nack>(thief_world);
  }
}

/// Shipped: arm a lifeline — the requester wants any future excess work.
void uts_set_lifeline(std::int32_t requester_team_rank) {
  UtsState& s = uts();
  if (std::find(s.lifelines.begin(), s.lifelines.end(),
                requester_team_rank) == s.lifelines.end()) {
    s.lifelines.push_back(requester_team_rank);
  }
  if (!s.draining &&
      static_cast<int>(s.queue.size()) > s.config.share_threshold) {
    share_to_lifelines();
  }
}

/// Arm a lifeline on each hypercube neighbor of this image.
void arm_lifelines() {
  UtsState& s = uts();
  for (int bit = 0; (1 << bit) < s.team.size(); ++bit) {
    const int neighbor = s.team.rank() ^ (1 << bit);
    if (neighbor < s.team.size()) {
      spawn<uts_set_lifeline>(s.team.world_rank(neighbor),
                              static_cast<std::int32_t>(s.team.rank()));
    }
  }
}

void share_to_lifelines() {
  UtsState& s = uts();
  while (!s.lifelines.empty() &&
         static_cast<int>(s.queue.size()) > s.config.share_threshold) {
    const int target = s.lifelines.back();
    s.lifelines.pop_back();
    // Steal-half policy: hand out up to half the queue, capped by the
    // medium-message payload limit.
    const int give = std::min(static_cast<int>(s.queue.size()) / 2,
                              s.effective_batch());
    spawn<uts_push_work>(s.team.world_rank(target),
                         take_front(s.queue, std::max(give, 1)));
    s.stats.lifeline_pushes += 1;
  }
}

/// Process local work: expand nodes depth-first in chunks, charging the
/// modeled per-node cost, feeding armed lifelines, and giving the progress
/// engine a chance to serve steal requests between chunks.
void drain() {
  UtsState& s = uts();
  s.draining = true;
  rt::Image& image = rt::Image::current();
  while (!s.queue.empty()) {
    int processed = 0;
    while (processed < s.config.chunk && !s.queue.empty()) {
      const UtsNode node = s.queue.back();
      s.queue.pop_back();
      s.stats.nodes += 1;
      ++processed;
      const int kids = s.config.tree.child_count(node, s.log_fail);
      for (int i = 0; i < kids; ++i) {
        s.queue.push_back(UtsTree::child(node, i));
      }
    }
    compute(s.config.node_cost_us * processed);
    share_to_lifelines();
    image.progress();  // serve steal requests between chunks
  }
  s.draining = false;
}

/// Team rank 0 expands the top of the tree breadth-first and hands out the
/// frontier (the paper's "initial work sharing").
void distribute_initial(UtsState& s) {
  const int p = s.team.size();
  const int want = std::max(p * s.config.initial_per_image, p);
  std::deque<UtsNode> frontier{s.config.tree.root()};
  while (static_cast<int>(frontier.size()) < want && !frontier.empty()) {
    const UtsNode node = frontier.front();
    frontier.pop_front();
    s.stats.nodes += 1;
    compute(s.config.node_cost_us);
    const int kids = s.config.tree.child_count(node, s.log_fail);
    if (kids == 0 && frontier.empty()) {
      return;  // the whole tree was tiny and rank 0 consumed it
    }
    for (int i = 0; i < kids; ++i) {
      frontier.push_back(UtsTree::child(node, i));
    }
  }
  // Round-robin the frontier; rank 0 keeps its own share locally.
  int next = 1 % p;
  while (!frontier.empty()) {
    auto batch = take_front(frontier, s.effective_batch());
    if (next == 0 || p == 1) {
      for (const UtsNode& node : batch) {
        s.queue.push_back(node);
      }
    } else {
      spawn<uts_push_work>(s.team.world_rank(next), std::move(batch));
    }
    next = (next + 1) % p;
  }
}

}  // namespace

UtsStats uts_run(const Team& team, const UtsConfig& config) {
  CAF2_REQUIRE(team.valid(), "uts_run needs a valid team");
  UtsState state;
  state.config = config;
  state.log_fail = config.tree.log_fail();
  state.team = team;
  rt::Image::current().scratch(&kUtsTag) =
      std::shared_ptr<void>(&state, [](void*) {});

  // Entry barrier: no image may start distributing/stealing until every
  // member has installed its scheduler state (messages can land on an image
  // the moment a faster teammate begins).
  team_barrier(team);

  rt::Image& image = rt::Image::current();
  auto& rng = image.rng();
  const double t0 = now_us();

  finish(
      team,
      [&] {
        if (team.rank() == 0) {
          distribute_initial(state);
        }
        drain();

        // Randomized stealing: n failed attempts => quiesce via lifelines.
        int failed = 0;
        while (failed < config.steal_attempts && team.size() > 1) {
          if (!state.queue.empty()) {
            drain();
            continue;
          }
          int victim = static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(team.size() - 1)));
          if (victim >= team.rank()) {
            ++victim;  // skip self
          }
          state.pending_steal = true;
          state.stats.steals_attempted += 1;
          obs::Recorder* const rec = image.runtime().observer();
          if (rec != nullptr) {
            rec->add(image.rank(), obs::Counter::kStealAttempts);
          }
          spawn<uts_steal_request>(team.world_rank(victim),
                                   static_cast<std::int32_t>(team.rank()));
          {
            obs::BlameScope blame(rec, image.rank(), obs::Blame::kStealIdle);
            image.wait_for(
                [&state] {
                  return !state.pending_steal || !state.queue.empty();
                },
                "uts steal",
                obs::ResourceId{obs::ResourceKind::kSteal,
                                team.world_rank(victim), 0, 0});
          }
          if (!state.queue.empty()) {
            drain();
          } else {
            ++failed;
          }
        }

        // Arm lifelines on hypercube neighbors and quiesce; excess work will
        // be pushed to us and processed inside the push_work handler while
        // this image sits in finish's termination detection.
        state.quiesced = true;
        arm_lifelines();
      },
      FinishOptions{config.detector});

  state.stats.finish_rounds = last_finish_report().rounds;
  state.stats.elapsed_us = now_us() - t0;
  state.stats.total_nodes = allreduce<std::uint64_t>(
      team, state.stats.nodes, RedOp::kSum);
  rt::Image::current().scratch(&kUtsTag).reset();
  return state.stats;
}

}  // namespace caf2::kernels
