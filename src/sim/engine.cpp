#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>
#include <thread>

#include "obs/obs.hpp"
#include "obs/postmortem.hpp"

namespace caf2::sim {

int resolve_shards(int configured) {
  if (configured >= 1) {
    return configured;  // an explicit request always wins over the env
  }
  const char* env = std::getenv("CAF2_SIM_SHARDS");
  if (env == nullptr || *env == '\0') {
    return 1;  // unset (CI sets it empty on non-shard jobs)
  }
  const std::string_view text(env);
  int parsed = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  CAF2_REQUIRE(error == std::errc() && end == text.data() + text.size() &&
                   parsed >= 1,
               "CAF2_SIM_SHARDS must be a positive integer, got \"" +
                   std::string(text) + "\"");
  return parsed;
}

namespace {
/// The calling context's identity. The engine swaps it on every fiber switch
/// (a switched-away participant's copy lives in Participant::context, the
/// scheduler loop's in Shard::loop_context).
thread_local ExecContext tls_context;

/// The shard the calling OS thread works for, set by each shard loop for its
/// whole tenure. Fiber switches never change the OS thread, so unlike
/// tls_context this needs no swapping.
struct ShardTls {
  Engine* engine = nullptr;
  int index = 0;
};
thread_local ShardTls tls_shard;

/// Bump a counter only its own shard's thread writes: a plain load + store,
/// no locked read-modify-write.
void bump(std::atomic<std::uint64_t>& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

/// An event key is `poster << kPosterShift | poster's post counter`.
constexpr int kPosterShift = 40;
constexpr std::uint64_t kMaxPosts = std::uint64_t{1} << kPosterShift;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Odd multipliers (2^64 / golden ratio, and SplitMix64's first), so
/// multiplying by either is a bijection on 64-bit words.
constexpr std::uint64_t kDigestMul = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kKindMul = 0xbf58476d1ce4e5b9ULL;

/// Fold one word into a running digest. For a fixed word the step is a
/// bijection of the digest, so two sequences that differ in one word always
/// end in different digests, and the rotate and multiply do not commute
/// with the xor, so the order of the words counts too.
constexpr std::uint64_t fold_word(std::uint64_t digest, std::uint64_t word) {
  return (std::rotl(digest, 23) ^ word) * kDigestMul;
}
}  // namespace

Engine* Engine::current_engine() { return tls_context.engine; }
int Engine::current_id() { return tls_context.id; }

void*& Engine::context_slot(int index) {
  CAF2_ASSERT(index >= 0 &&
                  static_cast<std::size_t>(index) < tls_context.slots.size(),
              "context_slot index out of range");
  return tls_context.slots[static_cast<std::size_t>(index)];
}

Engine::Engine(int participants, EngineOptions options)
    : options_(std::move(options)) {
  CAF2_REQUIRE(participants > 0, "Engine needs at least one participant");
  CAF2_REQUIRE(participants <= (1 << (64 - kPosterShift - 1)),
               "Engine: participant count exceeds the event-key image field");

  int shard_count = resolve_shards(options_.shards);
  lookahead_ = options_.lookahead_us;
  if (lookahead_ <= 0.0) {
    shard_count = 1;  // no conservative window exists -> one shard
  }
  shard_count = std::min(shard_count, participants);
  if (shard_count == 1) {
    lookahead_ = 0.0;
  }

  participants_.reserve(static_cast<std::size_t>(participants));
  for (int i = 0; i < participants; ++i) {
    auto participant = std::make_unique<Participant>();
    participant->id = i;
    participants_.push_back(std::move(participant));
  }

  // Contiguous partition; the first `participants % shard_count` shards take
  // one extra participant.
  shards_.reserve(static_cast<std::size_t>(shard_count));
  shard_index_.resize(static_cast<std::size_t>(participants));
  const int base = participants / shard_count;
  const int extra = participants % shard_count;
  int first = 0;
  for (int s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    shard->first = first;
    shard->count = base + (s < extra ? 1 : 0);
    for (int p = first; p < first + shard->count; ++p) {
      shard_index_[static_cast<std::size_t>(p)] = s;
    }
    first += shard->count;
    shards_.push_back(std::move(shard));
  }
}

Engine::~Engine() {
  // run() joins every shard loop and finishes all fibers; nothing to do
  // unless run() was never called.
}

Engine::Shard& Engine::calling_shard() {
  return *shards_[tls_shard.engine == this
                      ? static_cast<std::size_t>(tls_shard.index)
                      : 0];
}

int Engine::current_shard() const {
  return tls_shard.engine == this ? tls_shard.index : -1;
}

double Engine::now() const {
  if (tls_shard.engine == this) {
    return shards_[static_cast<std::size_t>(tls_shard.index)]->now_us.load(
        std::memory_order_relaxed);
  }
  double latest = 0.0;
  for (const auto& shard : shards_) {
    latest = std::max(latest, shard->now_us.load(std::memory_order_relaxed));
  }
  return latest;
}

std::uint64_t Engine::total_dispatched() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->dispatched.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Engine::event_count() const { return total_dispatched(); }

std::uint64_t Engine::context_switch_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->context_switches.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Engine::schedule_digest() const {
  std::uint64_t digest = 0;
  for (const auto& participant : participants_) {
    digest = fold_word(fold_word(digest, participant->schedule.digest),
                       participant->schedule.decisions);
  }
  return digest;
}

std::vector<ParticipantDigest> Engine::participant_digests() const {
  std::vector<ParticipantDigest> digests;
  digests.reserve(participants_.size());
  for (const auto& participant : participants_) {
    digests.push_back(participant->schedule);
  }
  return digests;
}

std::uint64_t Engine::window_count() const {
  return sharded() ? windows_ : 0;
}

std::uint64_t Engine::window_stall_count() const { return window_stalls_; }

std::vector<std::uint64_t> Engine::shard_event_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    counts.push_back(shard->dispatched.load(std::memory_order_relaxed));
  }
  return counts;
}

void Engine::fold(Participant& subject, Decision kind, double at,
                  std::uint64_t key) {
  // One word per decision keeps the hot path to two multiplies. The key and
  // the kind are spread over all 64 bits by different multipliers before
  // the time's bits are xored in: a change in any one of time, kind or key
  // changes the word, and two changes cancel only by coincidence.
  const std::uint64_t tag =
      key * kDigestMul + static_cast<std::uint64_t>(kind) * kKindMul;
  ParticipantDigest& schedule = subject.schedule;
  schedule.digest =
      fold_word(schedule.digest, std::bit_cast<std::uint64_t>(at) ^ tag);
  ++schedule.decisions;
}

std::shared_ptr<const obs::Postmortem> Engine::build_postmortem_locked(
    obs::FailKind kind, const std::string& headline) {
  auto pm = std::make_shared<obs::Postmortem>();
  pm->kind = kind;
  pm->headline = headline;
  pm->label = options_.label;
  double now = 0.0;
  std::uint64_t pending_calls = 0;
  for (const auto& shard : shards_) {
    now = std::max(now, shard->now_us.load(std::memory_order_relaxed));
    pending_calls += shard->calls.in_use();
  }
  pm->now_us = now;
  pm->events = total_dispatched();
  pm->pending_calls = pending_calls;
  pm->images = size();
  pm->per_image.reserve(participants_.size());
  for (const auto& participant : participants_) {
    obs::PmImage img;
    img.rank = participant->id;
    switch (participant->state) {
      case PState::kFinished:
        img.state = "finished";
        break;
      case PState::kWaiting:
        img.state = "blocked";
        if (participant->block_reason != nullptr) {
          img.block_reason = participant->block_reason;
        }
        break;
      case PState::kIdle:
        img.state = "not started";
        break;
      case PState::kRunnable:
        img.state = "runnable";
        break;
    }
    pm->per_image.push_back(std::move(img));
  }
  pm->classification = obs::classify(kind, false);
  // An exception escaping the collector would abandon the very failure we
  // are reporting (every shard is parked at the barrier), so tag and
  // swallow it instead.
  if (collector_) {
    try {
      collector_(*pm);
    } catch (const std::exception& e) {
      pm->collector_error =
          std::string("postmortem collector: ") + e.what();
    } catch (...) {
      pm->collector_error = "postmortem collector: non-standard exception";
    }
  }
  return pm;
}

void Engine::fail_pending(Shard& shard, obs::FailKind kind,
                          const std::string& headline,
                          std::exception_ptr participant_error,
                          bool callback_error) {
  if (!shard.failure) {
    shard.failure =
        Failure{shard.now_us.load(std::memory_order_relaxed), kind, headline,
                std::move(participant_error), callback_error};
  }
}

void Engine::finish_failure_locked(obs::FailKind kind,
                                   const std::string& headline,
                                   std::exception_ptr participant_error,
                                   bool callback_error) {
  if (failed_) {
    return;
  }
  last_postmortem_ = build_postmortem_locked(kind, headline);
  failure_reason_ = options_.label + ": " + obs::to_text(*last_postmortem_);
  // A participant's exception is rethrown as raised. Otherwise run()
  // rethrows a StallError: callback failures carry label + headline,
  // everything else the full postmortem rendering.
  first_error_ = participant_error
                     ? std::move(participant_error)
                     : std::make_exception_ptr(obs::StallError(
                           callback_error ? options_.label + ": " + headline
                                          : failure_reason_,
                           last_postmortem_));
  failed_ = true;
}

void Engine::throw_failure() const {
  throw obs::StallError(failure_reason_, last_postmortem_);
}

bool Engine::all_unfinished_blocked_locked() const {
  bool any_waiting = false;
  for (const auto& participant : participants_) {
    switch (participant->state) {
      case PState::kFinished:
        break;
      case PState::kWaiting:
        any_waiting = true;
        break;
      case PState::kIdle:
      case PState::kRunnable:
        return false;
    }
  }
  return any_waiting;
}

void Engine::fail(const std::string& why) {
  fail(why, obs::FailKind::kExplicitFail);
}

void Engine::fail(const std::string& why, obs::FailKind kind) {
  if (quiesced_.load(std::memory_order_acquire)) {
    // No run in progress: nothing to wait for.
    finish_failure_locked(kind, why);
    return;
  }
  fail_pending(calling_shard(), kind, why);
}

void Engine::set_postmortem_collector(PostmortemCollector fn) {
  collector_ = std::move(fn);
}

obs::Postmortem Engine::snapshot_postmortem(const std::string& headline) {
  if (!sharded() || quiesced_.load(std::memory_order_acquire)) {
    return *build_postmortem_locked(obs::FailKind::kOnDemand, headline);
  }
  // Mid-run snapshot of a multi-shard engine: other shards are executing,
  // so per-participant state and the collector's sections cannot be read
  // race-free. Report the engine-level counters only.
  obs::Postmortem pm;
  pm.kind = obs::FailKind::kOnDemand;
  pm.headline = headline;
  pm.label = options_.label;
  pm.now_us = now();
  pm.events = total_dispatched();
  pm.images = size();
  pm.classification = obs::classify(obs::FailKind::kOnDemand, false);
  pm.collector_error =
      "sharded run in progress: per-image state and collector sections "
      "unavailable";
  return pm;
}

Engine::Participant& Engine::poster() {
  if (tls_shard.engine != this) {
    return *participants_[0];  // outside any context, before run()
  }
  if (tls_context.engine == this && tls_context.id >= 0) {
    return *participants_[tls_context.id];
  }
  return *participants_[shards_[static_cast<std::size_t>(tls_shard.index)]
                            ->run_home];
}

std::uint64_t Engine::next_seq(Participant& poster) {
  CAF2_ASSERT(poster.posts < kMaxPosts, "event key: post counter overflow");
  return (static_cast<std::uint64_t>(poster.id) << kPosterShift) |
         poster.posts++;
}

void Engine::enqueue(Shard& shard, double when, Participant& poster,
                     std::int32_t participant, std::uint32_t call_slot) {
  const QueuedEvent event{when, next_seq(poster), participant, call_slot};
  if (when == shard.now_us.load(std::memory_order_relaxed)) {
    shard.queue.push_now(event);
  } else {
    shard.queue.push(event);
  }
}

Engine::Participant* Engine::dispatch_chain(Shard& shard) {
  for (;;) {
    // An exhausted shard is not a deadlock: other shards may still feed
    // this one at the next window merge. The barrier performs the global
    // deadlock / budget / watchdog checks with every shard quiesced.
    if (shard.failure || shard.queue.empty() ||
        shard.queue.top().at >= shard.horizon ||
        shard.dispatched.load(std::memory_order_relaxed) >= shard.event_cap) {
      return nullptr;
    }

    const QueuedEvent event = shard.queue.pop();
    bump(shard.dispatched);
    const double now =
        std::max(shard.now_us.load(std::memory_order_relaxed), event.at);
    shard.now_us.store(now, std::memory_order_relaxed);

    if (event.call_slot != kNoSlot) {
      shard.run_home = event.participant;
      fold(*participants_[event.participant], Decision::kCall, now, event.seq);
      // Callbacks (network staging, deliveries, timers) run under the
      // scheduler loop's context, on the loop or on the stack of the
      // participant that is handing the token on. No participant of this
      // shard holds the token here, so callbacks may freely mutate the
      // shard's runtime state (mailboxes, counters) without racing. The
      // closure runs in place — its slot cannot move or be reused while it
      // posts more — and is released once it returns.
      // A throwing callback must not propagate into the dispatching
      // participant or out of the scheduler loop; convert it into an engine
      // failure.
      std::string error;
      try {
        shard.calls[event.call_slot]();
      } catch (const std::exception& e) {
        error = std::string(" raised: ") + e.what();
      } catch (...) {
        error = " raised a non-standard exception";
      }
      shard.calls.release(event.call_slot);
      if (!error.empty()) {
        fail_pending(shard, obs::FailKind::kCallbackError,
                     "engine callback (dispatched from the scheduler)" + error,
                     nullptr, /*callback_error=*/true);
        return nullptr;
      }
      continue;
    }

    Participant& target = *participants_[event.participant];
    if (target.state == PState::kFinished || target.active) {
      continue;  // stale wake
    }
    fold(target, Decision::kWake, now, event.seq);
    target.active = true;
    target.state = PState::kRunnable;
    if (target.id != shard.token_owner) {
      // Counted only when the token moves between participants, so the
      // value is a pure function of the dispatch order: identical across
      // repeats.
      shard.token_owner = target.id;
      bump(shard.context_switches);
    }
    return &target;
  }
}

void Engine::switch_out(Participant& self) {
  self.active = false;
  // Once the failure postmortem is built, parking would leave this fiber
  // parked forever (the unwind pass resumes each live fiber exactly once) —
  // throw immediately instead. Before that, a failed shard still parks
  // normally: the barrier builds the postmortem, and the unwind pass that
  // follows it picks this fiber up.
  if (!failed_) {
    // Dispatch the next events right here, under the loop's context so that
    // callbacks see no participant (current_id() == -1).
    Shard& shard = home_shard(self.id);
    self.context = tls_context;
    tls_context = shard.loop_context;
    Participant* const next = dispatch_chain(shard);
    if (next == &self) {
      tls_context = self.context;  // re-activated: keep running, no switch
    } else if (next != nullptr) {
      tls_context = next->context;
      Fiber::switch_to(*next->fiber);
    } else {
      Fiber::suspend();  // nothing left this window: the loop takes over
    }
    // Whoever switches back to this fiber installs its context first.
  }
  if (failed_) {
    throw_failure();
  }
  self.state = PState::kRunnable;
  self.block_reason = nullptr;
}

void Engine::advance(double dt) {
  CAF2_REQUIRE(tls_context.engine == this && tls_context.id >= 0,
               "advance() must be called from a participant context");
  CAF2_REQUIRE(dt >= 0.0, "advance() needs a non-negative duration");
  Participant& self = *participants_[tls_context.id];
  CAF2_ASSERT(self.active, "advance() caller does not hold the token");
  Shard& shard = home_shard(self.id);

  const double now = shard.now_us.load(std::memory_order_relaxed);
  const double target = now + dt;
  fold(self, Decision::kAdvance, now);
  if (observer_ != nullptr && dt > 0.0) {
    observer_->on_compute(self.id, now, target);
  }
  enqueue(shard, target, self, self.id, kNoSlot);
  // Stray wakes (e.g. an unblock() from a completion callback) can activate
  // this participant before its scheduled resume time; modeled computation
  // must not finish early, so re-relinquish until the clock reaches the
  // target (the scheduled wake is still queued).
  do {
    switch_out(self);
  } while (shard.now_us.load(std::memory_order_relaxed) < target);
}

void Engine::block(const char* reason) {
  CAF2_REQUIRE(tls_context.engine == this && tls_context.id >= 0,
               "block() must be called from a participant context");
  Participant& self = *participants_[tls_context.id];
  Shard& shard = home_shard(self.id);
  CAF2_ASSERT(self.active, "block() caller does not hold the token");
  const double now = shard.now_us.load(std::memory_order_relaxed);
  fold(self, Decision::kBlock, now);
  if (observer_ != nullptr) {
    observer_->on_block_begin(self.id, now, reason);
  }
  self.state = PState::kWaiting;
  self.block_reason = reason;
  switch_out(self);
  // switch_out throws on engine failure, harmlessly abandoning the pending
  // blocked span.
  if (observer_ != nullptr) {
    observer_->on_block_end(self.id,
                            shard.now_us.load(std::memory_order_relaxed));
  }
}

void Engine::unblock(int participant) {
  CAF2_REQUIRE(participant >= 0 && participant < size(),
               "unblock(): participant id out of range");
  const int dest = shard_of(participant);
  CAF2_REQUIRE(!sharded() || current_shard() == dest,
               "unblock(): the participant lives on another shard");
  Shard& shard = *shards_[static_cast<std::size_t>(dest)];
  Participant& target = *participants_[participant];
  if (target.state == PState::kFinished || target.active) {
    return;
  }
  enqueue(shard, shard.now_us.load(std::memory_order_relaxed), poster(),
          participant, kNoSlot);
}

std::uint32_t Engine::acquire_call(Shard& shard, InlineFn fn) {
  const std::uint32_t slot = shard.calls.acquire();
  shard.calls[slot] = std::move(fn);
  return slot;
}

void Engine::post_call(double at, InlineFn fn) {
  CAF2_REQUIRE(static_cast<bool>(fn), "post() needs a callable");
  Participant& from = poster();
  Shard& shard = calling_shard();
  enqueue(shard, std::max(at, shard.now_us.load(std::memory_order_relaxed)),
          from, from.id, acquire_call(shard, std::move(fn)));
}

void Engine::post_for_call(int participant, double at, InlineFn fn) {
  CAF2_REQUIRE(static_cast<bool>(fn), "post_for() needs a callable");
  CAF2_REQUIRE(participant >= 0 && participant < size(),
               "post_for(): participant id out of range");
  const int dest = shard_of(participant);
  Participant& from = poster();
  Shard& shard = calling_shard();
  const double now = shard.now_us.load(std::memory_order_relaxed);
  if (shard.index == dest) {
    enqueue(shard, std::max(at, now), from, participant,
            acquire_call(shard, std::move(fn)));
    return;
  }
  CAF2_REQUIRE(tls_shard.engine == this,
               "cross-shard post_for() outside an engine context");
  CAF2_ASSERT(at >= now + lookahead_ - 1e-9,
              "cross-shard event violates the conservative lookahead window");
  CrossEvent ev{at, next_seq(from), participant, std::move(fn)};
  Shard& dst = *shards_[static_cast<std::size_t>(dest)];
  std::lock_guard<std::mutex> guard(dst.inbox_mutex);
  dst.inbox.push_back(std::move(ev));
}

bool Engine::drain_inbox_locked(Shard& shard, std::string& violation) {
  std::vector<CrossEvent> batch;
  {
    std::lock_guard<std::mutex> guard(shard.inbox_mutex);
    batch.swap(shard.inbox);
  }
  // Calls are provably in the destination's future — a sender's clock is
  // at least global_min and a call rides at least one lookahead, so it
  // lands at or past the window end every clock stayed below. Verify that
  // instead of running a straggler late, which would corrupt latency
  // metrics undetectably.
  const double local_now = shard.now_us.load(std::memory_order_relaxed);
  for (auto& ev : batch) {
    if (ev.at < local_now) {
      std::ostringstream os;
      os << "conservative window violation: cross-shard call from image "
         << (ev.seq >> kPosterShift) << " at t=" << ev.at
         << " us merged into shard " << shard.index << "'s past (clock "
         << local_now << " us)";
      violation = os.str();
      return false;
    }
    shard.queue.push(QueuedEvent{ev.at, ev.seq, ev.run_home,
                                 acquire_call(shard, std::move(ev.fn))});
  }
  return true;
}

bool Engine::window_rendezvous() {
  std::unique_lock<std::mutex> lock(sync_mutex_);
  if (sync_done_) {
    return false;
  }
  if (++sync_waiting_ == shard_count()) {
    sync_waiting_ = 0;
    sync_done_ = !advance_window_locked();
    sync_generation_.fetch_add(1, std::memory_order_release);
    sync_generation_.notify_all();
    return !sync_done_;
  }
  // The completer needs sync_mutex_ to bump the generation, so the value
  // read here is the one it will move past; its release publishes every
  // write the barrier made (sync_done_ and all shard state).
  const std::uint32_t generation =
      sync_generation_.load(std::memory_order_relaxed);
  lock.unlock();
  sync_generation_.wait(generation, std::memory_order_acquire);
  return !sync_done_;
}

bool Engine::advance_window_locked() {
  // Every shard loop is parked in this rendezvous and every participant is
  // parked in its shard (a loop only arrives once its shard is quiescent),
  // so all shard state is safe to read and mutate here; the barrier handoff
  // publishes whatever this thread writes.
  if (failed_) {
    return false;  // fail() before the run: the postmortem is built
  }
  // Every shard ran its window up to its end or its own first failure, so
  // the window's earliest failure by (time, shard index) is one outcome.
  const Failure* earliest = nullptr;
  for (const auto& shard : shards_) {
    if (shard->failure &&
        (earliest == nullptr || shard->failure->at < earliest->at)) {
      earliest = &*shard->failure;
    }
  }
  if (earliest != nullptr) {
    finish_failure_locked(earliest->kind, earliest->headline,
                          earliest->error, earliest->callback_error);
    return false;
  }
  if (draining_) {
    return false;  // the drain window after the last finish has run
  }

  std::string violation;
  for (auto& shard : shards_) {
    if (!drain_inbox_locked(*shard, violation)) {
      finish_failure_locked(obs::FailKind::kExplicitFail, violation);
      return false;
    }
  }

  // The earliest pending event across shards after the inbox merge, and
  // across the shards that still run images (+inf when there is none).
  double global_min = kInf;
  double running_min = kInf;
  double latest = 0.0;  ///< the latest shard clock
  int finished = 0;
  for (const auto& shard : shards_) {
    finished += shard->finished_count;
    latest = std::max(latest, shard->now_us.load(std::memory_order_relaxed));
    if (!shard->queue.empty()) {
      global_min = std::min(global_min, shard->queue.top().at);
      if (shard->finished_count < shard->count) {
        running_min = std::min(running_min, shard->queue.top().at);
      }
    }
  }
  if (finished == size()) {
    // Every image has finished: drain every shard's events at or before the
    // last finish — cross-shard events land at least one lookahead later —
    // in one last window, then end the run. The last finishing shard
    // stopped at its finish, so the latest clock is the finish time.
    draining_ = true;
    for (auto& shard : shards_) {
      shard->horizon = std::nextafter(latest, kInf);
      shard->event_cap = std::numeric_limits<std::uint64_t>::max();
    }
    return true;
  }
  if (global_min == kInf) {
    finish_failure_locked(obs::FailKind::kDeadlock,
                          "deadlock: no pending events and every "
                          "unfinished participant is blocked");
    return false;
  }
  const std::uint64_t dispatched = total_dispatched();
  if (options_.max_events != 0 && dispatched >= options_.max_events) {
    finish_failure_locked(obs::FailKind::kEventBudget,
                          "simulation event budget exceeded");
    return false;
  }
  const double quiet = options_.watchdog_quiet_us;
  if (quiet > 0.0) {
    if (global_min > latest + quiet && all_unfinished_blocked_locked()) {
      std::ostringstream os;
      os << "watchdog: every image is blocked and no event is due within "
         << quiet << " us (next event at t=" << global_min << " us)";
      finish_failure_locked(obs::FailKind::kQuietWatchdog, os.str());
      return false;
    }
  }

  ++windows_;
  // One shard has no peers and can receive nothing, so its window is
  // unbounded. Otherwise every shard gets the same end. Every queued event
  // lies at or above global_min, so global_min never decreases across
  // windows and the max() is provably a no-op — kept as a defensive
  // invariant: a window end must never move backwards once shard clocks
  // have entered a window.
  double end = sharded() ? std::max(window_end_, global_min + lookahead_)
                         : kInf;
  if (quiet > 0.0) {
    // Watchdog cap: a quiet gap ends the window, so the check above sees it
    // at the next barrier instead of the clock jumping across it. The
    // previous end is at most the previous global_min + quiet, so the cap
    // never moves the end backwards.
    end = std::min(end, global_min + quiet);
  }
  window_end_ = end;

  // Split the remaining event budget, ceil(remaining / shards) each, so a
  // shard's cap depends only on barrier state, never on another shard's
  // progress mid-window. A shard whose images have all finished stays below
  // the running shards' earliest event: the last image finishes no earlier,
  // so it never runs an event a one-shard run would not.
  const std::uint64_t shards = shards_.size();
  const std::uint64_t share =
      (options_.max_events - dispatched + shards - 1) / shards;
  for (auto& shard : shards_) {
    shard->event_cap =
        options_.max_events == 0
            ? std::numeric_limits<std::uint64_t>::max()
            : shard->dispatched.load(std::memory_order_relaxed) + share;
    shard->horizon = shard->finished_count < shard->count
                         ? end
                         : std::min(end, running_min);
    if (shard->queue.empty() || shard->queue.top().at >= shard->horizon) {
      ++window_stalls_;
    }
  }
  return true;
}

void Engine::fiber_main(int id, const std::function<void(int)>& body) {
  Participant& self = *participants_[id];
  self.state = PState::kRunnable;

  std::exception_ptr error;
  try {
    body(id);
  } catch (...) {
    error = std::current_exception();
  }

  // The entry function's return switches to the shard's scheduler loop,
  // which takes over dispatching.
  Shard& shard = home_shard(id);
  if (error) {
    fail_pending(shard, obs::FailKind::kImageError,
                 "participant raised an exception", error);
  }
  self.state = PState::kFinished;
  self.active = false;
  if (++shard.finished_count == shard.count) {
    shard.horizon = -kInf;  // wait for the barrier (see the file comment)
  }
  fold(self, Decision::kFinish, shard.now_us.load(std::memory_order_relaxed));
}

void Engine::resume_fiber(Shard& shard, Participant& target) {
  // Each participant saves its own context (slot updates included) when it
  // switches away in switch_out(), so nothing needs saving here, whichever
  // participant of the hand-off chain comes back.
  tls_context = target.context;
  target.fiber->resume();
  tls_context = shard.loop_context;
}

void Engine::unwind_live_fibers(Shard& shard) {
  for (int p = shard.first; p < shard.first + shard.count; ++p) {
    Participant& participant = *participants_[p];
    if (participant.state == PState::kFinished) {
      continue;
    }
    if (!participant.fiber->started()) {
      // Never received the token: retire it without running the body (and
      // without a kFinish decision).
      participant.state = PState::kFinished;
      participant.active = false;
      ++shard.finished_count;
      continue;
    }
    // The fiber is parked inside switch_out(), in Fiber::suspend() or
    // Fiber::switch_to(); one resume lets it observe failed_, throw, and
    // unwind its body. switch_out() refuses to park once the failure is
    // ready, so this resume returns only when the fiber has finished.
    resume_fiber(shard, participant);
    CAF2_ASSERT(participant.fiber->finished(),
                "fiber survived failure unwinding");
  }
}

void Engine::shard_loop(Shard& shard, const std::function<void(int)>& body) {
  const ShardTls saved = tls_shard;
  tls_shard = ShardTls{this, shard.index};
  shard.loop_context = tls_context;
  for (int p = shard.first; p < shard.first + shard.count; ++p) {
    Participant& participant = *participants_[p];
    participant.context = ExecContext{this, p, {}};
    participant.fiber = std::make_unique<Fiber>(
        options_.fiber_stack_bytes, [this, p, &body] { fiber_main(p, body); });
  }

  // Open a window at the barrier, then dispatch this shard's first events
  // and switch onto the activated participant. From there the participants
  // dispatch and hand the token on themselves (switch_out); control comes
  // back here when one of them finds the window exhausted, or finishes —
  // then dispatch on from here, until the shard has nothing left to
  // dispatch this window.
  while (window_rendezvous()) {
    while (Participant* const target = dispatch_chain(shard)) {
      resume_fiber(shard, *target);
    }
  }
  if (failed_) {
    unwind_live_fibers(shard);
  }
  for (int p = shard.first; p < shard.first + shard.count; ++p) {
    participants_[p]->fiber.reset();
  }
  tls_shard = saved;
}

void Engine::run(const std::function<void(int)>& body) {
  CAF2_REQUIRE(!running_, "Engine::run() may only be called once");
  running_ = true;

  // Every participant starts with a wake at t=0; the first barrier opens
  // the first window.
  for (auto& shard : shards_) {
    for (int p = shard->first; p < shard->first + shard->count; ++p) {
      enqueue(*shard, 0.0, *participants_[0], p, kNoSlot);
    }
  }

  quiesced_.store(false, std::memory_order_release);
  std::vector<std::thread> workers;
  workers.reserve(shards_.size() - 1);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    Shard* raw = shards_[s].get();
    workers.emplace_back([this, raw, &body] { shard_loop(*raw, body); });
  }
  shard_loop(*shards_[0], body);
  for (auto& worker : workers) {
    worker.join();
  }
  quiesced_.store(true, std::memory_order_release);

  if (failed_) {
    std::rethrow_exception(first_error_);
  }
}

}  // namespace caf2::sim
