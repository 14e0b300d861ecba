#pragma once

/// \file engine.hpp
/// Deterministic discrete-event simulation engine.
///
/// This is the substrate that substitutes for the paper's Cray XK6/XE6
/// testbeds (DESIGN.md §1, §4.1). Each CAF process image runs as its own
/// stackful fiber (sim/fiber.hpp), but the engine admits exactly **one
/// runnable context at a time per shard**: a participant that blocks or
/// advances its virtual clock dispatches its shard's events itself, in
/// *virtual-time* order (ties broken by who posted the event, so runs are
/// fully deterministic), until one activates a participant. It keeps
/// running if that is itself, switches straight onto the other
/// participant's fiber otherwise (one userspace register swap per token
/// hand-off), and suspends to its shard's scheduler loop only when the
/// window has nothing left; a participant that finishes returns to the
/// loop. The loop itself only runs the window barrier and each window's
/// first dispatch. The fiber switches are annotated for AddressSanitizer and
/// ThreadSanitizer, so sanitizer builds run the same code (DESIGN.md §4.8).
///
/// Three event kinds live in the queue:
///  - Wake(p, t): hand the token to participant p at time t (created by
///    advance(), yield(), and unblock());
///  - Call(f, t): run an engine callback at time t (network staging,
///    delivery, timers). Callbacks run on whichever fiber is dispatching,
///    but always under the scheduler's ExecContext (current_id() == -1),
///    and must not touch participant-local state or block;
///  - participants that block without a scheduled wake are resumed only by a
///    subsequent unblock() from a callback or another participant.
///
/// A Call runs at its *run home*: post_for(p, …) at p, post() at the
/// poster's own home. The *poster* is the calling participant or the
/// running call's run home (image 0 before run()). Events are keyed
/// `(at, poster, poster's post counter)`, a function of the program alone
/// (DESIGN.md §4.6).
///
/// Hot-path properties that keep dispatch cheap (DESIGN.md §4.6):
///  - queued events are 24-byte PODs; a Call event's closure lives in a
///    pooled, stable-address small-buffer slot (InlineFn) and runs in place,
///    not in a freshly allocated std::function;
///  - events stamped at the current time go to a FIFO in insertion order
///    instead of the binary heap (sim/event_queue.hpp);
///  - when advance()/yield() can prove the caller's own wake would be the
///    very next event dispatched, it short-circuits the push/pop/handoff
///    entirely (the self-wake fast path). The fast path is trace-identical
///    to the slow path; set CAF2_SIM_NO_FASTPATH=1 (or
///    EngineOptions::enable_fastpath = false) to force the slow path.
///
/// --- sharded parallel execution (DESIGN.md §4.11) ---------------------------
///
/// Every run is a conservative parallel discrete-event simulation over
/// EngineOptions::shards (or CAF2_SIM_SHARDS=N) shards: participants are
/// partitioned into contiguous shards, each shard owns its own event queue,
/// call pool, and clock, and each shard's events execute on one OS thread —
/// shard 0 on the thread that called run(), shards 1..N-1 on worker threads. Virtual time advances in windows: a
/// shard may dispatch any event strictly below one engine-wide `window_end =
/// global_min + lookahead`, where `global_min` is the minimum pending event
/// time across shards and the lookahead is the network's minimum link latency
/// (EngineOptions::lookahead_us). Any event one shard creates on another
/// (a message delivery) carries a timestamp at least `lookahead` in the
/// future, so it can never land inside the window a destination shard is
/// already executing — cross-shard events are staged into the destination's
/// inbox and merged at the next window boundary, keeping their keys. Within
/// one virtual instant only an image's own contexts post events that run at
/// that image, so every shard count runs the same schedule (DESIGN.md
/// §4.11); waking a participant on another shard is a usage error.
/// Sharding requires a positive lookahead; configurations without one
/// (zero-latency networks) automatically fall back to one shard. A shard
/// with no peers can receive nothing, so its window is unbounded: `shards=1`
/// is the same loop with a single window. The reliable-delivery protocol
/// and obs span capture both run sharded (DESIGN.md §4.12).
///
/// A shard whose images have all finished keeps dispatching, but only below
/// the earliest pending event of the shards still running images; once the
/// last image finishes, every shard drains its events at or before that
/// time and the run ends — on one shard too.
///
/// If the queues drain while unfinished participants are blocked, the
/// simulated program has provably deadlocked; the engine collects a
/// structured obs::Postmortem (its own per-participant section plus whatever
/// the installed postmortem collector contributes — the runtime adds wait-for
/// graph edges, per-image finish counters, flight-recorder tails, and the
/// network's in-flight messages) and raises an obs::StallError carrying both
/// the postmortem and its deterministic text rendering in every participant.
/// A virtual-time quiet-period watchdog (EngineOptions::watchdog_quiet_us)
/// produces the same postmortem when every unfinished participant is blocked
/// and the next pending event is suspiciously far in the virtual future
/// (e.g. a runaway retransmission backoff chain). The deadlock / budget /
/// watchdog checks run at window boundaries, where every shard is quiesced
/// and the global state is consistent. With the watchdog on, every window
/// end is capped at `global_min + watchdog_quiet_us`, so a quiet gap always
/// ends a window and the barrier sees it before the clock jumps across it.
/// The event budget (EngineOptions::max_events) is split at each barrier:
/// every shard may dispatch up to ⌈remaining / shards⌉ more events before it
/// parks, so the hot paths compare only the shard's own counter, a run stops
/// at the same point on every repeat, and it overshoots the budget by at
/// most `shards - 1` events (exactly on budget for one shard).

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/inline_fn.hpp"
#include "sim/trace.hpp"
#include "support/config.hpp"
#include "support/error.hpp"

namespace caf2::obs {
class Recorder;
struct Postmortem;
enum class FailKind : std::uint8_t;
}

namespace caf2::sim {

class Engine;

/// The shard count a given configuration requests before the Engine clamps
/// it against the participant count and the lookahead: an explicit
/// `configured >= 1` wins; `configured <= 0` reads CAF2_SIM_SHARDS and
/// defaults to 1. Exposed for bench metadata stamps.
int resolve_shards(int configured);

/// Everything that makes the calling context "participant N of engine E".
/// The engine swaps the thread-local instance on every fiber switch, so
/// code above the engine (e.g. the runtime's current-image pointer, stored
/// in a slot) follows the participant even though many participants share
/// one OS thread.
struct ExecContext {
  Engine* engine = nullptr;
  int id = -1;
  /// Replacement for participant-local `thread_local` variables in higher
  /// layers. Slot 0: rt::Image*, slot 1: rt::Runtime*.
  std::array<void*, 2> slots{};
};

/// Engine knobs (a subset of caf2::RuntimeOptions relevant to scheduling).
struct EngineOptions {
  bool record_trace = false;
  std::uint64_t max_events = 0;  ///< 0 = unlimited
  std::string label = "sim";

  /// Upper bound on recorded TraceEntry records per shard (0 = unlimited).
  /// Entries past the cap are counted (Engine::trace_dropped()) and
  /// discarded, so record_trace on a long 1024-image run cannot grow without
  /// bound. The default bounds the trace at ~128 MiB per shard.
  std::uint64_t max_trace_entries = std::uint64_t{1} << 22;

  /// Enable the self-wake fast path (see file comment). The environment
  /// variable CAF2_SIM_NO_FASTPATH=1 overrides this to false; results are
  /// bit-identical either way, so the switch exists only for regression
  /// testing and micro-benchmark comparisons.
  bool enable_fastpath = true;

  /// Quiet-period watchdog (virtual microseconds; 0 = disabled). When every
  /// unfinished participant is blocked and the earliest pending event lies
  /// more than this far beyond the current virtual time, the engine fails
  /// the run with a watchdog report instead of fast-forwarding the clock.
  /// Participants that are merely advancing their clocks (modeled compute)
  /// hold a scheduled wake and never trip the watchdog.
  double watchdog_quiet_us = 0.0;

  /// Execution backend. Stackful fibers are the only one (see
  /// caf2::ExecBackend); the field stays for source compatibility.
  ExecBackend backend = ExecBackend::kFibers;

  /// Usable stack bytes per participant fiber (rounded up to whole pages; a
  /// PROT_NONE guard page is added below). Virtual memory only — resident
  /// cost is the pages a participant actually touches.
  std::size_t fiber_stack_bytes = std::size_t{1} << 20;

  /// Number of engine shards (scheduler loops; shard 0 runs on the thread
  /// that calls run()). An explicit value >= 1 is used as-is; <= 0 means
  /// "from the environment": CAF2_SIM_SHARDS when set, else 1. The engine clamps the result to the participant count
  /// and falls back to 1 whenever lookahead_us <= 0 (no conservative window
  /// exists without a minimum cross-participant latency).
  int shards = 0;

  /// Conservative lookahead window (virtual microseconds) for sharded runs:
  /// the minimum virtual-time distance of any event one shard can create on
  /// another. The runtime derives it from the network's minimum link
  /// latency. <= 0 disables sharding (automatic fallback to shards = 1).
  double lookahead_us = 0.0;
};

class Engine {
 public:
  Engine(int participants, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Execute \p body SPMD on every participant. Blocks until every
  /// participant's body returned. Rethrows the first participant exception
  /// (after unwinding all other participants).
  void run(const std::function<void(int)>& body);

  /// Number of participants.
  int size() const { return static_cast<int>(participants_.size()); }

  /// --- calls valid only on a participant context --------------------------

  /// Engine owning the calling participant context (nullptr elsewhere).
  static Engine* current_engine();

  /// Participant id of the calling context (-1 elsewhere).
  static int current_id();

  /// Participant-local storage slot of the calling execution context (see
  /// ExecContext::slots). Higher layers use these instead of `thread_local`
  /// so their per-image state follows the participant across fiber switches.
  static void*& context_slot(int index);

  /// Current virtual time in microseconds. In a sharded run this is the
  /// calling context's shard clock; from outside any engine context it is
  /// the maximum over all shard clocks.
  double now() const;

  /// Model local computation: advance virtual time by \p dt microseconds and
  /// yield to any earlier event.
  void advance(double dt);

  /// Let all events scheduled at the current time run before continuing.
  void yield() { advance(0.0); }

  /// Park the calling participant until another participant or a callback
  /// calls unblock() on it. \p reason appears in deadlock diagnostics.
  void block(const char* reason = "blocked");

  /// --- calls valid on a participant context or inside a Call callback -----

  /// Make a blocked participant runnable at the current virtual time.
  /// Harmless if the participant is already runnable or finished. The
  /// target must live on the calling context's shard (a usage error
  /// otherwise).
  void unblock(int participant);

  /// Schedule a callback at absolute virtual time \p at (>= now()).
  /// Accepts any move-constructible void() callable; closures up to
  /// InlineFn::kInlineBytes are stored without heap allocation. The callback
  /// runs at the poster's home: the calling participant, or the running
  /// callback's run home.
  template <class F>
  void post(double at, F&& fn) {
    post_call(at, InlineFn(std::forward<F>(fn)));
  }

  /// Schedule a callback \p delay microseconds from now.
  template <class F>
  void post_in(double delay, F&& fn) {
    post_call(now() + delay, InlineFn(std::forward<F>(fn)));
  }

  /// Schedule a callback that runs at \p participant. Same-shard (and
  /// single-shard) calls queue directly; cross-shard calls stage the event
  /// into the owning shard's inbox for the next window merge and require
  /// `at >= now() + lookahead_us` (the conservative-window contract; the
  /// network's wire latency provides it).
  template <class F>
  void post_for(int participant, double at, F&& fn) {
    post_for_call(participant, at, InlineFn(std::forward<F>(fn)));
  }

  /// Abort the run with a diagnosable failure: a structured obs::Postmortem
  /// is collected and every blocked participant is woken with an
  /// obs::StallError carrying the postmortem's text rendering. Callable from
  /// a participant context or an engine callback; the reliability layer uses
  /// the two-argument form when a message exhausts its retransmission
  /// budget. The one-argument form tags the postmortem
  /// obs::FailKind::kExplicitFail. During a run the failure is recorded
  /// immediately but the postmortem is collected at the next window
  /// boundary, where every shard is quiesced.
  void fail(const std::string& why);
  void fail(const std::string& why, obs::FailKind kind);

  /// Install a callback that fills the runtime-owned sections of a
  /// Postmortem (wait-for graph, per-image counters, network state, blame).
  /// Invoked on a quiesced engine: it must not call back into the engine
  /// except now() and event_count(), and must only *read* simulation state —
  /// safe, because no other context is running. Exceptions it throws are
  /// swallowed into Postmortem::collector_error (never allowed to deadlock a
  /// failing run).
  using PostmortemCollector = std::function<void(obs::Postmortem&)>;
  void set_postmortem_collector(PostmortemCollector fn);

  /// Collect a Postmortem of the current (healthy or stalled) state, tagged
  /// obs::FailKind::kOnDemand. Callable from a participant context or from
  /// outside the run. During a multi-shard run other shards execute
  /// concurrently, so the snapshot contains only the engine-level counters
  /// (no per-participant detail, no collector sections); a one-shard run
  /// (whose caller is the only running context) or an engine between runs
  /// produces the full report.
  obs::Postmortem snapshot_postmortem(const std::string& headline);

  /// The postmortem collected by the first failure, or null if the run has
  /// not failed. Also carried by the obs::StallError run() throws.
  std::shared_ptr<const obs::Postmortem> last_postmortem() const {
    return last_postmortem_;
  }

  /// --- introspection -------------------------------------------------------

  /// Total events dispatched so far (summed over shards).
  std::uint64_t event_count() const;

  /// True when the self-wake fast path is active (options + environment).
  bool fastpath_enabled() const { return fastpath_; }

  /// Token handoffs between *different* participants dispatched so far,
  /// summed over shards. Within a shard this is a pure function of the
  /// dispatch order, so bit-identical across repeats and with the fast path
  /// on or off — the determinism suite compares it. It depends on the
  /// partition: participants on different shards never hand off.
  std::uint64_t context_switch_count() const;

  /// Recorded trace (empty unless EngineOptions::record_trace). Populated
  /// when run() returns; in a sharded run it is the concatenation of the
  /// per-shard traces in shard order. Each participant's own subsequence
  /// (kCall entries carry their run home) is the same at every shard count.
  const std::vector<TraceEntry>& trace() const { return trace_; }

  /// Trace entries discarded by EngineOptions::max_trace_entries.
  std::uint64_t trace_dropped() const;

  /// --- sharding ------------------------------------------------------------

  /// Resolved number of shards (>= 1; clamped and fallback-applied).
  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// True when this engine runs more than one shard.
  bool sharded() const { return shards_.size() > 1; }

  /// Shard owning \p participant.
  int shard_of(int participant) const {
    return shard_index_[static_cast<std::size_t>(participant)];
  }

  /// The calling context's shard, or -1 outside any engine context.
  int current_shard() const;

  /// Window barriers between shards so far (1 for the initial window;
  /// always 0 for a single shard, whose barriers synchronize nothing).
  std::uint64_t window_count() const;

  /// Shard-windows in which a shard had no executable event (its next event
  /// lay at or beyond the window end). High stall counts explain a flat
  /// scaling curve: the partition is imbalanced or the lookahead too small.
  std::uint64_t window_stall_count() const;

  /// Events dispatched per shard (one entry per shard, index = shard id).
  std::vector<std::uint64_t> shard_event_counts() const;

  /// Attach an observability recorder (nullptr detaches; see obs/obs.hpp).
  /// Hooks fire from advance() and block(); a null observer costs one branch.
  /// Recording never schedules events, so an observed run's event schedule,
  /// trace, and stats are bit-identical to an unobserved one. Sharded
  /// engines are supported when the recorder was built with one net lane per
  /// shard (obs::Recorder's net_lanes constructor argument): the per-image
  /// hooks only ever fire on the image's home shard, and network spans go to
  /// the calling shard's lane (DESIGN.md §4.12).
  void set_observer(obs::Recorder* observer) { observer_ = observer; }

 private:
  enum class PState : std::uint8_t { kIdle, kRunnable, kWaiting, kFinished };

  struct Participant {
    int id = -1;
    PState state = PState::kIdle;
    /// Events this participant's contexts posted: the low bits of their
    /// keys. Touched only on its home shard.
    std::uint64_t posts = 0;
    bool active = false;  ///< holds (or is about to receive) the token
    const char* block_reason = nullptr;  ///< static string, while kWaiting
    std::unique_ptr<Fiber> fiber;
    ExecContext context;  ///< saved while the fiber is switched away
  };

  static constexpr std::uint32_t kNoSlot = QueuedEvent::kNoSlot;

  /// Call closures, addressed by slot. Slots live in fixed-size chunks that
  /// never move, so a closure runs in place while it posts more closures.
  class CallPool {
   public:
    std::uint32_t acquire(InlineFn fn) {
      std::uint32_t slot = made_;
      if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
      } else {
        if ((made_ & (kChunk - 1)) == 0) {
          chunks_.push_back(std::make_unique<InlineFn[]>(kChunk));
        }
        ++made_;
      }
      (*this)[slot] = std::move(fn);
      return slot;
    }
    InlineFn& operator[](std::uint32_t slot) {
      return chunks_[slot / kChunk][slot & (kChunk - 1)];
    }
    /// Destroy the slot's closure and recycle the slot.
    void release(std::uint32_t slot) {
      (*this)[slot].reset();
      free_.push_back(slot);
    }
    std::size_t in_use() const { return made_ - free_.size(); }

   private:
    static constexpr std::uint32_t kChunk = 256;  // a power of two
    std::vector<std::unique_ptr<InlineFn[]>> chunks_;
    std::vector<std::uint32_t> free_;
    std::uint32_t made_ = 0;
  };

  /// A call staged by one shard for another, merged at the next window
  /// boundary under the key its poster gave it.
  struct CrossEvent {
    double at = 0.0;
    std::uint64_t seq = 0;
    std::int32_t run_home = -1;
    InlineFn fn;
  };

  /// Per-shard scheduler state. Everything but the inbox is touched only by
  /// the shard's own scheduler loop and the fibers it resumes (one OS
  /// thread), or by the barrier completer while every shard is quiesced. The
  /// inbox is the only member other shards may touch, always under
  /// inbox_mutex.
  struct Shard {
    int index = 0;
    int first = 0;  ///< first participant id; shard spans [first, first+count)
    int count = 0;

    EventQueue queue;
    CallPool calls;
    /// The scheduler loop's own context (the thread's context when the loop
    /// started), installed while anything but a participant body runs.
    ExecContext loop_context;

    // now_us, dispatched and context_switches are atomics so now() and the
    // counters stay callable from other threads; all *writes* happen on the
    // shard's own thread (a plain load + store, no locked read-modify-write),
    // so relaxed ordering suffices — cross-thread publication rides the
    // window-barrier handoff.
    std::atomic<double> now_us{0.0};
    std::atomic<std::uint64_t> dispatched{0};
    std::atomic<std::uint64_t> context_switches{0};
    // This shard's share of the event budget: it parks once `dispatched`
    // reaches this value (see the file comment). Written by the barrier,
    // read on the shard's hot paths.
    std::uint64_t event_cap = 0;
    // Events strictly below this time may dispatch (see the file comment).
    // Written by the barrier; -inf once the shard's last image finishes.
    double horizon = 0.0;
    int token_owner = -1;  ///< participant last handed the token
    int run_home = 0;      ///< run home of the call being dispatched
    int finished_count = 0;

    std::vector<TraceEntry> trace;
    std::uint64_t trace_dropped = 0;

    // Cross-shard staging (multi-shard runs only).
    std::mutex inbox_mutex;
    std::vector<CrossEvent> inbox;
  };

  Shard& home_shard(int participant) {
    return *shards_[static_cast<std::size_t>(shard_of(participant))];
  }

  /// The shard of the calling context; shard 0 from outside any engine
  /// context (before or after the run).
  Shard& calling_shard();

  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// One shard's scheduler loop: create its participants' fibers, then
  /// alternately open a window at the barrier and start the window's
  /// dispatch (the participants carry it on through switch_out), until the
  /// barrier ends the run.
  void shard_loop(Shard& shard, const std::function<void(int)>& body);

  /// Arrive at the window barrier; the last arriver merges inboxes and opens
  /// the next window (or completes the run). Returns false when the run is
  /// over (all finished, or failed with the postmortem built).
  bool window_rendezvous();

  /// Last-arriver body: every shard is quiesced, the sync mutex serializes
  /// access. Runs the deadlock / budget / watchdog checks, sets the next
  /// window end and every shard's event cap. Returns false to end the run.
  bool advance_window_locked();

  /// Merge a shard's inbox into its queue; events keep their keys, so the
  /// arrival order does not matter. Returns false — filling \p violation —
  /// when a call arrived below the destination clock: a conservative-window
  /// violation the caller must turn into an engine failure.
  bool drain_inbox_locked(Shard& shard, std::string& violation);

  /// Build the failure postmortem on a quiesced engine and release every
  /// participant to unwind (shutdown_ready_).
  void finish_failure_locked();

  /// Record a failure without collecting the postmortem (the collection
  /// happens at the window barrier where every shard is quiesced). First
  /// failure wins.
  void fail_pending(obs::FailKind kind, const std::string& headline,
                    std::exception_ptr participant_error, bool callback_error);

  /// Participant body (entry function of the participant's fiber).
  void fiber_main(int id, const std::function<void(int)>& body);

  /// Switch from the scheduler loop onto a participant's fiber, installing
  /// its ExecContext. Returns when a participant of the hand-off chain it
  /// starts suspends or finishes; the loop's context is reinstalled then.
  void resume_fiber(Shard& shard, Participant& target);

  /// After a failure: resume every live fiber of \p shard once so its
  /// pending engine call observes failed_ and throws, unwinding the body
  /// (whether it is parked in Fiber::suspend() or Fiber::switch_to()).
  /// Runs in rank order (deterministic); never-started fibers are retired
  /// without running the body.
  void unwind_live_fibers(Shard& shard);

  /// Relinquish the token: dispatch the shard's next events under the
  /// loop's context, then keep running (self re-activated), switch directly
  /// onto the activated participant, or suspend to the scheduler loop when
  /// the window has nothing left. Must be called by the participant that
  /// currently has the token. Throws obs::StallError if the run failed
  /// meanwhile.
  void switch_out(Participant& self);

  /// Pop and dispatch \p shard's events until a participant is activated,
  /// the shard drains, the window is exhausted, or the event budget is
  /// spent. Returns the activated participant, or nullptr. A callback that
  /// throws fails the run with a tagged error instead of propagating.
  Participant* dispatch_chain(Shard& shard);

  /// The participant whose context is posting (see the file comment).
  Participant& poster();

  /// The next event key of \p poster.
  static std::uint64_t next_seq(Participant& poster);

  /// Queue an event under \p poster's next key at \p when (>= the shard
  /// clock): on the FIFO tier when it is the current time, else the heap.
  void enqueue(Shard& shard, double when, Participant& poster,
               std::int32_t participant, std::uint32_t call_slot);

  void post_call(double at, InlineFn fn);
  void post_for_call(int participant, double at, InlineFn fn);

  std::uint64_t total_dispatched() const;

  /// Collect the structured postmortem: engine-owned fields (participant
  /// states, event counts) plus whatever the postmortem collector
  /// contributes. Exceptions from the collector are swallowed into
  /// Postmortem::collector_error — a report must never deadlock the failing
  /// run it is reporting on. Requires a quiesced engine (every shard parked
  /// at the window barrier, a one-shard run's own context, or no run).
  std::shared_ptr<const obs::Postmortem> build_postmortem_locked(
      obs::FailKind kind, const std::string& headline);

  /// Throw the failure as an obs::StallError carrying last_postmortem_.
  [[noreturn]] void throw_failure() const;

  /// True when at least one participant is blocked and every unfinished one
  /// is (i.e. only queued events can make progress). Requires a quiesced
  /// engine.
  bool all_unfinished_blocked_locked() const;

  void record(Shard& shard, TraceKind kind, int participant);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::int32_t> shard_index_;  ///< participant id -> shard
  std::vector<std::unique_ptr<Participant>> participants_;
  EngineOptions options_;
  bool fastpath_ = true;
  double lookahead_ = 0.0;
  PostmortemCollector collector_;
  std::shared_ptr<const obs::Postmortem> last_postmortem_;

  std::atomic<bool> failed_{false};
  std::string failure_reason_;
  std::exception_ptr first_error_;
  bool running_ = false;
  std::atomic<bool> quiesced_{true};  ///< false while shard loops run

  // Window-barrier state. sync_mutex_ orders every arrival, which is what
  // lets the last arriver read and mutate every shard's state race-free;
  // the others wait for sync_generation_ to move on.
  std::mutex sync_mutex_;
  int sync_waiting_ = 0;
  std::atomic<std::uint32_t> sync_generation_{0};
  bool sync_done_ = false;
  std::uint64_t windows_ = 0;
  std::uint64_t window_stalls_ = 0;
  // The horizon of shards that still run images. Only the barrier completer
  // writes it (and every horizon), while every other shard waits; the
  // generation release/acquire publishes them.
  double window_end_ = 0.0;
  bool draining_ = false;  ///< the last window, after every image finished

  // Failure staging: the postmortem is built later, at the barrier, so the
  // failing context only records what happened here.
  std::mutex fail_mutex_;
  obs::FailKind pending_fail_kind_{};
  std::string pending_fail_headline_;
  bool pending_fail_is_callback_ = false;
  std::atomic<bool> shutdown_ready_{false};

  std::vector<TraceEntry> trace_;  ///< merged after run()
  obs::Recorder* observer_ = nullptr;
};

/// RAII helper used in tests to run a closure body on every participant of a
/// fresh engine with the given options.
void run_spmd(int participants, const std::function<void(int)>& body,
              EngineOptions options = {});

}  // namespace caf2::sim
