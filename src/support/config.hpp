#pragma once

/// \file config.hpp
/// Configuration records for the simulated interconnect and the runtime.
///
/// The simulator substitutes for the paper's Cray XK6/XE6 testbed
/// (DESIGN.md §1). NetworkParams models the interconnect of such a machine:
/// a per-message wire latency, an injection bandwidth, a per-byte handler
/// cost at the receiver, and a jitter term that perturbs (and can reorder)
/// deliveries. A FaultPlan perturbs that wire for the reliable-delivery
/// protocol: one set of per-attempt probabilities that applies to every link,
/// plus one-shot faults scripted against single messages. RuntimeOptions
/// bundles the complete configuration of one run.

#include <cstdint>
#include <string>
#include <vector>

namespace caf2 {

/// --- execution backend -------------------------------------------------------

/// How simulated participants execute (sim/engine.hpp, DESIGN.md §4.8):
/// every image is a stackful fiber multiplexed on its shard's scheduler
/// thread, so a token hand-off is a userspace register swap. Fibers are the
/// only backend (sanitizer builds included); the enum remains so code that
/// names it keeps compiling.
enum class ExecBackend : std::uint8_t {
  kFibers,
};

/// --- fault injection ---------------------------------------------------------
///
/// The fault model perturbs the interconnect deterministically: every fault
/// decision is drawn from a dedicated RNG stream (independent of the jitter
/// stream), so a run with a given seed + FaultPlan is bit-reproducible.
/// Faults only ever apply when the reliable-delivery protocol is active (see
/// ReliabilityParams); injecting loss into the bare best-effort network would
/// simply lose the message.

/// What a scripted one-shot fault does to its target delivery attempt.
enum class FaultKind : std::uint8_t {
  kDrop,       ///< the delivery attempt never reaches the destination
  kDuplicate,  ///< the delivery attempt lands twice
  kDelay,      ///< the delivery attempt is delayed by delay_us
};

/// A scripted fault pins a fault to one specific message: "drop the 3rd
/// message from image 2 to image 5". Messages are identified by their
/// 1-based initiation ordinal on the (source, dest) link.
struct ScriptedFault {
  int source = 0;            ///< world rank of the sender
  int dest = 0;              ///< world rank of the receiver
  std::uint64_t nth = 1;     ///< 1-based message ordinal on the link
  FaultKind kind = FaultKind::kDrop;
  /// 1-based delivery attempt the fault applies to; 0 = every attempt
  /// (a permanent black hole — used to exercise the retry cap).
  int attempt = 1;
  double delay_us = 0.0;     ///< extra delay for kDelay
};

/// Random per-delivery fault probabilities, applied to every link.
struct LinkFaults {
  double drop_probability = 0.0;      ///< delivery attempt is lost
  double dup_probability = 0.0;       ///< delivery attempt lands twice
  double ack_drop_probability = 0.0;  ///< delivery lands but its ack is lost
  double delay_probability = 0.0;     ///< delivery gets extra delay
  double delay_max_us = 0.0;          ///< extra delay ~ U[0, delay_max_us]
  bool any() const {
    return drop_probability > 0.0 || dup_probability > 0.0 ||
           ack_drop_probability > 0.0 || delay_probability > 0.0;
  }
};

/// Deterministic, seeded fault schedule for a whole run.
struct FaultPlan {
  /// Probabilities applied to every delivery attempt on every link.
  LinkFaults all{};
  /// One-shot faults pinned to specific messages.
  std::vector<ScriptedFault> scripted;

  /// True when the plan can inject at least one fault.
  bool active() const;
};

/// Reliable-delivery protocol knobs (per-link sequence numbers, receiver
/// dedup, virtual-time retransmission with exponential backoff). The
/// protocol runs exactly when the FaultPlan is active.
struct ReliabilityParams {
  /// Initial retransmit timeout. Negative = derive from the network
  /// parameters (a little over twice the worst-case round trip).
  double rto_us = -1.0;

  /// Multiplier applied to the timeout after every retransmission.
  double backoff = 2.0;

  /// Total delivery attempts before the runtime gives up and raises a
  /// diagnosable FatalError (with a watchdog report) instead of hanging.
  int max_attempts = 8;
};

/// Counters of injected faults and protocol activity for one run
/// (Network::fault_stats(), also surfaced through caf2::RunStats).
struct FaultStats {
  std::uint64_t deliveries_dropped = 0;     ///< attempts lost in the wire
  std::uint64_t deliveries_duplicated = 0;  ///< attempts landing twice
  std::uint64_t deliveries_delayed = 0;     ///< attempts given extra delay
  std::uint64_t acks_dropped = 0;           ///< delivered but ack lost
  std::uint64_t retransmits = 0;            ///< timer-driven resends
  std::uint64_t duplicates_suppressed = 0;  ///< receiver dedup hits
  std::uint64_t scripted_applied = 0;       ///< one-shot faults that fired
};

/// Interconnect model.
///
/// All times are in *virtual microseconds* of the discrete-event simulator.
struct NetworkParams {
  /// One-way wire latency applied to every message.
  double latency_us = 2.0;

  /// Injection bandwidth in bytes per microsecond. The source buffer is read
  /// ("staged") size/bandwidth after initiation; local data completion is
  /// reached at that point. Must be > 0; use infinity for an ideal link that
  /// stages instantly (NetworkParams::instant() does).
  double bandwidth_bytes_per_us = 2048.0;

  /// Fixed cost of running a message handler at the receiver.
  double handler_cost_us = 0.2;

  /// Maximum delivery jitter. Each delivery is delayed by a uniform value in
  /// [0, jitter_us], so messages can arrive out of order (non-FIFO channels;
  /// the paper's termination-detection algorithm must tolerate this).
  double jitter_us = 0.0;

  /// Latency applied to a completion acknowledgement (delivery -> initiator).
  /// Defaults to the wire latency when negative.
  double ack_latency_us = -1.0;

  /// Largest payload of a "medium" active message, in bytes. GASNet's
  /// AMMediumPacket limit is what caps UTS steal batches in the paper
  /// (§IV-C1a); spawns whose marshalled arguments exceed this limit are
  /// rejected, just as the prototype's steals were.
  std::uint32_t max_medium_payload = 4096;

  /// Deterministic fault schedule (drops, duplicates, extra delays).
  FaultPlan faults{};

  /// Reliable-delivery protocol configuration. The protocol is layered in
  /// exactly when the fault plan is active, so fault-free runs keep the bare
  /// network's event schedule (and performance) bit-for-bit.
  ReliabilityParams reliability{};

  double effective_ack_latency_us() const {
    return ack_latency_us < 0 ? latency_us : ack_latency_us;
  }

  /// True when the reliable-delivery protocol is layered into the network.
  bool reliable_delivery() const { return faults.active(); }

  /// Validate every field; throws caf2::UsageError (via CAF2_REQUIRE) on
  /// nonsense such as non-positive bandwidth, negative latency or jitter, or
  /// out-of-range fault probabilities. Network's constructor calls this.
  void validate() const;

  /// A zero-latency, zero-cost network; useful in unit tests that only check
  /// functional behaviour.
  static NetworkParams instant();

  /// Parameters loosely calibrated to a Gemini-class torus (Jaguar/Hopper
  /// era): ~1.5 us latency, ~6 GB/s injection.
  static NetworkParams gemini_like();
};

/// --- observability -----------------------------------------------------------

/// Configuration of the caf2::obs subsystem (src/obs/, DESIGN.md §4.9).
///
/// Disabled by default, and *zero-cost* when disabled: every hook in the
/// engine, network, and runtime is a single null-pointer test, no span or
/// metric storage is allocated, and the event schedule is untouched. Enabled,
/// the recorder only ever appends to per-image buffers — it never schedules
/// events — so schedule digests, event counts, and RunStats of an
/// instrumented run are bit-identical to an uninstrumented one.
struct ObsConfig {
  /// Master switch. When false nothing is recorded and RunStats::obs is null.
  bool enabled = false;

  /// Hard memory cap per image-track span buffer (bytes), charged at
  /// sizeof(obs::Span) per kept span (the stored record is smaller). Spans
  /// past the cap are counted (Capture::Track::dropped,
  /// Counter::kSpansDropped) and discarded, so 1024-image sweeps stay
  /// tractable.
  std::size_t max_image_track_bytes = std::size_t{1} << 20;

  /// Hard memory cap of the network-track span buffer (bytes). The network
  /// track sees one span per delivered message, so it gets a larger default.
  /// The cap holds for the whole track: a sharded run splits it evenly
  /// across its per-shard lanes.
  std::size_t max_net_track_bytes = std::size_t{8} << 20;

  /// Always-on flight recorder (obs/flight_recorder.hpp): per-image rings of
  /// POD events feeding postmortems. Independent of `enabled` (the span
  /// recorder); recording never allocates past construction and never
  /// schedules engine events, so schedules stay bit-identical.
  /// One constant, obs::kPostmortemRecentEvents, fixes both the ring
  /// capacity per image and the tail a postmortem renders: the ring holds
  /// exactly that tail.
  bool flight_recorder = true;
};

/// Complete configuration of a simulated SPMD run.
struct RuntimeOptions {
  /// Number of process images (the paper's "cores").
  int num_images = 4;

  /// Interconnect model.
  NetworkParams net{};

  /// Master seed; expanded per image / subsystem via SplitMix64.
  std::uint64_t seed = 0x9E3779B97F4A7C15ULL;

  /// Upper bound on executed simulation events; guards against accidental
  /// infinite message loops in tests. Zero means unlimited.
  std::uint64_t max_events = 0;

  /// Number of engine shards: scheduler loops executing the conservative
  /// parallel-DES scheme of DESIGN.md §4.11 (shard 0 on the calling thread,
  /// the rest on worker threads). <= 0 means "resolve from the
  /// environment": CAF2_SIM_SHARDS when set, one shard otherwise; an
  /// explicit value >= 1 always wins over the environment. shards=1 is the
  /// same loop with a single unbounded window, and every shard count runs
  /// the same schedule: the setting changes host time and the partition
  /// counters (RunStats), not results. The runtime derives the conservative
  /// lookahead from the network's wire latency; reliable delivery, fault
  /// plans, and obs span capture all run sharded (per-shard protocol cells
  /// and recorder net lanes, DESIGN.md §4.12). Only a zero-latency network
  /// leaves no positive lookahead and falls back to a single shard.
  int shards = 0;

  /// Virtual-time watchdog quiet period (microseconds). When > 0 and every
  /// unfinished image is blocked while the next pending event is more than
  /// this far in the virtual future, the run is aborted with a structured
  /// watchdog report (per-image blocked reasons, finish epoch counters,
  /// in-flight/retransmitting messages) instead of silently fast-forwarding
  /// through, e.g., a runaway retransmission backoff chain. 0 disables the
  /// quiet-period check; proven deadlocks always produce the full report.
  double watchdog_quiet_us = 0.0;

  /// Human-readable label used in error messages and traces.
  std::string label = "caf2";

  /// Observability (op-level spans, metrics, blame analysis; src/obs/).
  /// Disabled by default; enabling it does not perturb the event schedule.
  ObsConfig obs{};
};

}  // namespace caf2
