#pragma once

/// \file image.hpp
/// Per-process-image runtime state and the progress engine.
///
/// An Image is the runtime context of one CAF process image: its finish
/// accounting, cofence scopes, event/coarray/team registries, pending
/// collective states, and the progress engine that executes incoming active
/// messages. Exactly one Image exists per simulation participant; the
/// executing image is reachable via Image::current() on participant threads.
///
/// An Image is also the one door from the layers above the network to the
/// wire (DESIGN.md §4.3): outside net/, only its send() and send_staged()
/// build a message header, and only an Image stamps a message's finish
/// envelope or moves a finish scope's counters.
///
/// Threading discipline: the simulation engine runs at most one context at a
/// time (a participant *or* an engine callback), so Image state needs no
/// locking. Engine callbacks may mutate any image's state through explicit
/// references but must not block; only the image's own thread may call the
/// blocking entry points (wait_for, advance).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "obs/postmortem.hpp"
#include "runtime/coarray.hpp"
#include "runtime/cofence_tracker.hpp"
#include "runtime/event.hpp"
#include "runtime/finish_state.hpp"
#include "runtime/ids.hpp"
#include "runtime/team.hpp"
#include "support/rng.hpp"

namespace caf2::rt {

class Runtime;

/// A buffered or dispatched collective stage message.
struct CollStageMsg {
  int stage = 0;
  int from_team_rank = 0;
  std::vector<std::uint8_t> data;
};

/// Base class of per-collective state machines (implemented in ops).
class CollBase {
 public:
  virtual ~CollBase() = default;

  /// Deliver one stage message; \p image is the image this state lives on.
  virtual void on_stage(Image& image, CollStageMsg&& msg) = 0;

  /// True once the operation is finished on this image and the state can be
  /// discarded.
  virtual bool finished() const = 0;
};

/// Buffered messages + (once locally started) the live state machine for a
/// collective instance.
struct PendingColl {
  std::unique_ptr<CollBase> op;
  std::vector<CollStageMsg> buffered;
};

class Image {
 public:
  /// \p world_members is team_world's member list (0..p-1), built once by
  /// the runtime and shared by every image.
  Image(Runtime& runtime, int rank, std::uint64_t seed,
        std::shared_ptr<const std::vector<int>> world_members);
  ~Image();

  Image(const Image&) = delete;
  Image& operator=(const Image&) = delete;

  /// The image executing on the calling participant thread.
  static Image& current();

  int rank() const { return rank_; }
  int num_images() const;
  Runtime& runtime() { return runtime_; }
  Xoshiro256ss& rng() { return rng_; }

  /// --- progress engine -----------------------------------------------------

  /// Execute all currently-delivered messages (handlers run inline and may
  /// themselves block, re-entering progress — GASNet-style).
  void progress();

  /// Block until \p pred holds, executing incoming messages while waiting.
  /// \p reason appears in deadlock diagnostics.
  void wait_for(const std::function<bool()>& pred, const char* reason);

  /// Like wait_for(), but names the resource being waited on: the wait
  /// appears on this image's wait stack (feeding the postmortem wait-for
  /// graph) for its whole duration, and the flight recorder logs
  /// wait-begin/wait-end around any actual blocking.
  void wait_for(const std::function<bool()>& pred, const char* reason,
                const obs::ResourceId& resource);

  /// --- wait stack (postmortem wait-for graph) ------------------------------

  /// Waits this image is currently inside, outermost first. Read by the
  /// postmortem collector while this image is parked; safe, because the
  /// engine runs one context at a time and collection happens under the
  /// engine gate.
  const std::vector<obs::WaitFrame>& wait_stack() const { return wait_stack_; }

  /// Push/pop a frame without blocking through wait_for() — used by
  /// constructs whose actual blocking happens in nested waits (e.g. a finish
  /// scope's termination detection blocks inside allreduce event waits, but
  /// the postmortem should name the finish scope too).
  void push_wait_frame(const obs::ResourceId& resource, const char* reason);
  void pop_wait_frame();

  /// True when this image has provably passed finish scope \p key: either a
  /// terminated state still exists, or the scope's sequence number was
  /// handed out and no live state remains. Used by the postmortem collector
  /// to exclude done members from a finish resource's satisfier set.
  bool finish_scope_passed(const net::FinishKey& key) const;

  /// --- finish accounting ---------------------------------------------------

  /// The innermost active finish scope (invalid key if none).
  net::FinishKey current_finish() const;
  void push_finish(const net::FinishKey& key);
  void pop_finish();
  std::uint32_t next_finish_seq(int team_id);

  /// Per-scope state, created on demand (messages may arrive before this
  /// image enters the matching finish block).
  FinishState& finish_state(const net::FinishKey& key);

  /// Read-only view of every live finish-scope state (watchdog diagnostics).
  const std::unordered_map<net::FinishKey, FinishState>& finish_states() const {
    return finish_states_;
  }
  void erase_finish_state(const net::FinishKey& key);

  /// --- per-image extension state -------------------------------------------

  /// Type-erased per-image storage for higher layers (e.g. the centralized
  /// termination detector's owner/member bookkeeping, the last finish
  /// report). Layers used to keep such state in `thread_local` variables,
  /// which silently assumed one OS thread per image — false with fibers,
  /// where every image of a shard shares that shard's scheduler thread.
  /// \p tag is an arbitrary unique address (take the address of a file-local
  /// object); the slot is created empty on first use and lives as long as
  /// the image.
  std::shared_ptr<void>& scratch(const void* tag) { return scratch_[tag]; }

  /// --- sends and finish charges (the message side of paper Fig. 7) --------
  ///
  /// Every message an image sends goes through send() or send_staged(). A
  /// valid \p finish makes the message tracked: the header carries the key and
  /// this image's present epoch parity in that scope, `sent` is counted at
  /// once and `delivered` when the delivery acknowledgement returns
  /// (finish_ack). An invalid key sends the message untracked and touches no
  /// FinishState. The receiver counts `received` and `completed` around the
  /// handler (execute()). \p callbacks are reported as net::Network::send
  /// describes.

  /// Send \p payload to \p handler on world rank \p dest.
  void send(int dest, net::HandlerId handler,
            std::vector<std::uint8_t> payload,
            const net::FinishKey& finish = {},
            net::SendCallbacks callbacks = {});

  /// Staged twin of send(): \p read produces the payload at staging time
  /// (net::Network::send_staged).
  void send_staged(int dest, net::HandlerId handler, std::size_t size_hint,
                   net::StageReader read, const net::FinishKey& finish = {},
                   net::SendCallbacks callbacks = {});

  /// Charge a local operation to \p finish as a message to this image:
  /// counts `sent` now and returns the parity it carries, which the matching
  /// complete_local() takes. An invalid key charges nothing (returns false).
  bool charge_local(const net::FinishKey& finish);

  /// Complete a charge_local() of parity \p odd: counts `delivered`,
  /// `received` and `completed`. No-op for an invalid key; waking the image
  /// is left to the caller.
  void complete_local(const net::FinishKey& finish, bool odd);

  /// The network's tracked-ack hook for a message this image sent: count
  /// `delivered` in its finish scope and wake the image.
  void finish_ack(const net::MessageHeader& header);

  /// --- cofence -------------------------------------------------------------

  CofenceTracker& cofence_tracker() { return cofence_; }

  /// Register an implicitly-synchronized operation in the current scope.
  ImplicitOpPtr register_implicit(bool reads_local, bool writes_local,
                                  const char* what);

  /// --- events --------------------------------------------------------------

  std::uint64_t register_event(Event* event);
  void register_event_alias(std::uint64_t alias, Event* event);
  void deregister_event(std::uint64_t id);
  Event* find_event(std::uint64_t id);

  /// --- coarrays ------------------------------------------------------------

  std::uint64_t next_coarray_seq(int team_id);
  void register_block(std::uint64_t id, BlockInfo info);
  void deregister_block(std::uint64_t id);
  BlockInfo lookup_block(std::uint64_t id) const;

  /// --- teams ---------------------------------------------------------------

  Team world_team() const;
  void add_team(std::shared_ptr<const TeamData> data);
  std::shared_ptr<const TeamData> find_team(int id) const;
  std::uint32_t next_split_seq(int team_id);
  std::uint64_t next_coevent_slot(int team_id);

  /// --- collectives ---------------------------------------------------------

  PendingColl& coll_state(const CollKey& key);
  void erase_coll_state(const CollKey& key);
  std::uint32_t next_coll_seq(int team_id);
  /// Collective instances with live state on this image (started and not
  /// yet locally complete, or holding early stage messages).
  std::size_t live_collectives() const { return colls_.size(); }

  /// --- deferred copy plans (predicated copies) -----------------------------

  std::uint64_t stash_plan(std::function<void()> plan);
  /// Run and discard plan \p id (no-op with a diagnostic failure if absent).
  void fire_plan(std::uint64_t id);

  /// Fresh id for implicit-op / plan correlation.
  std::uint64_t next_op_id() { return ++op_id_counter_; }

  /// --- pending-get destinations --------------------------------------------
  /// A get's destination pointer lives on the initiator until the response
  /// arrives; responses carry the plan id that retrieves it.
  std::uint64_t stash_get(std::function<void(std::span<const std::uint8_t>)> sink);
  void complete_get(std::uint64_t id, std::span<const std::uint8_t> data);

 private:
  friend class Runtime;

  void execute(net::Message&& message);

  /// The header of a message from this image; stamps and charges \p finish
  /// when it is valid (see send()).
  net::MessageHeader stamp(int dest, net::HandlerId handler,
                           const net::FinishKey& finish);

  Runtime& runtime_;
  int rank_;
  Xoshiro256ss rng_;

  // wait stack (postmortem wait-for graph)
  std::vector<obs::WaitFrame> wait_stack_;

  // finish
  std::vector<net::FinishKey> finish_stack_;
  std::unordered_map<net::FinishKey, FinishState> finish_states_;
  std::unordered_map<int, std::uint32_t> finish_seqs_;

  // cofence
  CofenceTracker cofence_;

  // events
  std::uint64_t event_id_counter_ = 0;
  std::unordered_map<std::uint64_t, Event*> events_;

  // coarrays
  std::unordered_map<int, std::uint64_t> coarray_seqs_;
  std::unordered_map<std::uint64_t, BlockInfo> blocks_;

  // per-image extension state (see scratch())
  std::unordered_map<const void*, std::shared_ptr<void>> scratch_;

  // teams
  std::unordered_map<int, std::shared_ptr<const TeamData>> teams_;
  std::unordered_map<int, std::uint32_t> split_seqs_;
  std::unordered_map<int, std::uint64_t> coevent_slots_;

  // collectives
  std::map<CollKey, PendingColl> colls_;
  std::unordered_map<int, std::uint32_t> coll_seqs_;

  // deferred plans / get sinks
  std::uint64_t op_id_counter_ = 0;
  std::unordered_map<std::uint64_t, std::function<void()>> plans_;
  std::unordered_map<std::uint64_t,
                     std::function<void(std::span<const std::uint8_t>)>>
      get_sinks_;
};

/// RAII wait-stack frame (see Image::push_wait_frame).
class WaitFrameScope {
 public:
  WaitFrameScope(Image& image, const obs::ResourceId& resource,
                 const char* reason)
      : image_(image) {
    image_.push_wait_frame(resource, reason);
  }
  ~WaitFrameScope() { image_.pop_wait_frame(); }

  WaitFrameScope(const WaitFrameScope&) = delete;
  WaitFrameScope& operator=(const WaitFrameScope&) = delete;

 private:
  Image& image_;
};

}  // namespace caf2::rt
