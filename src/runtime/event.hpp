#pragma once

/// \file event.hpp
/// Events — completion notification and pairwise coordination (paper §II-B).
///
/// An Event is a counting synchronization object owned by the image that
/// constructs it. notify() increments the count (with release semantics:
/// it first awaits local *operation* completion of the outstanding implicit
/// asynchronous operations in the current scope — paper §III-B4a); wait()
/// blocks until the count is positive and consumes one notification
/// (acquire semantics: it orders nothing before itself).
///
/// Events that must be notified from other images are addressed through
/// RemoteEvent handles; CoEvent allocates one event per member of a team and
/// hands out remote handles by team rank (the coarray-of-events idiom).

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/team.hpp"

namespace caf2 {

namespace rt {
class Image;
}

/// Serializable handle to an event on some image.
struct RemoteEvent {
  std::int32_t image = -1;      ///< world rank of the owner
  std::uint64_t event_id = 0;

  bool valid() const { return image >= 0; }
};

class Event {
 public:
  /// Registers the event with the calling image.
  Event();
  ~Event();

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Notify with release semantics: awaits local operation completion of the
  /// outstanding implicit operations in the current scope, then posts.
  void notify();

  /// Block until at least one notification is pending, then consume it.
  void wait();

  /// Block until \p count notifications are pending, consuming them.
  void wait_many(std::uint64_t count);

  /// Non-blocking: consume one pending notification if available.
  bool test();

  /// Pending (unconsumed) notification count.
  std::uint64_t pending() const { return count_; }

  /// Handle for remote notification / async-op completion routing.
  RemoteEvent handle() const;

  std::uint64_t id() const { return id_; }

  /// --- runtime-internal ----------------------------------------------------

  /// Raw post (no release semantics); runs a queued trigger instead of
  /// incrementing when one is armed. Called by the runtime on local notify
  /// and on arrival of a remote notify message. Safe from engine-callback
  /// context.
  void post();

  /// Arm a one-shot continuation: consumes the next notification (or an
  /// already-pending one immediately) and runs \p fn. Used to implement
  /// predicated asynchronous copies (copy_async preE).
  void when_posted(std::function<void()> fn);

 private:
  std::uint64_t id_ = 0;
  std::uint64_t count_ = 0;
  rt::Image* owner_ = nullptr;
  /// Armed when_posted() continuations, oldest first. A vector, not a deque:
  /// only predicated copies ever arm one, and an empty std::deque still
  /// allocates on construction.
  std::vector<std::function<void()>> triggers_;
};

/// Notify an event wherever it lives: locally if owned by the calling
/// image, otherwise via an (untracked) active message. Release semantics
/// apply on the notifying image either way.
void notify_event(const RemoteEvent& event);

/// One event per member of a team, remotely addressable by team rank —
/// the "event coarray" of the paper. Allocation is collective (SPMD).
class CoEvent {
 public:
  explicit CoEvent(const Team& team);
  ~CoEvent();

  CoEvent(const CoEvent&) = delete;
  CoEvent& operator=(const CoEvent&) = delete;

  /// The calling image's own event.
  Event& local() { return local_event_; }

  /// Handle to the event owned by team rank \p team_rank.
  RemoteEvent operator()(int team_rank) const;

  const Team& team() const { return team_; }

 private:
  Team team_;
  Event local_event_;
  std::uint64_t slot_ = 0;  ///< per-team coevent slot (same on all members)
};

}  // namespace caf2
