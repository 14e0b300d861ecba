#pragma once

/// \file cofence_tracker.hpp
/// Tracking of implicitly-synchronized asynchronous operations for cofence.
///
/// Every asynchronous operation initiated *without* explicit completion
/// events is counted in the current scope. The scope counts the ops short
/// of local data completion per access class (does the op read and/or write
/// initiator-local data?), and the ops short of local operation completion.
/// `cofence(DOWNWARD, UPWARD)` waits until no op whose class must not pass
/// the fence is short of local data completion (paper §III-B). Nothing is
/// kept per op: the op's ImplicitOp handle names its scope and class, and
/// each completion point decrements one counter through it.
///
/// Scopes nest dynamically: a shipped function executing on an image pushes
/// a fresh scope, so a cofence inside it only captures operations that the
/// shipped function itself initiated (paper Fig. 10). A completion whose
/// scope was already popped is dropped: nothing can fence or notify from a
/// popped scope, so its counts are never read again.

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace caf2::rt {

class Image;

/// Which access classes may pass across a cofence in a given direction.
/// (caf2 public API re-exports this as caf2::Pass.)
enum class PassClass : std::uint8_t {
  kNone = 0,   ///< strict: nothing passes (the default)
  kRead = 1,   ///< operations that read initiator-local data may pass
  kWrite = 2,  ///< operations that write initiator-local data may pass
  kAny = 3,    ///< reads and writes may pass
};

inline bool allows_read(PassClass c) {
  return c == PassClass::kRead || c == PassClass::kAny;
}
inline bool allows_write(PassClass c) {
  return c == PassClass::kWrite || c == PassClass::kAny;
}

/// Handle to one implicitly-synchronized asynchronous operation, held by
/// the code that completes it. An empty (default) handle is an explicit op:
/// both completions do nothing. Each completion must be reported once, data
/// before (or together with) operation completion.
class ImplicitOp {
 public:
  ImplicitOp() = default;

  bool empty() const { return serial_ == 0; }

  /// Local data completion reached (paper Fig. 4): the op's scope counts one
  /// fewer data-pending op of its class.
  void data_complete(Image& image) const;
  /// Local operation completion reached: one fewer op-pending op.
  void op_complete(Image& image) const;

 private:
  friend class CofenceTracker;

  std::uint64_t serial_ = 0;  ///< the scope's push serial; 0 = empty handle
  std::uint32_t depth_ = 0;   ///< the scope's index in the scope stack
  std::uint8_t access_ = 0;   ///< reads_local | writes_local << 1
};

static_assert(std::is_trivially_copyable_v<ImplicitOp> &&
                  sizeof(ImplicitOp) <= 16,
              "an implicit op is a small handle, not a heap record");

/// The counters of one dynamic scope's outstanding implicit operations.
class CofenceScope {
 public:
  explicit CofenceScope(std::uint64_t serial) : serial_(serial) {}

  /// True when every op whose class must not pass \p down has reached local
  /// data completion.
  bool data_complete_for(PassClass down) const;

  /// True when every op has reached local *operation* completion (used by
  /// event_notify's release semantics).
  bool op_complete_all() const { return op_pending_ == 0; }

  /// Ops short of local operation completion.
  std::size_t outstanding() const { return op_pending_; }

 private:
  friend class CofenceTracker;
  friend class ImplicitOp;

  std::uint64_t serial_;
  /// Ops short of local data completion, indexed by access class.
  std::array<std::size_t, 4> data_pending_{};
  std::size_t op_pending_ = 0;
};

/// Stack of scopes; the bottom scope is the image's main program, further
/// scopes are pushed around shipped-function executions.
class CofenceTracker {
 public:
  CofenceTracker() { stack_.emplace_back(++pushes_); }

  CofenceScope& current() { return stack_.back(); }

  /// Count a new implicit op in the current scope.
  ImplicitOp start(bool reads_local, bool writes_local);

  void push_scope() { stack_.emplace_back(++pushes_); }
  void pop_scope();

  std::size_t depth() const { return stack_.size(); }

 private:
  friend class ImplicitOp;

  /// \p op's scope if it is still on the stack, else null.
  CofenceScope* live_scope(const ImplicitOp& op);

  std::vector<CofenceScope> stack_;
  std::uint64_t pushes_ = 0;  ///< scopes ever pushed, the root included
};

}  // namespace caf2::rt
