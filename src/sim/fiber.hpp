#pragma once

/// \file fiber.hpp
/// Stackful fibers: how the simulation engine runs its participants
/// (DESIGN.md §4.8).
///
/// A Fiber is a user-level execution context with its own stack, multiplexed
/// cooperatively on whichever OS thread resumes it. The engine gives every
/// simulated participant a fiber instead of an OS thread, so handing the
/// scheduler token from one participant to the next is a userspace register
/// swap (~tens of nanoseconds) rather than a mutex + condition-variable
/// round trip through the kernel (~microseconds) — the difference between
/// simulating 64 images and simulating the paper's 1024.
///
/// Mechanics:
///  - the context switch saves exactly the callee-saved register state the
///    SysV ABI requires (hand-rolled assembly on x86-64; ucontext elsewhere,
///    correct but slower since swapcontext makes a sigprocmask syscall);
///  - stacks are anonymous mmap regions with a PROT_NONE guard page at the
///    low end, so runaway recursion faults deterministically instead of
///    silently corrupting a neighbouring allocation, and they are recycled
///    through a process-wide pool because benchmark sweeps construct
///    thousands of engines back to back; a released stack keeps only its
///    top page resident, so a fiber on a recycled stack writes its initial
///    frame without a page fault;
///  - the sanitizers are kept informed of every stack switch: AddressSanitizer
///    via __sanitizer_{start,finish}_switch_fiber, ThreadSanitizer via
///    __tsan_{create,switch_to,destroy}_fiber (each fiber has its own TSan
///    context, and a switch is a happens-before edge), so sanitizer builds
///    run the same fibers as release builds.
///
/// Direct hand-off: switch_to() moves from the running fiber straight onto
/// another one, which inherits the running fiber's resumer — so a chain of
/// hand-offs A -> B -> C costs one switch each, and whichever fiber of the
/// chain suspends (or finishes) returns to the resumer that started it.
///
/// Discipline: resume() may only be called from outside the fiber (the
/// scheduler), suspend() and switch_to() only from inside a fiber, and all
/// of them always on the same OS thread for a given fiber. The entry
/// function must not let exceptions escape and must return normally; a
/// fiber destroyed while suspended mid-body releases its stack without
/// running pending destructors (the engine only does this after unwinding
/// every participant).

#include <cstddef>
#include <functional>

namespace caf2::sim {

class Fiber {
 public:
  /// Create a suspended fiber that will run \p entry when first resumed.
  /// \p stack_bytes is the usable stack size (rounded up to whole pages; a
  /// guard page is added on top of it).
  Fiber(std::size_t stack_bytes, std::function<void()> entry);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the caller onto the fiber's stack. Returns when the fiber
  /// suspends or its entry function returns. Must not be called on a
  /// finished fiber.
  void resume();

  /// Switch from the currently running fiber back to its resumer. Must be
  /// called from inside a fiber.
  static void suspend();

  /// Switch from the currently running fiber directly onto \p next (fresh
  /// or suspended, not finished, not the caller). \p next takes over the
  /// caller's resumer: when it suspends or finishes, control returns to
  /// whoever resumed the caller. Returns when the caller is resumed or
  /// switched to again. Must be called from inside a fiber.
  static void switch_to(Fiber& next);

  /// The fiber currently executing on this thread (nullptr outside fibers).
  static Fiber* current();

  /// True once the fiber has been resumed at least once.
  bool started() const { return started_; }

  /// True once the entry function has returned; the fiber can no longer be
  /// resumed.
  bool finished() const { return finished_; }

  /// Trim the process-wide stack pool down to at most \p keep cached stacks
  /// (0 releases everything). Mainly for tests that measure memory.
  static void trim_stack_pool(std::size_t keep = 0);

  /// A pooled stack mapping (public only for the internal stack pool).
  struct Stack {
    void* base = nullptr;        ///< mmap base (guard page lives here)
    std::size_t total = 0;       ///< mapped bytes including the guard page
    std::size_t guard = 0;       ///< guard size at the low end
    void* limit() const;         ///< lowest usable address
    void* top() const;           ///< one past the highest usable address
    std::size_t usable() const { return total - guard; }
  };

 private:
  friend void fiber_entry_thunk(void* raw);

  // Never returns (the final context switch leaves this frame forever), but
  // deliberately NOT [[noreturn]]: ASan prefixes calls to noreturn functions
  // with __asan_handle_no_return, which would run on the fresh fiber stack
  // before __sanitizer_finish_switch_fiber and crash the sanitizer runtime.
  void run_entry();

  /// Complete the sanitizer side of a switch onto this fiber; runs on this
  /// fiber's stack right after every switch into it.
  void finish_switch_in();

  std::function<void()> entry_;
  Stack stack_{};
  void* fiber_sp_ = nullptr;  ///< suspended fiber's saved context
  void* resumer_sp_ = nullptr;  ///< resumer's saved context while fiber runs
  bool started_ = false;
  bool finished_ = false;

  // AddressSanitizer bookkeeping (unused members cost nothing elsewhere).
  // The resumer's stack bounds are learned when resume() switches in, or
  // handed over by switch_to() (handed_off_), whose switch-in reports the
  // previous fiber's stack instead.
  void* asan_fiber_fake_stack_ = nullptr;
  const void* asan_resumer_stack_bottom_ = nullptr;
  std::size_t asan_resumer_stack_size_ = 0;
  bool handed_off_ = false;

  // ThreadSanitizer contexts: this fiber's own, and its resumer's.
  void* tsan_fiber_ = nullptr;
  void* tsan_resumer_ = nullptr;
};

}  // namespace caf2::sim
