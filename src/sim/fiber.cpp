#include "sim/fiber.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "support/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#else
#error "caf2 fibers require POSIX (mmap stacks, ucontext or x86-64 swap)"
#endif

// Sanitizer detection (GCC defines __SANITIZE_*, Clang has __has_feature).
#if defined(__SANITIZE_ADDRESS__)
#define CAF2_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CAF2_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CAF2_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define CAF2_TSAN 1
#endif
#endif

#if defined(CAF2_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(CAF2_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

/// The fast context switch is hand-rolled for x86-64 SysV; everything else
/// POSIX falls back to ucontext (correct, but swapcontext pays a sigprocmask
/// syscall per switch).
#if defined(__x86_64__)
#define CAF2_FIBER_ASM_X86_64 1
#else
#include <ucontext.h>
#endif

namespace caf2::sim {
namespace {

thread_local Fiber* tl_current_fiber = nullptr;

std::size_t page_size() {
  static const std::size_t size =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return size;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t page = page_size();
  return ((bytes + page - 1) / page) * page;
}

}  // namespace

void* Fiber::Stack::limit() const {
  return static_cast<char*>(base) + guard;
}

void* Fiber::Stack::top() const { return static_cast<char*>(base) + total; }

namespace {

/// Process-wide recycler of guard-paged fiber stacks. Benchmark sweeps
/// construct thousands of engines back to back (possibly from several sweep
/// worker threads at once); reusing mappings turns per-fiber setup into a
/// freelist pop. A released stack is MADV_DONTNEED'd below its warm top
/// (kWarmPages): cached mappings hold at most kMaxCached warm tops resident
/// (16 MiB with 4 KiB pages), and the next fiber on the stack writes its
/// initial frame without a page fault. Stacks are reused without re-zeroing;
/// a fiber never reads stack it has not written.
class StackPool {
 public:
  static StackPool& instance() {
    static StackPool pool;
    return pool;
  }

  Fiber::Stack acquire(std::size_t usable_bytes) {
    const std::size_t guard = page_size();
    const std::size_t total = round_up_pages(usable_bytes) + guard;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = free_.size(); i-- > 0;) {
        if (free_[i].total == total) {
          Fiber::Stack stack = free_[i];
          free_[i] = free_.back();
          free_.pop_back();
          return stack;
        }
      }
    }
    int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#if defined(MAP_STACK)
    flags |= MAP_STACK;
#endif
#if defined(MAP_NORESERVE)
    flags |= MAP_NORESERVE;
#endif
    void* base =
        mmap(nullptr, total, PROT_READ | PROT_WRITE, flags, -1, 0);
    CAF2_ASSERT(base != MAP_FAILED, "fiber stack mmap failed");
    // Each PROT_NONE guard page splits a VMA, so paper-scale engines (tens
    // of thousands of live fibers) would exhaust vm.max_map_count (default
    // 65530) long before they exhaust memory — and once a process sits at
    // that ceiling, *unrelated* mmaps (malloc arenas) start failing too.
    // Cap the number of guard-paged mappings well below the default ceiling;
    // stacks beyond the cap go guardless, and adjacent anonymous mappings
    // with identical protections coalesce, so the map count stops growing.
    // Overflow detection is lost for those stacks; correctness is not.
    const bool want_guard =
        guards_enabled_.load(std::memory_order_relaxed) &&
        guarded_mapped_.load(std::memory_order_relaxed) < kMaxGuardedStacks;
    if (want_guard) {
      if (mprotect(base, guard, PROT_NONE) == 0) {
        guarded_mapped_.fetch_add(1, std::memory_order_relaxed);
        return Fiber::Stack{base, total, guard};
      }
      guards_enabled_.store(false, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "caf2: fiber stack guard-page mprotect failed (%s); "
                   "continuing with guardless stacks — raise vm.max_map_count "
                   "to restore overflow detection\n",
                   std::strerror(errno));
    }
    return Fiber::Stack{base, total, 0};
  }

  void release(Fiber::Stack stack) {
    // Drop the resident pages below the warm top; keep the mapping cached.
    const std::size_t warm = std::min(stack.usable(), kWarmPages * page_size());
    madvise(stack.limit(), stack.usable() - warm, MADV_DONTNEED);
#if defined(CAF2_ASAN)
    // A finished fiber never returns from its entry frames, so their
    // redzones stay poisoned; the next fiber on this memory (recycled, or
    // remapped after an unmap) must not inherit that stale shadow.
    __asan_unpoison_memory_region(stack.limit(), stack.usable());
#endif
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (free_.size() < kMaxCached) {
        free_.push_back(stack);
        return;
      }
    }
    unmap(stack);
  }

  void trim(std::size_t keep) {
    std::vector<Fiber::Stack> victims;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      while (free_.size() > keep) {
        victims.push_back(free_.back());
        free_.pop_back();
      }
    }
    for (const Fiber::Stack& stack : victims) {
      unmap(stack);
    }
  }

 private:
  void unmap(const Fiber::Stack& stack) {
    if (stack.guard > 0) {
      guarded_mapped_.fetch_sub(1, std::memory_order_relaxed);
    }
    munmap(stack.base, stack.total);
  }

  static constexpr std::size_t kMaxCached = 4096;
  /// Pages at the top of a released stack that stay resident: the initial
  /// frame's page, which every fiber writes at construction.
  static constexpr std::size_t kWarmPages = 1;
  /// Guard-paged mappings cost 2 VMAs each; cap them far enough below the
  /// Linux default vm.max_map_count (65530) that the rest of the process
  /// still has headroom.
  static constexpr std::size_t kMaxGuardedStacks = 8192;
  std::mutex mutex_;
  std::vector<Fiber::Stack> free_;
  /// Cleared the first time a guard-page mprotect fails (vm.max_map_count
  /// pressure); stacks allocated afterwards have no guard page.
  std::atomic<bool> guards_enabled_{true};
  /// Live guard-paged mappings (freelist included — cached stacks keep
  /// their VMAs).
  std::atomic<std::size_t> guarded_mapped_{0};
};

}  // namespace

void Fiber::trim_stack_pool(std::size_t keep) {
  StackPool::instance().trim(keep);
}

/// --- context switch ---------------------------------------------------------

void fiber_entry_thunk(void* raw);

#if defined(CAF2_FIBER_ASM_X86_64)

// caf2_ctx_swap(void** save_sp, void* load_sp, void* arg):
// save the SysV callee-saved state (rbp rbx r12-r15, x87 control word, mxcsr)
// on the current stack, store the resulting stack pointer through save_sp,
// switch to load_sp, restore, and return `arg` (also left in rax for the
// trampoline of a fresh fiber).
asm(R"(
        .text
        .align  16
        .globl  caf2_ctx_swap
        .hidden caf2_ctx_swap
        .type   caf2_ctx_swap, @function
caf2_ctx_swap:
        pushq   %rbp
        pushq   %rbx
        pushq   %r12
        pushq   %r13
        pushq   %r14
        pushq   %r15
        subq    $8, %rsp
        fnstcw  (%rsp)
        stmxcsr 4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        fldcw   (%rsp)
        ldmxcsr 4(%rsp)
        addq    $8, %rsp
        popq    %r15
        popq    %r14
        popq    %r13
        popq    %r12
        popq    %rbx
        popq    %rbp
        movq    %rdx, %rax
        retq
        .size   caf2_ctx_swap, .-caf2_ctx_swap

        .align  16
        .globl  caf2_fiber_tramp
        .hidden caf2_fiber_tramp
        .type   caf2_fiber_tramp, @function
caf2_fiber_tramp:
        movq    %rax, %rdi
        callq   caf2_fiber_entry_cshim@PLT
        ud2
        .size   caf2_fiber_tramp, .-caf2_fiber_tramp
)");

extern "C" void* caf2_ctx_swap(void** save_sp, void* load_sp, void* arg);
extern "C" void caf2_fiber_tramp();

extern "C" void caf2_fiber_entry_cshim(void* raw) {
  caf2::sim::fiber_entry_thunk(raw);
}

namespace {

/// Lay out a fresh stack so that caf2_ctx_swap's restore sequence "returns"
/// into the trampoline: from the saved stack pointer upward — x87 control
/// word + mxcsr (8 bytes), six callee-saved registers, return address. The
/// saved pointer sits 64 bytes below the 16-aligned top, giving the
/// trampoline a 16-aligned rsp as the SysV ABI requires before a call.
void* make_initial_frame(void* stack_top) {
  std::uintptr_t top = reinterpret_cast<std::uintptr_t>(stack_top);
  top &= ~static_cast<std::uintptr_t>(15);
  void** frame = reinterpret_cast<void**>(top - 64);
  std::memset(frame, 0, 64);
  std::uint16_t fcw = 0;
  std::uint32_t mxcsr = 0;
  asm volatile("fnstcw %0" : "=m"(fcw));
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  std::memcpy(reinterpret_cast<char*>(frame), &fcw, sizeof(fcw));
  std::memcpy(reinterpret_cast<char*>(frame) + 4, &mxcsr, sizeof(mxcsr));
  frame[7] = reinterpret_cast<void*>(&caf2_fiber_tramp);
  return frame;
}

}  // namespace

#else  // ucontext fallback

namespace {

// fiber_sp_ holds the fiber's own heap-allocated ucontext_t; resumer_sp_
// points at the ucontext_t in the resuming resume() frame, so switch_to()
// hands it over by pointer (a ucontext_t must not be copied: it may point
// into itself).

void ucontext_tramp(unsigned hi, unsigned lo) {
  const std::uintptr_t raw =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  caf2::sim::fiber_entry_thunk(reinterpret_cast<void*>(raw));
}

}  // namespace

#endif

/// --- ASan fiber annotations -------------------------------------------------

#if defined(CAF2_ASAN)
#define CAF2_ASAN_START_SWITCH(save, bottom, size) \
  __sanitizer_start_switch_fiber((save), (bottom), (size))
#define CAF2_ASAN_FINISH_SWITCH(fake, bottom, size) \
  __sanitizer_finish_switch_fiber((fake), (bottom), (size))
#else
#define CAF2_ASAN_START_SWITCH(save, bottom, size) ((void)0)
#define CAF2_ASAN_FINISH_SWITCH(fake, bottom, size) ((void)0)
#endif

/// --- TSan fiber annotations -------------------------------------------------
///
/// Each Fiber owns a TSan fiber context; every switch announces its target
/// right before the register swap. The default (synchronizing) switch orders
/// everything before it ahead of everything after it, which is exactly the
/// happens-before edge the cooperative token hand-off provides, while
/// accesses from different OS threads (shards) are still checked.

#if defined(CAF2_TSAN)
#define CAF2_TSAN_SWITCH_TO(fiber) __tsan_switch_to_fiber((fiber), 0)
#else
#define CAF2_TSAN_SWITCH_TO(fiber) ((void)0)
#endif

/// --- Fiber ------------------------------------------------------------------

Fiber::Fiber(std::size_t stack_bytes, std::function<void()> entry)
    : entry_(std::move(entry)) {
  CAF2_REQUIRE(static_cast<bool>(entry_), "Fiber needs an entry function");
  stack_ = StackPool::instance().acquire(stack_bytes);
#if defined(CAF2_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
#if defined(CAF2_FIBER_ASM_X86_64)
  fiber_sp_ = make_initial_frame(stack_.top());
#else
  auto* context = new ucontext_t();
  CAF2_ASSERT(getcontext(context) == 0, "getcontext failed");
  context->uc_stack.ss_sp = stack_.limit();
  context->uc_stack.ss_size = stack_.usable();
  context->uc_link = nullptr;
  const std::uintptr_t raw = reinterpret_cast<std::uintptr_t>(this);
  makecontext(context, reinterpret_cast<void (*)()>(ucontext_tramp), 2,
              static_cast<unsigned>(raw >> 32),
              static_cast<unsigned>(raw & 0xFFFFFFFFu));
  fiber_sp_ = context;
#endif
}

Fiber::~Fiber() {
#if defined(CAF2_TSAN)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#if !defined(CAF2_FIBER_ASM_X86_64)
  delete static_cast<ucontext_t*>(fiber_sp_);
#endif
  StackPool::instance().release(stack_);
}

Fiber* Fiber::current() { return tl_current_fiber; }

void Fiber::resume() {
  CAF2_ASSERT(!finished_, "resume() on a finished fiber");
  CAF2_ASSERT(tl_current_fiber != this, "resume() from inside the fiber");
  Fiber* previous = tl_current_fiber;
  tl_current_fiber = this;
  started_ = true;
  handed_off_ = false;
  // The resumer's fake stack lives in this frame: the fiber that eventually
  // switches back here may be another one this fiber handed off to.
  [[maybe_unused]] void* resumer_fake_stack = nullptr;
  CAF2_ASAN_START_SWITCH(&resumer_fake_stack, stack_.limit(), stack_.usable());
#if defined(CAF2_TSAN)
  tsan_resumer_ = __tsan_get_current_fiber();
#endif
  CAF2_TSAN_SWITCH_TO(tsan_fiber_);
#if defined(CAF2_FIBER_ASM_X86_64)
  caf2_ctx_swap(&resumer_sp_, fiber_sp_, this);
#else
  ucontext_t resumer;
  resumer_sp_ = &resumer;
  CAF2_ASSERT(swapcontext(&resumer, static_cast<ucontext_t*>(fiber_sp_)) == 0,
              "swapcontext into fiber failed");
#endif
  CAF2_ASAN_FINISH_SWITCH(resumer_fake_stack, nullptr, nullptr);
  tl_current_fiber = previous;
}

void Fiber::suspend() {
  Fiber* self = tl_current_fiber;
  CAF2_ASSERT(self != nullptr, "suspend() outside any fiber");
  CAF2_ASAN_START_SWITCH(&self->asan_fiber_fake_stack_,
                         self->asan_resumer_stack_bottom_,
                         self->asan_resumer_stack_size_);
  CAF2_TSAN_SWITCH_TO(self->tsan_resumer_);
#if defined(CAF2_FIBER_ASM_X86_64)
  caf2_ctx_swap(&self->fiber_sp_, self->resumer_sp_, nullptr);
#else
  CAF2_ASSERT(swapcontext(static_cast<ucontext_t*>(self->fiber_sp_),
                          static_cast<ucontext_t*>(self->resumer_sp_)) == 0,
              "swapcontext out of fiber failed");
#endif
  // Back on the fiber after a later resume() or switch_to().
  self->finish_switch_in();
}

void Fiber::switch_to(Fiber& next) {
  Fiber* self = tl_current_fiber;
  CAF2_ASSERT(self != nullptr, "switch_to() outside any fiber");
  CAF2_ASSERT(self != &next && !next.finished_,
              "switch_to() needs another, unfinished fiber");
  next.resumer_sp_ = self->resumer_sp_;
  next.asan_resumer_stack_bottom_ = self->asan_resumer_stack_bottom_;
  next.asan_resumer_stack_size_ = self->asan_resumer_stack_size_;
  next.tsan_resumer_ = self->tsan_resumer_;
  next.handed_off_ = true;
  next.started_ = true;
  tl_current_fiber = &next;
  CAF2_ASAN_START_SWITCH(&self->asan_fiber_fake_stack_, next.stack_.limit(),
                         next.stack_.usable());
  CAF2_TSAN_SWITCH_TO(next.tsan_fiber_);
#if defined(CAF2_FIBER_ASM_X86_64)
  caf2_ctx_swap(&self->fiber_sp_, next.fiber_sp_, &next);
#else
  CAF2_ASSERT(swapcontext(static_cast<ucontext_t*>(self->fiber_sp_),
                          static_cast<ucontext_t*>(next.fiber_sp_)) == 0,
              "swapcontext between fibers failed");
#endif
  self->finish_switch_in();
}

void Fiber::finish_switch_in() {
#if defined(CAF2_ASAN)
  // Entered by resume(): the stack we came from is the resumer's, record it
  // for the switch back. Entered by switch_to(): it is the previous fiber's,
  // and the resumer's bounds were handed over already.
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(asan_fiber_fake_stack_, &from_bottom,
                                  &from_size);
  if (!handed_off_) {
    asan_resumer_stack_bottom_ = from_bottom;
    asan_resumer_stack_size_ = from_size;
  }
#endif
}

namespace {

/// abort() via a volatile pointer so the compiler cannot prove any caller
/// noreturn. If run_entry() were provably noreturn, ASan would prefix the
/// call in fiber_entry_thunk with __asan_handle_no_return — which unpoisons
/// what it believes is the current stack; executed on a fresh fiber stack
/// before __sanitizer_finish_switch_fiber has run, that check-fails inside
/// the sanitizer runtime.
[[gnu::noinline]] void fiber_fatal_abort() {
  void (*volatile indirect_abort)() = std::abort;
  indirect_abort();
}

}  // namespace

void fiber_entry_thunk(void* raw) {
  static_cast<Fiber*>(raw)->run_entry();
}

void Fiber::run_entry() {
  // Complete the switch that carried us here (records the resumer's stack
  // so suspend() can announce switches back to it).
  finish_switch_in();
  try {
    entry_();
  } catch (...) {
    // The entry contract forbids escaping exceptions: there is no frame
    // below us to unwind into.
    std::fprintf(stderr, "caf2::sim::Fiber: exception escaped fiber entry\n");
    fiber_fatal_abort();
  }
  entry_ = nullptr;  // run capture destructors while still on this stack
  finished_ = true;
  CAF2_ASAN_START_SWITCH(nullptr, asan_resumer_stack_bottom_,
                         asan_resumer_stack_size_);
  CAF2_TSAN_SWITCH_TO(tsan_resumer_);
#if defined(CAF2_FIBER_ASM_X86_64)
  void* dummy = nullptr;
  caf2_ctx_swap(&dummy, resumer_sp_, nullptr);
#else
  swapcontext(static_cast<ucontext_t*>(fiber_sp_),
              static_cast<ucontext_t*>(resumer_sp_));
#endif
  fiber_fatal_abort();  // a finished fiber must never be resumed
}

}  // namespace caf2::sim
