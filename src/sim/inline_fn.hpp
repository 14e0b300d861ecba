#pragma once

/// \file inline_fn.hpp
/// Move-only callable with small-buffer storage, used for the engine's
/// pooled Call events.
///
/// The engine dispatches tens of millions of callbacks per benchmark run;
/// a fresh std::function per event heap-allocates as soon as the closure
/// outgrows ~16 bytes (every network delivery closure does: it carries a
/// Message). InlineFn stores closures up to kInlineBytes in place — sized so
/// a whole message "flight" (payload vector + completion callbacks + timing)
/// fits — and only falls back to the heap beyond that. Instances live in the
/// engine's stable-address slot pool and run in place there; they are
/// relocated (move + destroy) only on their way into a slot.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace caf2::sim {

class InlineFn {
 public:
  /// Inline capacity. 200 bytes holds a staged network flight (Message with
  /// its payload vector, two std::function completion callbacks, timing and
  /// reserved sequence numbers) without touching the heap.
  static constexpr std::size_t kInlineBytes = 200;

  InlineFn() = default;

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  InlineFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* self) { (*static_cast<Fn*>(self))(); };
      manage_ = [](Op op, void* self, void* dst) {
        Fn* fn = static_cast<Fn*>(self);
        if (op == Op::kRelocate) {
          ::new (dst) Fn(std::move(*fn));
        }
        fn->~Fn();
      };
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      invoke_ = [](void* self) { (**static_cast<Fn**>(self))(); };
      manage_ = [](Op op, void* self, void* dst) {
        Fn** slot = static_cast<Fn**>(self);
        if (op == Op::kRelocate) {
          ::new (dst) Fn*(*slot);
        } else {
          delete *slot;
        }
      };
    }
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void operator()() { invoke_(storage_); }

  explicit operator bool() const { return invoke_ != nullptr; }

  void reset() {
    if (invoke_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

 private:
  enum class Op { kRelocate, kDestroy };
  using InvokeFn = void (*)(void*);
  using ManageFn = void (*)(Op, void* self, void* dst);

  void move_from(InlineFn& other) noexcept {
    if (other.invoke_ != nullptr) {
      other.manage_(Op::kRelocate, other.storage_, storage_);
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace caf2::sim
