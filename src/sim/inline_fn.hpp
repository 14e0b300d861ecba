#pragma once

/// \file inline_fn.hpp
/// Move-only callables with small-buffer storage.
///
/// The engine dispatches tens of millions of callbacks per benchmark run;
/// a fresh std::function per event heap-allocates as soon as the closure
/// outgrows ~16 bytes. InlineFunction<R(Args...), Bytes> stores closures up
/// to Bytes in place and only falls back to the heap beyond that. The
/// engine's Call slots are InlineFn: 64 inline bytes, the largest closure a
/// hot path posts (a network delivery: the Network pointer plus the whole
/// Message). State that outlives one event — a send's staging reader and
/// completion callbacks — lives in typed records the closures index
/// (net/network.hpp), so no hot closure carries it. Post sites that must
/// stay allocation-free check InlineFn::stores_inline<> with a
/// static_assert. Slots live in stable-address pools and run in place
/// there; an InlineFunction is relocated (move + destroy) only on its way
/// into one.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace caf2::sim {

template <class Signature, std::size_t Bytes>
class InlineFunction;

template <class R, class... Args, std::size_t Bytes>
class InlineFunction<R(Args...), Bytes> {
 public:
  /// Inline capacity in bytes.
  static constexpr std::size_t kInlineBytes = Bytes;

  /// True when a closure of type \p F is stored in place (no allocation).
  template <class F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() = default;

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (stores_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  /// One table per stored type, so an instance spends a single pointer on
  /// its type erasure.
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    void (*relocate)(void* self, void* dst) noexcept;  ///< move, then destroy
    void (*destroy)(void* self) noexcept;
  };

  template <class Fn>
  static constexpr Ops kInlineOps{
      [](void* self, Args&&... args) -> R {
        return (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
      },
      [](void* self, void* dst) noexcept {
        Fn* fn = static_cast<Fn*>(self);
        ::new (dst) Fn(std::move(*fn));
        fn->~Fn();
      },
      [](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); }};

  template <class Fn>
  static constexpr Ops kHeapOps{
      [](void* self, Args&&... args) -> R {
        return (**static_cast<Fn**>(self))(std::forward<Args>(args)...);
      },
      [](void* self, void* dst) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(self));
      },
      [](void* self) noexcept { delete *static_cast<Fn**>(self); }};

  void move_from(InlineFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(void*) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// An engine Call slot's closure.
using InlineFn = InlineFunction<void(), 64>;

}  // namespace caf2::sim
