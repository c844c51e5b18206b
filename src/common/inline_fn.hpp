// Small-buffer, move-only callable — the simulator hot path's replacement
// for std::function.
//
// Every scheduled event and every in-flight message carries a callback.
// std::function heap-allocates once per capturing closure, which at paper
// scale (millions of events per run) dominates the engine's cost.  InlineFn
// stores callables up to kInlineSize bytes directly in the object (and thus
// directly in the EventQueue slab), falling back to one heap allocation only
// for oversized captures.  Hot-path closures are written to fit: capture a
// shared_ptr to per-operation state rather than the state itself.
//
// Move-only by design: closures own their captures exactly once, and the
// event queue never needs to copy them.
//
// The buffer is 8-byte aligned (kAlign), not alignof(std::max_align_t):
// every hot-path capture is pointers, ids and integers, and a 16-byte
// alignment would round each slab slot holding an InlineFn up to the next
// 16-byte quantum.  A callable that needs more alignment takes the heap
// path like an oversized one; none in src/ does.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/assert.hpp"

namespace soc {

template <typename Sig, std::size_t InlineSize = 48>
class InlineFn;

template <typename R, typename... Args, std::size_t InlineSize>
class InlineFn<R(Args...), InlineSize> {
 public:
  static constexpr std::size_t kInlineSize = InlineSize;
  static constexpr std::size_t kAlign = alignof(void*);

  /// True when a callable of type D is stored in the buffer itself
  /// (message_bus.cpp static_asserts it for its delivery record).
  template <typename D>
  static constexpr bool kStoresInline =
      sizeof(D) <= kInlineSize && alignof(D) <= kAlign &&
      std::is_nothrow_move_constructible_v<D>;

  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFn> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (kStoresInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& o) noexcept {
    if (o.ops_ != nullptr) {
      o.ops_->relocate(buf_, o.buf_);
      ops_ = std::exchange(o.ops_, nullptr);
    }
  }

  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(buf_, o.buf_);
        ops_ = std::exchange(o.ops_, nullptr);
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    SOC_DCHECK(ops_ != nullptr);
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    /// Move-construct into raw dst, then destroy src (slab relocation).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static R invoke_inline(void* self, Args&&... args) {
    return (*static_cast<D*>(self))(std::forward<Args>(args)...);
  }
  template <typename D>
  static void relocate_inline(void* dst, void* src) noexcept {
    ::new (dst) D(std::move(*static_cast<D*>(src)));
    static_cast<D*>(src)->~D();
  }
  template <typename D>
  static void destroy_inline(void* self) noexcept {
    static_cast<D*>(self)->~D();
  }

  template <typename D>
  static R invoke_heap(void* self, Args&&... args) {
    return (**static_cast<D**>(self))(std::forward<Args>(args)...);
  }
  template <typename D>
  static void relocate_heap(void* dst, void* src) noexcept {
    ::new (dst) D*(*static_cast<D**>(src));
  }
  template <typename D>
  static void destroy_heap(void* self) noexcept {
    delete *static_cast<D**>(self);
  }

  template <typename D>
  static constexpr Ops kInlineOps{&invoke_inline<D>, &relocate_inline<D>,
                                  &destroy_inline<D>};
  template <typename D>
  static constexpr Ops kHeapOps{&invoke_heap<D>, &relocate_heap<D>,
                                &destroy_heap<D>};

  alignas(kAlign) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace soc
