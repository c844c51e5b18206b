// Slab<T>: a growable arena of reusable slots with a free-slot stack.
//
// The simulator keeps short-lived per-operation state alive in bulk —
// pending events, every in-flight message among them — in a vector of
// slots with a free list and a high-water-mark accessor for the stress
// tests.  Slab is that pattern.
//
// The free list is a side stack of indices rather than a link threaded
// through the slots: the same LIFO reuse order as an intrusive list, but
// the slot array stays exactly sizeof(T) per entry (no link field padding
// the hottest arena — an EventQueue slot is 8-byte aligned and 88 bytes,
// so 4 extra bytes would cost a full 8-byte quantum per pending event).
//
// Semantics:
//   * alloc() pops the free stack or appends; a *fresh* slot's value is
//     default-constructed, a *recycled* slot keeps whatever the previous
//     user left behind (callers overwrite what they need — this is what
//     lets pooled vectors keep their capacity across reuses).
//   * release() pushes the slot back; the value is NOT destroyed, so any
//     owned resources persist until reuse unless the caller resets them
//     (EventQueue resets callbacks eagerly to free captures).
//   * Slot indices are dense uint32s, stable for the slot's lifetime.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/assert.hpp"

namespace soc {

template <typename T>
class Slab {
 public:
  static constexpr std::uint32_t kNullSlot = 0xffffffffu;

  /// Allocate a slot index.  O(1); grows the arena only when the free
  /// stack is empty, so the arena size tracks *peak* concurrent usage.
  std::uint32_t alloc() {
    ++live_;
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    SOC_CHECK_MSG(slots_.size() < kNullSlot, "slab full");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Return a slot to the free stack.  The value stays constructed.
  void release(std::uint32_t idx) {
    SOC_DCHECK(idx < slots_.size());
    SOC_DCHECK(live_ > 0);
    free_.push_back(idx);
    --live_;
  }

  T& operator[](std::uint32_t idx) {
    SOC_DCHECK(idx < slots_.size());
    return slots_[idx];
  }
  const T& operator[](std::uint32_t idx) const {
    SOC_DCHECK(idx < slots_.size());
    return slots_[idx];
  }

  /// High-water mark: slots ever allocated (live + free-stacked).
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }
  /// Currently allocated (not released) slots.
  [[nodiscard]] std::size_t live() const { return live_; }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace soc
