#include "src/sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace soc::sim {

namespace {
constexpr std::size_t kArity = 4;
}

void EventQueue::free_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.fn.reset();  // release captures immediately, not at slot reuse
  ++s.gen;  // odd (live) -> even (free); stale handles and entries mismatch
  slots_.release(idx);
}

EventHandle EventQueue::push(SimTime at, EventFn&& fn) {
  SOC_CHECK_MSG(static_cast<bool>(fn), "null event callback");
  const std::uint32_t idx = slots_.alloc();
  Slot& s = slots_[idx];
  const std::uint32_t gen = ++s.gen;  // even (free / fresh) -> odd (live)
  s.fn = std::move(fn);
  heap_.emplace_back();  // room for the sifted-in entry
  sift_up(heap_.size() - 1, Entry{at, next_seq_++, idx, gen});
  return EventHandle{idx, gen};
}

bool EventQueue::cancel(EventHandle h) {
  if (!h.valid() || h.slot >= slots_.slots()) return false;
  if (slots_[h.slot].gen != h.gen) return false;  // executed/cancelled/reused
  free_slot(h.slot);  // its heap entry is now a tombstone
  settle();
  return true;
}

EventQueue::Popped EventQueue::pop() {
  SOC_CHECK_MSG(!heap_.empty(), "pop() on empty event queue");
  const std::uint32_t idx = heap_[0].slot;  // settle() keeps the top live
  Popped out{heap_[0].at, std::move(slots_[idx].fn)};
  free_slot(idx);
  pop_top();
  settle();
  return out;
}

void EventQueue::pop_top() {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void EventQueue::settle() {
  while (!heap_.empty() && !live(heap_[0])) pop_top();
  if (tombstones() <= std::max(kMinTombstones, slots_.live() / 2)) return;
  // Rebuild without tombstones: drop them, then heapify bottom-up.  Any
  // valid heap over the same unique (at, seq) keys pops in the same order.
  std::erase_if(heap_, [this](const Entry& e) { return !live(e); });
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
    sift_down(i, heap_[i]);
  }
}

void EventQueue::sift_up(std::size_t pos, Entry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!e.before(heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

void EventQueue::sift_down(std::size_t pos, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(e)) break;
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = e;
}

bool EventQueue::verify_integrity() const {
  const std::size_t live_count = slots_.live();
  if (heap_.size() < live_count) return false;
  if (tombstones() > std::max(kMinTombstones, live_count / 2)) return false;
  std::vector<bool> seen(slots_.slots(), false);
  std::size_t referenced = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry& e = heap_[i];
    if (e.slot >= slots_.slots()) return false;
    if ((e.gen & 1u) == 0) return false;  // entries carry live generations
    if (i > 0 && e.before(heap_[(i - 1) / kArity])) return false;
    if (!live(e)) {
      if (i == 0) return false;  // a tombstone on top hides next_time()
      continue;
    }
    if (seen[e.slot]) return false;  // one live slot referenced twice
    seen[e.slot] = true;
    ++referenced;
  }
  // Every live slot is referenced (none leaked) and the slab's live count
  // matches the odd-generation slots (none double-freed).
  std::size_t odd = 0;
  for (std::uint32_t i = 0; i < slots_.slots(); ++i) odd += slots_[i].gen & 1u;
  return referenced == live_count && odd == live_count;
}

}  // namespace soc::sim
