// Deterministic pending-event set for the discrete-event simulator.
//
// Events at the same timestamp are executed in schedule order (a per-queue
// monotone sequence number breaks ties), so a simulation run is a pure
// function of its seed — the property all reproduction experiments rely on.
//
// Layout: a 4-ary min-heap of 24-byte entries over a shared Slab<T> arena.
// Heap entries carry the full sort key (time, seq) plus the slot and the
// slot generation they were pushed with, so sifting touches only the
// contiguous heap array; the slab slot holds the callback inline via
// InlineFn plus a generation counter.  Scheduling an event costs zero heap
// allocations for captures up to 72 bytes: the largest hot-path closure is
// the message bus's delivery record (bus pointer, destination, type, fate
// and a 56-byte DeliverFn), so each in-flight message is one 88-byte slot.
// Handles are generation-checked, so a stale handle to a recycled slot is
// rejected.  Generations are 32-bit: a handle or tombstone would alias only
// after 2^31 reuses of its slot, far beyond any run's event count.
//
// cancel() frees the slot and its captures at once but leaves the heap
// entry behind as a tombstone: its generation no longer matches the slot's.
// Tombstones are skimmed off the top after every pop and cancel, so the top
// entry is always live and empty()/next_time() are exact.  When tombstones
// outnumber max(kMinTombstones, live / 2) the heap is rebuilt without them:
// it never holds more than live + max(kMinTombstones, live / 2) entries,
// and each O(n) rebuild is paid for by the cancels that made its
// tombstones.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/inline_fn.hpp"
#include "src/common/slab.hpp"
#include "src/common/types.hpp"

namespace soc::sim {

using EventFn = InlineFn<void(), 72>;

/// Handle for cancelling a scheduled event: slab slot plus the generation
/// the slot had when the event was scheduled.
struct EventHandle {
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

  std::uint32_t slot = kInvalidSlot;
  std::uint32_t gen = 0;

  [[nodiscard]] bool valid() const { return slot != kInvalidSlot; }
};

class EventQueue {
 public:
  /// Tombstone count at or below which the heap is never rebuilt.
  static constexpr std::size_t kMinTombstones = 64;

  EventHandle push(SimTime at, EventFn&& fn);

  /// Cancel a previously scheduled event, releasing its slab slot (and
  /// captures) immediately.  Returns false if the event was unknown
  /// (already executed or already cancelled).
  bool cancel(EventHandle h);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// Live (scheduled, not yet executed or cancelled) events, never
  /// tombstones: Simulator::schedule_periodic seeds its jitter stream from
  /// this count, so a cancel must change it at once.
  [[nodiscard]] std::size_t size() const { return slots_.live(); }

  /// Earliest live event time, or kSimTimeNever when empty.
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? kSimTimeNever : heap_[0].at;
  }

  /// Pop and return the earliest live event.  Requires !empty().
  struct Popped {
    SimTime at;
    EventFn fn;
  };
  Popped pop();

  /// Slab high-water mark: slots ever allocated (live + free-listed).
  /// Bounded by the *peak* number of simultaneously pending events, not the
  /// total scheduled — the stress tests assert on this.
  [[nodiscard]] std::size_t slab_slots() const { return slots_.slots(); }

  /// Bytes claimed by the backing storage (heap capacity + slab
  /// high-water slots); attribution-profiler hook.
  [[nodiscard]] std::size_t mem_bytes() const {
    return heap_.capacity() * sizeof(Entry) + slots_.slots() * sizeof(Slot);
  }

  /// Handle-generation / heap sanity oracle (sim_fuzz): the heap order
  /// invariant holds for all parent/child pairs, the top entry is live,
  /// every live (odd-generation) slot is referenced by exactly one entry
  /// carrying its generation and the slab's live count agrees (no leaked,
  /// double-freed or aliased slots), and tombstones (entries - live) stay
  /// within max(kMinTombstones, live / 2).  O(n); read-only.
  [[nodiscard]] bool verify_integrity() const;

 private:
  /// 24-byte heap entry: the full sort key plus the owning slot and its
  /// generation at push time, so sift comparisons stay inside the
  /// contiguous heap array and a cancelled entry is recognisable as a
  /// tombstone without a back-pointer.
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;

    /// Strict heap order: (time, schedule sequence).
    [[nodiscard]] bool before(const Entry& o) const {
      return at != o.at ? at < o.at : seq < o.seq;
    }
  };

  struct Slot {
    std::uint32_t gen = 0;  ///< odd = live, even = free
    EventFn fn;
  };

  [[nodiscard]] bool live(const Entry& e) const {
    return slots_[e.slot].gen == e.gen;
  }
  [[nodiscard]] std::size_t tombstones() const {
    return heap_.size() - slots_.live();
  }
  void free_slot(std::uint32_t idx);
  /// Remove heap_[0], live or not.
  void pop_top();
  /// Skim tombstones off the top, then rebuild the heap without any if
  /// they exceed max(kMinTombstones, live / 2).  Runs after every pop and
  /// cancel.
  void settle();
  void sift_up(std::size_t pos, Entry e);
  void sift_down(std::size_t pos, Entry e);

  std::vector<Entry> heap_;  ///< 4-ary min-heap, live entries + tombstones
  Slab<Slot> slots_;         ///< shared slab arena (free list lives there)
  std::uint64_t next_seq_ = 0;
};

}  // namespace soc::sim
