// Availability records — the state messages nodes publish into the CAN
// space — and the per-node record cache γ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/can/geometry.hpp"
#include "src/common/resource_vector.hpp"
#include "src/common/types.hpp"

namespace soc::index {

/// One advertised availability vector.  `location` is the CAN point the
/// record was filed under (normalized availability, plus the virtual
/// coordinate in the VD variant), kept with the record so zone changes can
/// re-home it without re-deriving the mapping.
struct Record {
  NodeId provider;
  ResourceVector availability;
  can::Point location;
  SimTime published_at = 0;
  SimTime expires_at = 0;

  [[nodiscard]] bool expired(SimTime now) const { return now >= expires_at; }
  [[nodiscard]] bool qualifies(const ResourceVector& demand) const {
    return availability.dominates(demand);
  }
};

/// The cache γ a duty node keeps: the newest record per provider, with TTL
/// expiry (the paper uses a 600 s record age and 400 s update cycle).
///
/// Storage is a sorted key array indexing a record slab: `keys_` holds the
/// provider ids in ascending order, `slots_[i]` names the slab slot of
/// `keys_[i]`'s record, and the ~170-byte Records themselves live in
/// `slab_` and never move once written (erased slots go to a free list).
/// A first-insert/erase therefore shifts 8 bytes per entry instead of a
/// whole Record — the difference between ~9.5 µs and ~6.5 µs per op on a
/// 2048-entry store under a skewed (hot-duty-node) workload.  The property
/// the query pipeline relies on is unchanged: every result list
/// (`qualified`, `all_live`, the extract_* moves) comes out in ascending
/// provider order by construction, so candidate order is deterministic
/// instead of hash-iteration order.
class RecordStore {
 public:
  /// Insert or refresh the provider's record.
  void put(const Record& r);

  /// Remove a provider's record (e.g. once its resources were claimed).
  bool erase(NodeId provider);

  /// Non-expired record count.
  [[nodiscard]] std::size_t live_count(SimTime now) const;
  [[nodiscard]] bool has_live_records(SimTime now) const;

  /// All non-expired records that componentwise dominate the demand, in
  /// ascending provider order.
  [[nodiscard]] std::vector<Record> qualified(const ResourceVector& demand,
                                              SimTime now) const;

  /// Allocation-free variant: fill a caller scratch buffer (cleared first)
  /// — the per-harvest path of the query engines reuses one buffer.
  void qualified_into(const ResourceVector& demand, SimTime now,
                      std::vector<Record>& out) const;

  /// Count of non-expired dominating records, without copying any.
  [[nodiscard]] std::size_t qualified_count(const ResourceVector& demand,
                                            SimTime now) const;

  /// All non-expired records (for the full range query), in
  /// ascending provider order.
  [[nodiscard]] std::vector<Record> all_live(SimTime now) const;

  /// Extract (remove and return) the live records lying inside `zone` —
  /// used when zone ownership moves.
  std::vector<Record> extract_in_zone(const can::Zone& zone, SimTime now);

  /// Extract every record unconditionally (heal-time reconcile).
  std::vector<Record> extract_all();

  /// Drop expired entries; called opportunistically.
  void prune(SimTime now);

  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  /// Bytes claimed by the key/slot arrays and the record slab
  /// (attribution-profiler hook; Records are flat — no heap members).
  [[nodiscard]] std::size_t mem_bytes() const {
    return keys_.capacity() * sizeof(NodeId) +
           slots_.capacity() * sizeof(std::uint32_t) +
           slab_.capacity() * sizeof(Record) +
           free_.capacity() * sizeof(std::uint32_t);
  }

  /// Structural oracle (sim_fuzz): the key array — expired entries
  /// included — is strictly ascending by provider id (sorted and
  /// duplicate-free), every key's slab slot is in range and unique, the
  /// slot's record names the key's provider, and used + free slots account
  /// for the whole slab.  Every accessor's ordering guarantee follows from
  /// the key-order property; the rest pins the slab bookkeeping.
  [[nodiscard]] bool verify_sorted_unique() const;

 private:
  /// Index into keys_ of the first entry >= provider.
  [[nodiscard]] std::size_t key_lower_bound(NodeId provider) const;
  /// Take a slot off the free list (or grow the slab) and write `r` there.
  [[nodiscard]] std::uint32_t alloc_slot(const Record& r);
  /// Record of the i-th key, in key (ascending provider) order.
  [[nodiscard]] const Record& at(std::size_t i) const {
    return slab_[slots_[i]];
  }

  std::vector<NodeId> keys_;           // sorted provider ids
  std::vector<std::uint32_t> slots_;   // keys_[i]'s record is slab_[slots_[i]]
  std::vector<Record> slab_;           // stable record storage
  std::vector<std::uint32_t> free_;    // recycled slab slots (LIFO)
};

/// Heal-time reconcile of a partitioned node's parked duty cache, after the
/// node rejoined with `zone`: drops expired records, keeps the ones `zone`
/// covers, folds in `split` (the records the rejoin's zone split already
/// handed the node, in-zone by construction) and passes every other record
/// to `reroute`, which sends it to its current duty node.
template <class Reroute>
void reconcile_parked(RecordStore& cache, RecordStore split,
                      const can::Zone& zone, SimTime now, Reroute reroute) {
  cache.prune(now);
  const std::vector<Record> keep = cache.extract_in_zone(zone, now);
  const std::vector<Record> rest = cache.extract_all();
  for (const Record& r : keep) cache.put(r);
  for (const Record& r : split.extract_all()) cache.put(r);
  for (const Record& r : rest) reroute(r);
}

}  // namespace soc::index
