// INSCAN index-node tables: per dimension and direction, sampled nodes at
// 2^k zone-hops (k = 0, 1, 2, …), refreshed by periodic directional probe
// walks.  These are the NINodes of Algorithms 1–2 and the long links that
// bring INSCAN routing to O(log² n).
//
// Layout: one contiguous array of 16-byte entries per node, grouped by
// track — (dim 0, −), (dim 0, +), (dim 1, −), … — behind 2·d+1 offsets.
// A routing hop walks every live finger as one linear scan, and a node's
// whole table is one allocation instead of 2·d separate vectors.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/can/space.hpp"
#include "src/common/rng.hpp"
#include "src/common/types.hpp"

namespace soc::index {

/// Index-node selection policies for the ablation study.  The paper's
/// design samples a random 2^k level then a random entry; alternatives keep
/// only the nearest level or draw a uniformly random known entry.
enum class IndexSelectPolicy : std::uint8_t {
  kRandomPowerLevel,  // paper: random k, then random sample at that level
  kNearestOnly,       // always the 1-hop entry (degenerates to neighbors)
  kUniformEntry,      // uniform over all stored entries regardless of level
};

class IndexTable {
 public:
  struct Entry {
    NodeId id;
    std::uint32_t level = 0;  // distance 2^level zone-hops
    SimTime refreshed_at = 0;
  };

  IndexTable(std::size_t dims, std::size_t samples_per_level,
             SimTime entry_ttl);
  // A move empties the source, offsets included: they must never index a
  // moved-from entry array.
  IndexTable(IndexTable&& o) noexcept;
  IndexTable& operator=(IndexTable&& o) noexcept;
  IndexTable(const IndexTable&) = default;
  IndexTable& operator=(const IndexTable&) = default;

  /// Store a probe result: `id` sits 2^level hops away along (dim, dir).
  void store(std::size_t dim, can::Direction dir, std::size_t level,
             NodeId id, SimTime now);

  /// Drop everything learned about a dimension/direction (pre-refresh).
  void clear_track(std::size_t dim, can::Direction dir);
  void clear_all();

  /// A NINode along (dim, dir) chosen per the policy; nullopt when the
  /// track is empty (e.g. at the space edge).  Allocation-free: selection
  /// runs as indexed scans over the track plus a 64-bit level mask (hence
  /// the `level < 64` bound enforced by store()), with the same RNG draw
  /// order as the original collect-into-vectors implementation.
  [[nodiscard]] std::optional<NodeId> pick(std::size_t dim,
                                           can::Direction dir,
                                           IndexSelectPolicy policy,
                                           SimTime now, Rng& rng) const;

  /// Visit the live entries along one track, in track order, without
  /// allocating.
  template <typename Fn>
  void for_each_live(std::size_t dim, can::Direction dir, SimTime now,
                     Fn&& fn) const {
    const std::size_t t = track_index(dim, dir);
    for (std::size_t i = begin_[t]; i < begin_[t + 1]; ++i) {
      if ((now - entries_[i].refreshed_at) < ttl_) fn(entries_[i]);
    }
  }

  /// Visit the live entries of every track, track after track — the
  /// per-hop routing path treats them as long-link fingers.
  template <typename Fn>
  void for_each_live(SimTime now, Fn&& fn) const {
    for (const Entry& e : entries_) {
      if ((now - e.refreshed_at) < ttl_) fn(e);
    }
  }

  [[nodiscard]] std::size_t dims() const { return dims_; }
  [[nodiscard]] std::size_t total_entries() const { return entries_.size(); }

  /// Bytes claimed by the entry array (attribution-profiler hook).
  [[nodiscard]] std::size_t mem_bytes() const {
    return entries_.capacity() * sizeof(Entry);
  }

 private:
  [[nodiscard]] std::size_t track_index(std::size_t dim,
                                        can::Direction dir) const {
    SOC_CHECK(dim < dims_);
    return dim * 2 + (dir == can::Direction::kPositive ? 1 : 0);
  }

  std::size_t dims_;
  std::size_t samples_per_level_;
  SimTime ttl_;
  std::vector<Entry> entries_;  // grouped by track
  /// Track t holds entries_[begin_[t], begin_[t + 1]); begin_[2·dims_] is
  /// entries_.size().
  std::array<std::uint16_t, 2 * can::kMaxDims + 1> begin_{};
};

}  // namespace soc::index
