// CanSpace: membership, zone assignment and neighbor-table maintenance for
// the CAN overlay.  It plays the role of the overlay's distributed
// maintenance machinery (join splits, departure takeover, neighbor-set
// refresh); protocol traffic still flows hop-by-hop through MessageBus.
//
// Neighbor sets are maintained incrementally on every join/leave from local
// candidate sets (the union of the affected zones' previous neighbors), the
// same information real CAN nodes exchange; an O(n²) verifier used by the
// tests checks symmetry and completeness after arbitrary churn.
//
// Storage is dense: members live in a DenseNodeMap indexed by NodeId (no
// hashing on the per-hop path), and every neighbor link caches its
// adjacency metadata — the abutting dimension and side — maintained
// incrementally alongside the link itself.  Greedy routing uses the
// cached side to prune candidates with a one-multiply lower bound before
// paying for the full box/center distance, and directional filtering is a
// flag test per neighbor instead of a d-dimensional zone comparison.
//
// Zones live apart from the member records: one packed row per member
// (lo, hi and center at dims() stride; see zone_row.hpp) in a single
// contiguous array, which is what routing ranks candidates from.  The rows
// are the only copy of a zone — the partition tree keeps the split
// topology alone — so join and leave write the split and merged zones
// straight into them; rows of departed members are poisoned and
// recycled.  verify_adjacency_cache() checks both.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/can/geometry.hpp"
#include "src/can/partition_tree.hpp"
#include "src/can/zone_row.hpp"
#include "src/common/dense_node_map.hpp"
#include "src/common/rng.hpp"
#include "src/common/types.hpp"

namespace soc::can {

/// Direction along a dimension, from a zone's own point of view.
enum class Direction : std::uint8_t { kNegative, kPositive };

class CanSpace {
 public:
  /// One neighbor with its cached adjacency metadata: the unique dimension
  /// the two zones abut along, and which side the neighbor sits on.
  struct NeighborLink {
    NodeId id;
    std::uint8_t dim = 0;   ///< abutting dimension
    bool positive = false;  ///< neighbor starts where our zone ends
  };

  /// The hook the record layers install to stay consistent with zone
  /// ownership changes: all records of `from` that now fall inside `to`'s
  /// zone must move.  Both nodes are members when it fires: the split
  /// owner and the joiner in join(), the reassigned node and the merge
  /// survivor in leave().  A departing node hands its records to no one.
  using RehomeListener = std::function<void(NodeId from, NodeId to)>;

  CanSpace(std::size_t dims, Rng rng);

  [[nodiscard]] std::size_t dims() const { return dims_; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  /// Storage density of the member and tree-leaf maps (max slot_span/size
  /// over both; BENCH metric).
  [[nodiscard]] double span_ratio() const {
    return std::max(members_.span_ratio(),
                    tree_.has_value() ? tree_->span_ratio() : 1.0);
  }
  [[nodiscard]] bool contains(NodeId id) const {
    return members_.contains(id);
  }

  void set_rehome_listener(RehomeListener listener) {
    on_rehome_ = std::move(listener);
  }

  /// First node bootstraps the space; later joins split the zone owning a
  /// random point (or the provided hint).  Returns the join point used.
  Point join(NodeId id, std::optional<Point> point_hint = std::nullopt);

  /// Node departs; its zone is merged/reassigned per the partition tree.
  void leave(NodeId id);

  /// `id`'s zone, built from its packed row.
  [[nodiscard]] Zone zone_of(NodeId id) const;

  /// `id`'s packed zone row, or a null row when `id` is not a member: one
  /// lookup answers both "is it still here?" and "where is it?", which is
  /// all a routing hop needs of a candidate.  Valid until the next join or
  /// leave.
  [[nodiscard]] ZoneRow row_of(NodeId id) const;

  [[nodiscard]] NodeId owner_of(const Point& p) const;

  /// Adjacent neighbors (paper definition) with their cached adjacency
  /// metadata, sorted by id.
  [[nodiscard]] const std::vector<NeighborLink>& neighbor_links(
      NodeId id) const;

  /// Neighbors adjacent along `dim` on the given side, written into `out`
  /// (cleared first).  Allocation-free in steady state: pass a reused
  /// scratch buffer.
  void directional_neighbors(NodeId id, std::size_t dim, Direction dir,
                             std::vector<NodeId>& out) const;

  /// Allocating convenience wrapper (tests and cold paths).
  [[nodiscard]] std::vector<NodeId> directional_neighbors(
      NodeId id, std::size_t dim, Direction dir) const;

  /// Greedy candidate scan over `from`'s neighbors toward `target`,
  /// ranking each with rank_toward() (zone_row.hpp) against the incumbent
  /// (best, best_d, best_c) — seed it with seed_toward() at `from`.
  /// Returns true when a neighbor zone contains the target.
  ///
  /// Neighbors are pruned with an exact lower bound first: a neighbor's
  /// zone starts at our boundary along its cached abutting dimension, so
  /// that axis alone contributes gap² to its box distance; gap² > best_d
  /// means it cannot win under the exact same tie-break chain.
  bool scan_neighbors_toward(NodeId from, const Point& target, NodeId& best,
                             double& best_d, double& best_c) const;

  /// Greedy CAN routing step: the neighbor whose zone is closest to the
  /// target (self if the local zone already contains it).  Deterministic
  /// tie-break on node id.
  [[nodiscard]] NodeId next_hop(NodeId from, const Point& target) const;

  /// Full greedy route (for hop-count analysis and tests).  Empty when
  /// `from` already owns the target.
  [[nodiscard]] std::vector<NodeId> route(NodeId from,
                                          const Point& target) const;

  [[nodiscard]] std::vector<NodeId> member_ids() const;

  /// A uniformly random member (for bootstrap contacts).
  [[nodiscard]] NodeId random_member(Rng& rng) const;

  /// Sum of all member zone volumes: ≈ 1 when the zones tile the unit
  /// cube.  The fuzz harness checks it as a cheap O(n) tessellation
  /// tripwire in addition to the full O(n²) verifier.
  [[nodiscard]] double total_volume() const;

  /// Test oracle: one tree leaf per member, zone volumes summing to 1 with
  /// no two zones overlapping (so they tile the cube), neighbor sets that
  /// are exactly the adjacency relation and symmetric, and cached
  /// per-neighbor adjacency metadata and packed rows that match a
  /// from-scratch recomputation.
  [[nodiscard]] bool verify_invariants() const;

  /// The cache checks alone (cheaper; used by the churn stress test): the
  /// links are sorted by id and their metadata matches the zones, every
  /// member's packed row has center 0.5 * (lo + hi) and that center
  /// descends to the member's own partition-tree leaf, and every other row
  /// is free and poisoned, so no departed id holds a live row.
  [[nodiscard]] bool verify_adjacency_cache() const;

  /// Bytes claimed by overlay membership state: the dense member map, the
  /// packed zone rows, every member's link array, and the partition tree
  /// (attribution-profiler hook; O(members), report-time only).
  [[nodiscard]] std::size_t mem_bytes() const {
    std::size_t b = members_.mem_bytes() + rows_.capacity() * sizeof(double) +
                    free_rows_.capacity() * sizeof(std::uint32_t);
    for (const auto& [id, m] : members_) {
      (void)id;
      b += m.links.capacity() * sizeof(NeighborLink);
    }
    if (tree_.has_value()) b += tree_->mem_bytes();
    return b;
  }

 private:
  /// Only upsert_link/erase_link mutate `links`, which keeps it sorted by
  /// id.
  struct Member {
    std::uint32_t row = 0;            // index of the packed zone row
    std::vector<NeighborLink> links;  // sorted by id
  };

  Member& member(NodeId id);
  [[nodiscard]] const Member& member(NodeId id) const;

  [[nodiscard]] ZoneRow zone_row(const Member& m) const {
    return {rows_.data() + m.row * ZoneRow::stride(dims_), dims_};
  }
  std::uint32_t alloc_row();
  void free_row(std::uint32_t row);
  void write_row(NodeId id, const Zone& zone);

  /// Recompute adjacency between `id` and every candidate, updating both
  /// sides' sorted links and their cached metadata.
  void refresh_against(NodeId id, const std::vector<NodeId>& candidates);
  static void upsert_link(Member& m, NodeId id, std::uint8_t dim,
                          bool positive);
  static void erase_link(Member& m, NodeId id);
  void drop_from_all_neighbors(NodeId id);

  std::size_t dims_;
  Rng rng_;
  std::optional<PartitionTree> tree_;
  DenseNodeMap<Member> members_;
  std::vector<double> rows_;              // ZoneRow::stride(dims_) per row
  std::vector<std::uint32_t> free_rows_;  // recycled rows, poisoned (NaN)
  RehomeListener on_rehome_;
};

}  // namespace soc::can
