#include "src/can/space.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace soc::can {

namespace {
/// The first link whose id is not below `id` (links are sorted by id).
template <class Links>
auto lower_link(Links& links, NodeId id) {
  return std::lower_bound(
      links.begin(), links.end(), id,
      [](const CanSpace::NeighborLink& l, NodeId v) { return l.id < v; });
}
}  // namespace

CanSpace::CanSpace(std::size_t dims, Rng rng) : dims_(dims), rng_(rng) {
  SOC_CHECK(dims > 0 && dims <= kMaxDims);
}

CanSpace::Member& CanSpace::member(NodeId id) {
  Member* m = members_.find(id);
  SOC_CHECK_MSG(m != nullptr, "unknown member");
  return *m;
}

const CanSpace::Member& CanSpace::member(NodeId id) const {
  const Member* m = members_.find(id);
  SOC_CHECK_MSG(m != nullptr, "unknown member");
  return *m;
}

std::uint32_t CanSpace::alloc_row() {
  if (!free_rows_.empty()) {
    const std::uint32_t row = free_rows_.back();
    free_rows_.pop_back();
    return row;
  }
  const std::size_t stride = ZoneRow::stride(dims_);
  const auto row = static_cast<std::uint32_t>(rows_.size() / stride);
  rows_.resize(rows_.size() + stride);
  return row;
}

void CanSpace::free_row(std::uint32_t row) {
  // Poisoned, so a departed member's stale row can never pass for a zone.
  const std::size_t stride = ZoneRow::stride(dims_);
  std::fill_n(rows_.begin() + static_cast<std::ptrdiff_t>(row * stride),
              stride, std::numeric_limits<double>::quiet_NaN());
  free_rows_.push_back(row);
}

void CanSpace::write_row(NodeId id, const Zone& zone) {
  ZoneRow::pack(zone, rows_.data() + member(id).row * ZoneRow::stride(dims_));
}

void CanSpace::upsert_link(Member& m, NodeId id, std::uint8_t dim,
                           bool positive) {
  const auto it = lower_link(m.links, id);
  if (it == m.links.end() || it->id != id) {
    m.links.insert(it, NeighborLink{id, dim, positive});
    return;
  }
  // Already neighbors: the abutting dimension/side may have changed with a
  // zone update, so always rewrite the cached metadata.
  *it = NeighborLink{id, dim, positive};
}

void CanSpace::erase_link(Member& m, NodeId id) {
  const auto it = lower_link(m.links, id);
  if (it != m.links.end() && it->id == id) m.links.erase(it);
}

void CanSpace::refresh_against(NodeId id,
                               const std::vector<NodeId>& candidates) {
  Member& m = member(id);
  const Zone zone = zone_row(m).zone();
  for (const NodeId c : candidates) {
    if (c == id || !members_.contains(c)) continue;
    Member& other = member(c);
    const ZoneRow other_row = zone_row(other);
    const auto adim = zone.adjacency_dim(other_row);
    if (adim.has_value()) {
      const auto dim = static_cast<std::uint8_t>(*adim);
      const bool positive = zone.positive_side(other_row, *adim);
      upsert_link(m, c, dim, positive);
      upsert_link(other, id, dim, !positive);
    } else {
      erase_link(m, c);
      erase_link(other, id);
    }
  }
}

void CanSpace::drop_from_all_neighbors(NodeId id) {
  for (const NeighborLink& l : member(id).links) erase_link(member(l.id), id);
}

Point CanSpace::join(NodeId id, std::optional<Point> point_hint) {
  SOC_CHECK(id.valid());
  SOC_CHECK_MSG(!members_.contains(id), "node already joined");

  Point p = point_hint.value_or(Point(dims_));
  if (!point_hint.has_value()) {
    for (std::size_t i = 0; i < dims_; ++i) p[i] = rng_.uniform();
  }

  if (!tree_.has_value()) {
    tree_.emplace(dims_, id);
    members_.emplace(id, Member{alloc_row(), {}});
    write_row(id, Zone::unit(dims_));
    return p;
  }

  // The joiner takes the half of the owner's zone that contains its point
  // (so its own availability record tends to land in its zone).
  const NodeId owner = tree_->owner_of(p);
  const auto [lower, upper] = zone_of(owner).split(tree_->split_dim(owner));
  const bool joiner_lower = lower.contains(p);
  tree_->split(owner, id, joiner_lower);

  // Candidates for both halves: the splitter's old neighborhood plus the
  // two halves against each other.
  std::vector<NodeId> candidates;
  for (const NeighborLink& l : member(owner).links) candidates.push_back(l.id);
  candidates.push_back(owner);

  // Insert the joiner before touching the owner again: DenseNodeMap growth
  // invalidates outstanding references.
  members_.emplace(id, Member{alloc_row(), {}});
  write_row(id, joiner_lower ? lower : upper);
  write_row(owner, joiner_lower ? upper : lower);

  refresh_against(owner, candidates);
  candidates.push_back(id);  // not used against itself; harmless
  refresh_against(id, candidates);

  // Records of the splitter that now fall in the joiner's half move over.
  if (on_rehome_) on_rehome_(owner, id);
  return p;
}

void CanSpace::leave(NodeId id) {
  SOC_CHECK_MSG(members_.contains(id), "unknown member");
  if (members_.size() == 1) {
    members_.clear();
    tree_.reset();
    rows_.clear();
    free_rows_.clear();
    return;
  }

  const PartitionTree::Repair repair = tree_->leave(id);
  // The repaired zones, from the rows before any is freed or written: the
  // survivor absorbs its former sibling leaf (merging two siblings
  // restores their parent's zone exactly), and a reassigned node takes
  // the departed zone unchanged.
  const std::optional<Zone> merged =
      zone_of(repair.merge_survivor).merged_with(zone_of(repair.merged_from));
  SOC_CHECK(merged.has_value());
  const Zone departed = zone_of(id);

  // Collect every node whose zone or neighborhood may change, with their
  // pre-repair neighbor sets as candidate pools.
  std::vector<NodeId> affected;
  affected.push_back(repair.merge_survivor);
  if (repair.reassigned_to.valid()) affected.push_back(repair.reassigned_to);

  std::vector<NodeId> candidates;
  for (const NeighborLink& l : member(id).links) candidates.push_back(l.id);
  for (const NodeId a : affected) {
    if (!members_.contains(a)) continue;
    for (const NeighborLink& l : member(a).links) candidates.push_back(l.id);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  drop_from_all_neighbors(id);
  free_row(member(id).row);
  members_.erase(id);

  // Apply new zones, then refresh adjacency for all affected nodes against
  // the combined candidate pool.
  write_row(repair.merge_survivor, *merged);
  if (repair.reassigned_to.valid()) write_row(repair.reassigned_to, departed);
  // The candidate pool (old neighborhoods of the departed node and of every
  // affected node) covers all adjacency pairs that can appear or disappear:
  // zone growth never loses neighbors, and the relocated node's new
  // neighborhood is a subset of the departed node's old one.
  for (const NodeId a : affected) {
    refresh_against(a, candidates);
  }
  // When y (reassigned_to) vacated its old zone to z, records y held move
  // to z as part of the same repair.  The departed node's own records move
  // nowhere: churn is an abrupt departure, and providers republish within
  // one update period.
  if (repair.reassigned_to.valid() && on_rehome_) {
    on_rehome_(repair.reassigned_to, repair.merge_survivor);
  }

  // Safe point: every Member& taken during the repair is dead and all
  // listener callbacks have returned.  Reclaim departed-node holes so
  // long churn keeps iteration O(live), not O(total joins ever).
  members_.maybe_compact();
}

Zone CanSpace::zone_of(NodeId id) const { return zone_row(member(id)).zone(); }

ZoneRow CanSpace::row_of(NodeId id) const {
  const Member* m = members_.find(id);
  return m == nullptr ? ZoneRow() : zone_row(*m);
}

NodeId CanSpace::owner_of(const Point& p) const {
  SOC_CHECK(tree_.has_value());
  return tree_->owner_of(p);
}

const std::vector<CanSpace::NeighborLink>& CanSpace::neighbor_links(
    NodeId id) const {
  return member(id).links;
}

void CanSpace::directional_neighbors(NodeId id, std::size_t dim, Direction dir,
                                     std::vector<NodeId>& out) const {
  SOC_CHECK(dim < dims_);
  out.clear();
  const bool want_positive = dir == Direction::kPositive;
  for (const NeighborLink& l : member(id).links) {
    if (l.dim == dim && l.positive == want_positive) out.push_back(l.id);
  }
}

std::vector<NodeId> CanSpace::directional_neighbors(NodeId id, std::size_t dim,
                                                    Direction dir) const {
  std::vector<NodeId> out;
  directional_neighbors(id, dim, dir, out);
  return out;
}

bool CanSpace::scan_neighbors_toward(NodeId from, const Point& target,
                                     NodeId& best, double& best_d,
                                     double& best_c) const {
  const Member& m = member(from);
  const ZoneRow here = zone_row(m);
  for (const NeighborLink& l : m.links) {
    // Exact prune: the neighbor's zone starts at our boundary along its
    // abutting dimension, so that axis alone contributes at least gap² to
    // its box distance (an fp lower bound: the box distance sums the
    // identical subtraction's square with non-negative terms).  Strict >
    // keeps plateau ties — resolved by center distance then id — intact,
    // and a containing neighbor always has gap <= 0, so it is never pruned.
    const double gap = l.positive ? here.hi(l.dim) - target[l.dim]
                                  : target[l.dim] - here.lo(l.dim);
    if (gap > 0.0 && gap * gap > best_d) continue;
    if (rank_toward(zone_row(member(l.id)), l.id, target, best, best_d,
                    best_c)) {
      return true;
    }
  }
  return false;
}

NodeId CanSpace::next_hop(NodeId from, const Point& target) const {
  // Candidates are ranked by (containment, box distance, center distance):
  // a zone owning the target wins outright; otherwise strictly smaller box
  // distance wins; center distance breaks plateaus — in particular targets
  // on zone corners, where several non-owning zones all report box
  // distance 0 and the owner may not be adjacent to the current node.
  // The key strictly decreases every hop, so routing cannot cycle.
  NodeId best;  // invalid until a neighbor strictly improves on our zone
  double best_d = 0.0;
  double best_c = 0.0;
  if (seed_toward(zone_row(member(from)), target, best_d, best_c)) {
    return from;
  }
  scan_neighbors_toward(from, target, best, best_d, best_c);
  SOC_CHECK_MSG(best.valid(), "greedy routing stalled");
  return best;
}

std::vector<NodeId> CanSpace::route(NodeId from, const Point& target) const {
  std::vector<NodeId> path;
  NodeId cur = from;
  while (!zone_row(member(cur)).contains(target)) {
    cur = next_hop(cur, target);
    path.push_back(cur);
    SOC_CHECK_MSG(path.size() <= members_.size(), "routing loop");
  }
  return path;
}

std::vector<NodeId> CanSpace::member_ids() const {
  std::vector<NodeId> out;
  out.reserve(members_.size());
  // DenseNodeMap iterates in ascending id order, so no sort is needed.
  for (const auto& [id, _] : members_) out.push_back(id);
  return out;
}

NodeId CanSpace::random_member(Rng& rng) const {
  const auto ids = member_ids();
  SOC_CHECK(!ids.empty());
  return ids[rng.pick_index(ids.size())];
}

double CanSpace::total_volume() const {
  double sum = 0.0;
  for (const auto& [id, m] : members_) sum += zone_row(m).zone().volume();
  return sum;
}

bool CanSpace::verify_adjacency_cache() const {
  // Every member owns exactly one row, whose center descends to its own
  // partition-tree leaf; every other row is on the free list and poisoned.
  const std::size_t stride = ZoneRow::stride(dims_);
  if (rows_.size() % stride != 0) return false;
  std::vector<bool> claimed(rows_.size() / stride, false);
  const auto claim = [&](std::uint32_t row) {
    if (row >= claimed.size() || claimed[row]) return false;
    claimed[row] = true;
    return true;
  };
  for (const auto& [id, m] : members_) {
    if (!claim(m.row) || !tree_->contains_owner(id)) return false;
    const ZoneRow r = zone_row(m);
    Point center(dims_);
    for (std::size_t i = 0; i < dims_; ++i) {
      if (r.center(i) != 0.5 * (r.lo(i) + r.hi(i))) return false;
      center[i] = r.center(i);
    }
    if (tree_->owner_of(center) != id) return false;
  }
  for (const std::uint32_t row : free_rows_) {
    if (!claim(row) || !std::isnan(rows_[row * stride])) return false;
  }
  if (std::find(claimed.begin(), claimed.end(), false) != claimed.end()) {
    return false;
  }

  for (const auto& [id, m] : members_) {
    const Zone zone = zone_row(m).zone();
    for (std::size_t i = 0; i < m.links.size(); ++i) {
      const NeighborLink& l = m.links[i];
      if (i > 0 && !(m.links[i - 1].id < l.id)) return false;
      const Member* other = members_.find(l.id);
      if (other == nullptr) return false;
      const Zone other_zone = zone_row(*other).zone();
      const auto adim = zone.adjacency_dim(other_zone);
      if (!adim.has_value() || *adim != l.dim) return false;
      if (zone.positive_side(other_zone, *adim) != l.positive) return false;
    }
  }
  return true;
}

bool CanSpace::verify_invariants() const {
  if (members_.empty()) return true;
  if (tree_->leaf_count() != members_.size()) return false;
  if (std::abs(total_volume() - 1.0) >= 1e-9) return false;
  if (!verify_adjacency_cache()) return false;
  const auto ids = member_ids();
  std::vector<Zone> zones;
  zones.reserve(ids.size());
  for (const NodeId a : ids) zones.push_back(zone_of(a));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Member& mi = member(ids[i]);
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      const Member& mj = member(ids[j]);
      const bool adjacent = zones[i].adjacency_dim(zones[j]).has_value();
      const auto ij = lower_link(mi.links, ids[j]);
      const auto ji = lower_link(mj.links, ids[i]);
      const bool listed_ij = ij != mi.links.end() && ij->id == ids[j];
      const bool listed_ji = ji != mj.links.end() && ji->id == ids[i];
      if (adjacent != listed_ij || adjacent != listed_ji) return false;
      if (zones[i].overlaps(zones[j])) return false;
    }
  }
  return true;
}

}  // namespace soc::can
