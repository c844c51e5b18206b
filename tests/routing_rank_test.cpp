// The fused routing rank kernel (can::seed_toward / can::rank_toward over
// packed zone rows) against the reference chain it replaced —
// Zone::contains, Zone::distance_sq, point_distance_sq, id tie-break — on
// the targets where the ranking is delicate, and CanSpace::next_hop
// against a reference scan, hop for hop, over a churned space.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/can/space.hpp"
#include "src/can/zone_row.hpp"

namespace soc::can {
namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// The ranking every routing layer applied before packed rows existed.
bool reference_rank(const Zone& z, NodeId cand, const Point& target,
                    NodeId& best, double& best_d, double& best_c) {
  if (z.contains(target)) {
    best = cand;
    best_d = -1.0;
    best_c = -1.0;
    return true;
  }
  const double d = z.distance_sq(target);
  const double c = point_distance_sq(z.center(), target);
  if (d < best_d || (d == best_d && c < best_c) ||
      (d == best_d && c == best_c && best.valid() && cand < best)) {
    best = cand;
    best_d = d;
    best_c = c;
  }
  return false;
}

struct Packed {
  explicit Packed(const Zone& z) : v(ZoneRow::stride(z.dims())) {
    ZoneRow::pack(z, v.data());
  }
  [[nodiscard]] ZoneRow row() const { return {v.data(), v.size() / 3}; }
  std::vector<double> v;
};

using Candidates = std::vector<std::pair<NodeId, Zone>>;

// Seed at `self`, rank `cands` in order with both implementations, and
// require identical decisions and bit-identical keys after every step.
void expect_same_ranking(const Zone& self, const Candidates& cands,
                         const Point& target) {
  double d = 0.0, c = 0.0;
  const bool arrived = seed_toward(Packed(self).row(), target, d, c);
  ASSERT_EQ(arrived, self.contains(target));
  if (arrived) return;
  double ref_d = self.distance_sq(target);
  double ref_c = point_distance_sq(self.center(), target);
  ASSERT_EQ(bits(d), bits(ref_d));
  ASSERT_EQ(bits(c), bits(ref_c));
  NodeId best, ref_best;
  for (const auto& [id, z] : cands) {
    const bool ref_hit = reference_rank(z, id, target, ref_best, ref_d, ref_c);
    const bool hit = rank_toward(Packed(z).row(), id, target, best, d, c);
    ASSERT_EQ(hit, ref_hit);
    ASSERT_EQ(best, ref_best);
    ASSERT_EQ(bits(d), bits(ref_d));
    ASSERT_EQ(bits(c), bits(ref_c));
    if (ref_hit) return;
  }
}

// Every zone as self against every ordering of the others.
void expect_same_for_all_orders(const std::vector<Zone>& zones,
                                const Point& target) {
  for (std::size_t s = 0; s < zones.size(); ++s) {
    std::vector<std::uint32_t> order;
    for (std::uint32_t i = 0; i < zones.size(); ++i) {
      if (i != s) order.push_back(i);
    }
    do {
      Candidates cands;
      for (const std::uint32_t i : order) cands.emplace_back(NodeId(i), zones[i]);
      expect_same_ranking(zones[s], cands, target);
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

Zone box(std::initializer_list<double> lo, std::initializer_list<double> hi) {
  return Zone(Point(lo), Point(hi));
}

// The 2x2 quadrants of the unit square.
std::vector<Zone> quadrants() {
  return {box({0, 0}, {0.5, 0.5}), box({0.5, 0}, {1, 0.5}),
          box({0, 0.5}, {0.5, 1}), box({0.5, 0.5}, {1, 1})};
}

TEST(RoutingRank, TargetsOnSharedFaces) {
  for (const Point& t : {Point{0.5, 0.25}, Point{0.25, 0.5}, Point{0.75, 0.5},
                         Point{0.5, 0.75}}) {
    expect_same_for_all_orders(quadrants(), t);
  }
}

TEST(RoutingRank, ClosedTopEdge) {
  for (const Point& t : {Point{1.0, 0.3}, Point{0.3, 1.0}, Point{1.0, 1.0},
                         Point{1.0, 0.5}, Point{0.5, 1.0}}) {
    expect_same_for_all_orders(quadrants(), t);
  }
}

TEST(RoutingRank, CornerPlateausBreakByCenterThenId) {
  // Without the owner, the three other quadrants all sit at box distance 0
  // from the shared corner and at equal center distance: the id decides.
  const auto q = quadrants();
  const Point corner{0.5, 0.5};
  expect_same_for_all_orders({q[0], q[1], q[2]}, corner);
  // Unequal sizes: the plateau at box distance 0 breaks by center.
  expect_same_for_all_orders({box({0, 0}, {0.5, 0.25}), box({0, 0.25}, {0.5, 0.5}),
                              box({0.5, 0}, {1, 0.5}), box({0, 0.5}, {1, 1})},
                             corner);
  // In 3-D, the corner shared by eight octants.
  std::vector<Zone> octants;
  for (int i = 0; i < 8; ++i) {
    const double x = (i & 1) * 0.5, y = ((i >> 1) & 1) * 0.5,
                 z = ((i >> 2) & 1) * 0.5;
    octants.push_back(box({x, y, z}, {x + 0.5, y + 0.5, z + 0.5}));
  }
  octants.pop_back();  // drop the owner of (0.5, 0.5, 0.5)
  Candidates cands;
  for (std::uint32_t i = 1; i < octants.size(); ++i) {
    cands.emplace_back(NodeId(100 - i), octants[i]);
  }
  expect_same_ranking(octants[0], cands, Point{0.5, 0.5, 0.5});
}

TEST(RoutingRank, RandomPointsOverSpaceZones) {
  CanSpace space(3, Rng(61));
  for (std::uint32_t i = 0; i < 96; ++i) space.join(NodeId(i));
  const auto ids = space.member_ids();
  Rng rng(62);
  for (int trial = 0; trial < 400; ++trial) {
    Point t(3);
    for (std::size_t d = 0; d < 3; ++d) {
      t[d] = trial % 2 == 0
                 ? rng.uniform()
                 : static_cast<double>(rng.uniform_int(0, 16)) / 16.0;
    }
    const NodeId self = ids[rng.pick_index(ids.size())];
    Candidates cands;
    for (const CanSpace::NeighborLink& l : space.neighbor_links(self)) {
      cands.emplace_back(l.id, space.zone_of(l.id));
    }
    for (int f = 0; f < 12; ++f) {  // finger-like arbitrary members
      const NodeId n = ids[rng.pick_index(ids.size())];
      cands.emplace_back(n, space.zone_of(n));
    }
    expect_same_ranking(space.zone_of(self), cands, t);
  }
}

// The pre-packed-row next_hop, from public accessors only.
NodeId reference_next_hop(const CanSpace& space, NodeId from,
                          const Point& target) {
  const Zone here = space.zone_of(from);
  if (here.contains(target)) return from;
  NodeId best;
  double best_d = here.distance_sq(target);
  double best_c = point_distance_sq(here.center(), target);
  for (const CanSpace::NeighborLink& l : space.neighbor_links(from)) {
    if (reference_rank(space.zone_of(l.id), l.id, target, best, best_d,
                       best_c)) {
      break;
    }
  }
  return best;
}

TEST(RoutingRank, NextHopMatchesReferenceScanOverChurnedSpace) {
  constexpr std::size_t kDims = 5;
  CanSpace space(kDims, Rng(71));
  Rng rng(72);
  std::vector<NodeId> live;
  std::uint32_t next = 0;
  for (; next < 4096; ++next) {
    space.join(NodeId(next));
    live.push_back(NodeId(next));
  }
  for (int step = 0; step < 1500; ++step) {
    const std::size_t i = rng.pick_index(live.size());
    space.leave(live[i]);
    live[i] = live.back();
    live.pop_back();
    space.join(NodeId(next));
    live.push_back(NodeId(next++));
  }
  ASSERT_TRUE(space.verify_adjacency_cache());
  for (int trial = 0; trial < 300; ++trial) {
    Point target(kDims);
    for (std::size_t d = 0; d < kDims; ++d) target[d] = rng.uniform();
    NodeId cur = live[rng.pick_index(live.size())];
    for (std::size_t hop = 0;; ++hop) {
      ASSERT_LE(hop, live.size());
      const NodeId expected = reference_next_hop(space, cur, target);
      const NodeId got = space.next_hop(cur, target);
      ASSERT_EQ(got, expected) << "trial " << trial << " hop " << hop;
      if (got == cur) break;
      cur = got;
    }
    EXPECT_EQ(cur, space.owner_of(target));
  }
}

}  // namespace
}  // namespace soc::can
