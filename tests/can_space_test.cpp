// Tests for the partition tree and CanSpace membership/routing, including
// property-style churn sweeps that check the overlay invariants after
// arbitrary join/leave interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/can/partition_tree.hpp"
#include "src/can/space.hpp"

namespace soc::can {
namespace {

// The tree keeps the split topology alone: a parent, two children, the
// depth and the owner (32 bytes on x86-64).
static_assert(sizeof(PartitionTree::TreeNode) <= 4 * sizeof(void*));

// The CanSpace rows hold the zones the partition tree's splits imply, so
// the tree cases below assert zones through a CanSpace driven through the
// same splits and departures.  Joining at the center of `owner`'s zone
// splits that zone, and the joiner takes the upper half along the split
// dimension, as PartitionTree::split(owner, joiner, false) assigns it.
void split_upper(CanSpace& space, NodeId owner, NodeId joiner) {
  space.join(joiner, space.zone_of(owner).center());
}

TEST(PartitionTree, FirstOwnerHoldsUnitCube) {
  const PartitionTree t(2, NodeId(0));
  EXPECT_EQ(t.leaf_count(), 1u);
  EXPECT_EQ(t.owner_of(Point{0.3, 0.9}), NodeId(0));
  CanSpace space(2, Rng(1));
  space.join(NodeId(0));
  EXPECT_EQ(space.zone_of(NodeId(0)), Zone::unit(2));
}

TEST(PartitionTree, SplitAssignsHalfContainingJoinerPoint) {
  PartitionTree t(2, NodeId(0));
  // Depth 0 splits along dim 0; the joiner picks a point in the lower half.
  t.split(NodeId(0), NodeId(1), /*joiner_lower=*/true);
  EXPECT_EQ(t.owner_of(Point{0.1, 0.5}), NodeId(1));
  EXPECT_EQ(t.owner_of(Point{0.9, 0.5}), NodeId(0));
  CanSpace space(2, Rng(1));
  space.join(NodeId(0));
  space.join(NodeId(1), Point{0.1, 0.5});
  EXPECT_TRUE(space.zone_of(NodeId(1)).contains(Point{0.1, 0.5}));
  EXPECT_FALSE(space.zone_of(NodeId(0)).contains(Point{0.1, 0.5}));
  EXPECT_TRUE(space.verify_invariants());
}

TEST(PartitionTree, SplitDimensionCyclesWithDepth) {
  PartitionTree t(2, NodeId(0));
  EXPECT_EQ(t.split_dim(NodeId(0)), 0u);
  t.split(NodeId(0), NodeId(1), false);  // depth 0 → dim 0
  EXPECT_EQ(t.split_dim(NodeId(0)), 1u);
  CanSpace space(2, Rng(1));
  space.join(NodeId(0));
  split_upper(space, NodeId(0), NodeId(1));
  const Zone z0 = space.zone_of(NodeId(0));
  EXPECT_DOUBLE_EQ(z0.side(0), 0.5);
  EXPECT_DOUBLE_EQ(z0.side(1), 1.0);
  split_upper(space, NodeId(0), NodeId(2));  // depth 1 → dim 1
  EXPECT_DOUBLE_EQ(space.zone_of(NodeId(0)).side(1), 0.5);
}

TEST(PartitionTree, LeaveMergesSiblingLeaf) {
  PartitionTree t(2, NodeId(0));
  t.split(NodeId(0), NodeId(1), false);
  const auto repair = t.leave(NodeId(1));
  EXPECT_EQ(repair.merge_survivor, NodeId(0));
  EXPECT_FALSE(repair.reassigned_to.valid());
  EXPECT_EQ(t.leaf_count(), 1u);
  CanSpace space(2, Rng(1));
  space.join(NodeId(0));
  split_upper(space, NodeId(0), NodeId(1));
  space.leave(NodeId(1));
  EXPECT_EQ(space.zone_of(NodeId(0)), Zone::unit(2));
}

TEST(PartitionTree, LeaveWithInternalSiblingReassigns) {
  PartitionTree t(2, NodeId(0));
  t.split(NodeId(0), NodeId(1), false);  // 0 and 1 split dim 0
  t.split(NodeId(1), NodeId(2), false);  // 1's half splits dim 1
  CanSpace space(2, Rng(1));
  space.join(NodeId(0));
  split_upper(space, NodeId(0), NodeId(1));
  split_upper(space, NodeId(1), NodeId(2));
  // Node 0's sibling subtree is internal (holds 1 and 2): on 0's departure
  // one of them absorbs its pair-sibling and the freed node takes 0's zone.
  const Zone departed = space.zone_of(NodeId(0));
  const auto repair = t.leave(NodeId(0));
  space.leave(NodeId(0));
  EXPECT_TRUE(repair.reassigned_to.valid());
  EXPECT_EQ(space.zone_of(repair.reassigned_to), departed);
  EXPECT_TRUE(space.verify_invariants());
  EXPECT_EQ(t.leaf_count(), 2u);
}

TEST(PartitionTree, ChurnKeepsTilingInvariant) {
  Rng rng(77);
  PartitionTree t(3, NodeId(0));
  CanSpace space(3, Rng(1));
  space.join(NodeId(0));
  std::vector<NodeId> live{NodeId(0)};
  std::uint32_t next = 1;
  for (int step = 0; step < 500; ++step) {
    if (live.size() <= 2 || rng.chance(0.6)) {
      const NodeId owner = live[rng.pick_index(live.size())];
      const NodeId joiner(next++);
      t.split(owner, joiner, false);
      split_upper(space, owner, joiner);
      live.push_back(joiner);
    } else {
      const std::size_t idx = rng.pick_index(live.size());
      t.leave(live[idx]);
      space.leave(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_TRUE(space.verify_invariants()) << "step " << step;
    ASSERT_EQ(t.leaf_count(), live.size());
  }
}

class CanSpaceTest : public ::testing::Test {
 protected:
  CanSpace make_space(std::size_t dims, std::size_t n, std::uint64_t seed) {
    CanSpace space(dims, Rng(seed));
    for (std::uint32_t i = 0; i < n; ++i) space.join(NodeId(i));
    return space;
  }
};

TEST_F(CanSpaceTest, JoinGrowsMembershipAndKeepsInvariants) {
  const CanSpace space = make_space(2, 32, 5);
  EXPECT_EQ(space.size(), 32u);
  EXPECT_TRUE(space.verify_invariants());
}

TEST_F(CanSpaceTest, OwnerOfFindsContainingZone) {
  const CanSpace space = make_space(2, 64, 6);
  Rng rng(123);
  for (int i = 0; i < 100; ++i) {
    const Point p{rng.uniform(), rng.uniform()};
    const NodeId owner = space.owner_of(p);
    EXPECT_TRUE(space.zone_of(owner).contains(p));
  }
}

TEST_F(CanSpaceTest, NeighborsAreSymmetric) {
  const CanSpace space = make_space(3, 48, 7);
  for (const NodeId id : space.member_ids()) {
    for (const CanSpace::NeighborLink& l : space.neighbor_links(id)) {
      const auto& back = space.neighbor_links(l.id);
      EXPECT_TRUE(std::any_of(
          back.begin(), back.end(),
          [&](const CanSpace::NeighborLink& b) { return b.id == id; }));
    }
  }
}

TEST_F(CanSpaceTest, DirectionalNeighborsPartitionByDimAndSide) {
  const CanSpace space = make_space(2, 40, 8);
  for (const NodeId id : space.member_ids()) {
    std::size_t directional_total = 0;
    for (std::size_t d = 0; d < 2; ++d) {
      for (const Direction dir : {Direction::kNegative, Direction::kPositive}) {
        const auto dn = space.directional_neighbors(id, d, dir);
        directional_total += dn.size();
        for (const NodeId n : dn) {
          const auto adim = space.zone_of(id).adjacency_dim(space.zone_of(n));
          ASSERT_TRUE(adim.has_value());
          EXPECT_EQ(*adim, d);
          EXPECT_EQ(space.zone_of(id).positive_side(space.zone_of(n), d),
                    dir == Direction::kPositive);
        }
      }
    }
    EXPECT_EQ(directional_total, space.neighbor_links(id).size());
  }
}

TEST_F(CanSpaceTest, GreedyRoutingReachesTargetOwner) {
  const CanSpace space = make_space(2, 128, 9);
  Rng rng(55);
  for (int i = 0; i < 200; ++i) {
    const Point target{rng.uniform(), rng.uniform()};
    const NodeId start = space.random_member(rng);
    NodeId cur = start;
    std::size_t hops = 0;
    while (!space.zone_of(cur).contains(target)) {
      cur = space.next_hop(cur, target);
      ASSERT_LE(++hops, space.size());
    }
    EXPECT_EQ(cur, space.owner_of(target));
  }
}

TEST_F(CanSpaceTest, RouteHopCountIsSubLinear) {
  const CanSpace space = make_space(2, 256, 10);
  Rng rng(66);
  double total_hops = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const Point target{rng.uniform(), rng.uniform()};
    total_hops +=
        static_cast<double>(space.route(space.random_member(rng), target).size());
  }
  // Plain CAN routing is O(n^{1/d}) = O(sqrt(256)) = 16 per dimension; the
  // average must sit well under that bound times d.
  EXPECT_LT(total_hops / trials, 32.0);
}

TEST_F(CanSpaceTest, LeaveKeepsInvariantsSimpleMerge) {
  CanSpace space(2, Rng(11));
  space.join(NodeId(0));
  space.join(NodeId(1));
  space.leave(NodeId(1));
  EXPECT_EQ(space.size(), 1u);
  EXPECT_TRUE(space.verify_invariants());
  EXPECT_EQ(space.zone_of(NodeId(0)), Zone::unit(2));
}

TEST_F(CanSpaceTest, RehomeListenerFiresOnJoinAndLeave) {
  CanSpace space(2, Rng(12));
  int rehomes = 0;
  space.set_rehome_listener([&](NodeId, NodeId) { ++rehomes; });
  space.join(NodeId(0));
  space.join(NodeId(1));
  EXPECT_EQ(rehomes, 1);  // split moves half the records
  space.leave(NodeId(0));
  EXPECT_EQ(rehomes, 1);  // a departing node hands its records to no one
}

// Property sweep: random churn at several population sizes must preserve
// all overlay invariants at every step.
class ChurnProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChurnProperty, InvariantsHoldUnderChurn) {
  const auto [dims, steps] = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(dims * steps));
  CanSpace space(static_cast<std::size_t>(dims), Rng(999));
  std::vector<NodeId> live;
  std::uint32_t next = 0;
  for (int i = 0; i < 12; ++i) {
    space.join(NodeId(next));
    live.push_back(NodeId(next++));
  }
  for (int step = 0; step < steps; ++step) {
    if (live.size() < 4 || rng.chance(0.55)) {
      space.join(NodeId(next));
      live.push_back(NodeId(next++));
    } else {
      const std::size_t idx = rng.pick_index(live.size());
      space.leave(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    if (step % 10 == 0) {
      ASSERT_TRUE(space.verify_invariants()) << "step " << step;
    }
  }
  ASSERT_TRUE(space.verify_invariants());
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSteps, ChurnProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(60, 200)),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_steps" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace soc::can
