// Churn stress for the cached per-neighbor adjacency metadata.
//
// CanSpace keeps, for every neighbor entry, the abutting dimension and side
// (NeighborLink), maintained *incrementally* on join/leave so routing and
// directional filtering never recompute zone adjacency.  These tests drive
// arbitrary join/leave interleavings and assert after every step that the
// cache matches a from-scratch recomputation from the zones — the oracle
// the incremental maintenance must never drift from — and that the
// allocation-free directional filter agrees with a brute-force partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/can/space.hpp"

namespace soc::can {
namespace {

// Brute-force oracle: recompute every member's links from zones alone.
void expect_cache_matches_recomputation(const CanSpace& space,
                                        const std::vector<NodeId>& members,
                                        int step) {
  ASSERT_TRUE(space.verify_adjacency_cache()) << "step " << step;
  for (const NodeId id : members) {
    const auto& links = space.neighbor_links(id);
    for (std::size_t i = 0; i < links.size(); ++i) {
      const auto adim =
          space.zone_of(id).adjacency_dim(space.zone_of(links[i].id));
      ASSERT_TRUE(adim.has_value()) << "step " << step;
      EXPECT_EQ(static_cast<std::size_t>(links[i].dim), *adim)
          << "step " << step;
      EXPECT_EQ(links[i].positive,
                space.zone_of(id).positive_side(space.zone_of(links[i].id),
                                                *adim))
          << "step " << step;
    }
  }
}

// The directional filter must be exactly the (dim, side) partition of the
// neighbor set, in neighbor order, for every dimension and direction.
void expect_directional_partition(const CanSpace& space,
                                  const std::vector<NodeId>& members,
                                  int step) {
  std::vector<NodeId> scratch;
  for (const NodeId id : members) {
    std::size_t total = 0;
    for (std::size_t d = 0; d < space.dims(); ++d) {
      for (const Direction dir : {Direction::kNegative, Direction::kPositive}) {
        space.directional_neighbors(id, d, dir, scratch);
        total += scratch.size();
        // Brute-force recomputation of the same filter.
        std::vector<NodeId> expected;
        for (const CanSpace::NeighborLink& l : space.neighbor_links(id)) {
          const NodeId n = l.id;
          const auto adim = space.zone_of(id).adjacency_dim(space.zone_of(n));
          if (!adim.has_value() || *adim != d) continue;
          if (space.zone_of(id).positive_side(space.zone_of(n), d) ==
              (dir == Direction::kPositive)) {
            expected.push_back(n);
          }
        }
        EXPECT_EQ(scratch, expected) << "step " << step;
      }
    }
    EXPECT_EQ(total, space.neighbor_links(id).size()) << "step " << step;
  }
}

class AdjacencyCacheChurn
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AdjacencyCacheChurn, CacheMatchesRecomputationUnderChurn) {
  const auto [dims, steps] = GetParam();
  Rng rng(4200 + static_cast<std::uint64_t>(dims * steps));
  CanSpace space(static_cast<std::size_t>(dims), Rng(4242));
  std::vector<NodeId> live;
  std::uint32_t next = 0;
  for (int i = 0; i < 10; ++i) {
    space.join(NodeId(next));
    live.push_back(NodeId(next++));
  }
  for (int step = 0; step < steps; ++step) {
    if (live.size() < 4 || rng.chance(0.5)) {
      space.join(NodeId(next));
      live.push_back(NodeId(next++));
    } else {
      const std::size_t idx = rng.pick_index(live.size());
      space.leave(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    expect_cache_matches_recomputation(space, live, step);
    if (step % 5 == 0) expect_directional_partition(space, live, step);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSteps, AdjacencyCacheChurn,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(80, 160)),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_steps" +
             std::to_string(std::get<1>(info.param));
    });

// The scratch overload performs zero allocations once the buffer has grown
// to the peak directional-neighbor count (the acceptance criterion for the
// hot probe/diffusion/KHDN paths).
TEST(AdjacencyCache, DirectionalScratchReusesCapacity) {
  CanSpace space(3, Rng(7));
  for (std::uint32_t i = 0; i < 128; ++i) space.join(NodeId(i));
  std::vector<NodeId> scratch;
  // Warm the buffer to its peak size.
  std::size_t peak = 0;
  for (std::uint32_t i = 0; i < 128; ++i) {
    for (std::size_t d = 0; d < 3; ++d) {
      for (const Direction dir : {Direction::kNegative, Direction::kPositive}) {
        space.directional_neighbors(NodeId(i), d, dir, scratch);
        peak = std::max(peak, scratch.size());
      }
    }
  }
  const std::size_t cap = scratch.capacity();
  ASSERT_GE(cap, peak);
  // Steady state: capacity never changes again (no reallocation).
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < 128; ++i) {
      for (std::size_t d = 0; d < 3; ++d) {
        for (const Direction dir :
             {Direction::kNegative, Direction::kPositive}) {
          space.directional_neighbors(NodeId(i), d, dir, scratch);
          EXPECT_EQ(scratch.capacity(), cap);
        }
      }
    }
  }
}

}  // namespace
}  // namespace soc::can
