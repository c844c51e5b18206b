// Property tests on routing: bus-driven greedy routing always reaches the
// owner of the target point, across dimensions and scales; INSCAN's
// long-link routing never does worse than plain CAN on hop count; records
// always sit at the owner of their location after arbitrary churn.
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/can/router.hpp"
#include "src/common/protocol_params.hpp"
#include "src/index/inscan.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulator.hpp"

namespace soc {
namespace {

class RoutingProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RoutingProperty, BusRoutingArrivesAtOwner) {
  const auto [dims, n] = GetParam();
  sim::Simulator sim(static_cast<std::uint64_t>(dims * 1000 + n));
  net::Topology topo(net::TopologyConfig{}, Rng(1));
  net::MessageBus bus(sim, topo);
  can::CanSpace space(static_cast<std::size_t>(dims), Rng(2));
  Rng rng(3);
  std::vector<NodeId> ids;
  for (int i = 0; i < n; ++i) {
    const NodeId id = topo.add_host();
    space.join(id);
    ids.push_back(id);
  }
  const can::GreedyRouter<> router(space, bus);
  for (int trial = 0; trial < 40; ++trial) {
    can::Point target(static_cast<std::size_t>(dims));
    for (int d = 0; d < dims; ++d) {
      target[static_cast<std::size_t>(d)] = rng.uniform();
    }
    const NodeId from = ids[rng.pick_index(ids.size())];
    NodeId arrived;
    router.route(from, target, net::MsgType::kDutyQuery, 64, 256,
                 [&](NodeId duty) { arrived = duty; });
    sim.run_until(sim.now() + seconds(120));
    ASSERT_TRUE(arrived.valid()) << "route lost";
    EXPECT_EQ(arrived, space.owner_of(target));
    EXPECT_TRUE(space.zone_of(arrived).contains(target));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndScale, RoutingProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(16, 128)),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(RoutingProperty, BoundaryTargetsRouteCleanly) {
  // Points exactly on split boundaries (dyadic rationals) used to stall
  // greedy routing; they must resolve to exactly one owner.
  sim::Simulator sim(7);
  net::Topology topo(net::TopologyConfig{}, Rng(8));
  net::MessageBus bus(sim, topo);
  can::CanSpace space(2, Rng(9));
  for (std::uint32_t i = 0; i < 64; ++i) {
    topo.add_host();
    space.join(NodeId(i));
  }
  const can::GreedyRouter<> router(space, bus);
  for (const double x : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    for (const double y : {0.0, 0.5, 1.0}) {
      const can::Point target{x, y};
      NodeId arrived;
      router.route(NodeId(0), target, net::MsgType::kDutyQuery, 64, 256,
                   [&](NodeId duty) { arrived = duty; });
      sim.run_until(sim.now() + seconds(120));
      ASSERT_TRUE(arrived.valid()) << "stalled at (" << x << "," << y << ")";
      EXPECT_EQ(arrived, space.owner_of(target));
    }
  }
}

TEST(RoutingProperty, LongLinkRoutingBeatsPlainCanOnAverage) {
  // INSCAN long links (2^k fingers) should cut hop counts versus plain
  // neighbor-greedy routing at scale.
  sim::Simulator sim(11);
  net::Topology topo(net::TopologyConfig{}, Rng(12));
  net::MessageBus bus(sim, topo);
  can::CanSpace space(2, Rng(13));
  index::InscanConfig cfg;
  index::IndexSystem idx(sim, bus, space, cfg, Rng(14));
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < 256; ++i) {
    const NodeId id = topo.add_host();
    space.join(id);
    idx.add_node(id);
    ids.push_back(id);
  }
  sim.run_until(seconds(1200));  // probes fill the finger tables

  Rng rng(15);
  double plain_hops = 0, finger_msgs = 0;
  const int trials = 60;
  for (int i = 0; i < trials; ++i) {
    const can::Point target{rng.uniform(), rng.uniform()};
    const NodeId from = ids[rng.pick_index(ids.size())];
    plain_hops += static_cast<double>(space.route(from, target).size());

    const std::uint64_t before = bus.stats().sent(net::MsgType::kDutyQuery);
    bool arrived = false;
    idx.route(from, target, net::MsgType::kDutyQuery, 64,
              [&](NodeId) { arrived = true; });
    sim.run_until(sim.now() + seconds(120));
    EXPECT_TRUE(arrived);
    finger_msgs += static_cast<double>(
        bus.stats().sent(net::MsgType::kDutyQuery) - before);
  }
  EXPECT_LT(finger_msgs / trials, plain_hops / trials + 0.5)
      << "long links should not lengthen routes";
}

TEST(RoutingProperty, RecordsSitAtOwnersAfterChurn) {
  sim::Simulator sim(17);
  net::Topology topo(net::TopologyConfig{}, Rng(18));
  net::MessageBus bus(sim, topo);
  can::CanSpace space(2, Rng(19));
  index::IndexSystem idx(sim, bus, space, index::InscanConfig{}, Rng(20));
  const ResourceVector cmax = ResourceVector::filled(2, 10.0);
  std::unordered_map<NodeId, ResourceVector> avail;
  idx.set_availability_provider(
      [&](NodeId id) -> std::optional<index::Record> {
        const auto it = avail.find(id);
        if (it == avail.end()) return std::nullopt;
        index::Record r;
        r.provider = id;
        r.availability = it->second;
        r.location = can::Point::normalized(it->second, cmax);
        r.published_at = sim.now();
        r.expires_at = sim.now() + params::kRecordTtl;
        return r;
      });
  Rng rng(21);
  std::vector<NodeId> live;
  std::uint32_t next = 0;
  auto join_one = [&] {
    const NodeId id = topo.add_host();
    SOC_CHECK(id.value == next);
    ++next;
    space.join(id);
    avail[id] = ResourceVector{rng.uniform(0, 10), rng.uniform(0, 10)};
    idx.add_node(id);
    live.push_back(id);
  };
  for (int i = 0; i < 48; ++i) join_one();
  sim.run_until(seconds(900));

  // Churn: interleave joins and leaves with running time.
  for (int step = 0; step < 30; ++step) {
    if (live.size() < 16 || rng.chance(0.5)) {
      join_one();
    } else {
      const std::size_t idx_victim = rng.pick_index(live.size());
      const NodeId victim = live[idx_victim];
      idx.remove_node(victim);
      space.leave(victim);
      avail.erase(victim);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx_victim));
    }
    sim.run_until(sim.now() + seconds(60));
  }
  ASSERT_TRUE(space.verify_invariants());

  // Every live cached record must be stored at the current owner of its
  // location (re-homing on splits/merges keeps this true at all times).
  for (const NodeId id : live) {
    for (const auto& r : idx.cache(id).all_live(sim.now())) {
      EXPECT_TRUE(space.zone_of(id).contains(r.location))
          << "record for provider " << r.provider.value
          << " misplaced on node " << id.value;
    }
  }
}

}  // namespace
}  // namespace soc
