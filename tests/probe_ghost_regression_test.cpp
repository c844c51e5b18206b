// Regression for the probe-walk ghost bug fixed alongside the flat
// RecordStore re-baseline: a directional probe walk that outlives its
// origin's departure must be killed, not allowed to re-materialize a ghost
// NodeState for the departed node (the pre-fix code called
// state(walk->origin) unguarded on every hop to draw from the origin's RNG,
// which silently resurrected protocol state — and the final report then
// passed the contains() guard and stored into the ghost's index table).
//
// The only observable a test needs is IndexSystem::tracks(): accessor
// helpers like cache()/table() materialize state themselves, but tracks()
// is read-only, so a departed node showing tracks() == true can only mean a
// ghost was created.
#include <gtest/gtest.h>

#include <vector>

#include "src/index/inscan.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulator.hpp"

namespace soc::index {
namespace {

struct ProbeHarness {
  ProbeHarness(std::size_t n, std::uint64_t seed)
      : sim(seed), topo(net::TopologyConfig{}, Rng(seed + 1)),
        bus(sim, topo), space(2, Rng(seed + 2)),
        index(sim, bus, space, InscanConfig{}, Rng(seed + 3)) {
    // No availability provider: the only protocol traffic is probe walks
    // (publish_now returns early, diffusion never initiates on empty
    // caches), so the assertions below isolate the walk lifecycle.
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = topo.add_host();
      space.join(id);
      index.add_node(id);
      ids.push_back(id);
    }
  }

  void depart(NodeId id) {
    index.remove_node(id);
    space.leave(id);
  }

  sim::Simulator sim;
  net::Topology topo;
  net::MessageBus bus;
  can::CanSpace space;
  IndexSystem index;
  std::vector<NodeId> ids;
};

TEST(ProbeGhostRegression, WalkPastDepartedOriginIsKilledNotResurrected) {
  ProbeHarness h(48, 311);
  const NodeId origin = h.ids[7];

  // Launch fresh walks in every track direction, then depart the origin
  // while every first-hop probe message is still in flight (deliveries are
  // delayed; nothing has executed yet).
  for (std::size_t d = 0; d < h.space.dims(); ++d) {
    h.index.probe_now(origin, d, can::Direction::kNegative);
    h.index.probe_now(origin, d, can::Direction::kPositive);
  }
  ASSERT_GT(h.bus.in_flight(), 0u);
  h.depart(origin);
  ASSERT_FALSE(h.index.tracks(origin));

  // Let every in-flight walk run to completion (multi-hop walks + the
  // report leg are all well inside this horizon).
  h.sim.run_until(seconds(600));

  EXPECT_FALSE(h.index.tracks(origin))
      << "a probe walk re-materialized ghost NodeState for a departed origin";
  // Survivors keep probing; the system as a whole stays healthy.
  EXPECT_TRUE(h.space.verify_invariants());
  for (const NodeId id : h.ids) {
    if (id == origin) continue;
    EXPECT_TRUE(h.index.tracks(id));
  }
}

TEST(ProbeGhostRegression, ChurnNeverLeavesGhostState) {
  ProbeHarness h(64, 313);
  Rng rng(317);
  h.sim.run_until(seconds(300));

  // Repeatedly depart nodes mid-run — periodic index refreshes keep walks
  // in flight the whole time — and let the rest of the run flush them.
  std::vector<NodeId> departed;
  std::vector<NodeId> alive = h.ids;
  for (int round = 0; round < 20; ++round) {
    const std::size_t i = rng.pick_index(alive.size());
    const NodeId victim = alive[i];
    alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(i));
    departed.push_back(victim);
    h.depart(victim);
    h.sim.run_until(h.sim.now() + seconds(450));
  }
  h.sim.run_until(h.sim.now() + seconds(3600));

  for (const NodeId ghost : departed) {
    EXPECT_FALSE(h.index.tracks(ghost))
        << "ghost NodeState for departed node " << ghost.value;
  }
  for (const NodeId id : alive) {
    EXPECT_TRUE(h.index.tracks(id));
  }
  EXPECT_TRUE(h.space.verify_invariants());
}

}  // namespace
}  // namespace soc::index
