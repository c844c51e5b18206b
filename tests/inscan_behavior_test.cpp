// Behavioural tests of the IndexSystem internals: publish/invalidate
// choreography, the Alg. 1 non-empty-cache guard, diffusion accounting,
// and the hopping-vs-spreading message structure.
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/common/protocol_params.hpp"
#include "src/index/inscan.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulator.hpp"

namespace soc::index {
namespace {

struct InscanHarness {
  InscanHarness(std::size_t n, InscanConfig cfg, std::uint64_t seed)
      : sim(seed), topo(net::TopologyConfig{}, Rng(seed + 1)),
        bus(sim, topo), space(2, Rng(seed + 2)),
        index(sim, bus, space, cfg, Rng(seed + 3)),
        cmax(ResourceVector::filled(2, 10.0)), rng(seed + 4) {
    index.set_availability_provider(
        [this](NodeId id) -> std::optional<Record> {
          const auto it = avail.find(id);
          if (it == avail.end()) return std::nullopt;
          Record r;
          r.provider = id;
          r.availability = it->second;
          r.location = can::Point::normalized(it->second, cmax);
          r.published_at = sim.now();
          r.expires_at = sim.now() + params::kRecordTtl;
          return r;
        });
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = topo.add_host();
      space.join(id);
      avail[id] = ResourceVector{rng.uniform(0, 10), rng.uniform(0, 10)};
      index.add_node(id);
      ids.push_back(id);
    }
  }

  NodeId holder_of(NodeId provider) {
    for (const NodeId id : ids) {
      for (const auto& r : index.cache(id).all_live(sim.now())) {
        if (r.provider == provider) return id;
      }
    }
    return NodeId{};
  }

  sim::Simulator sim;
  net::Topology topo;
  net::MessageBus bus;
  can::CanSpace space;
  IndexSystem index;
  ResourceVector cmax;
  Rng rng;
  std::unordered_map<NodeId, ResourceVector> avail;
  std::vector<NodeId> ids;
};

TEST(InscanBehavior, RepublishMovesRecordAndInvalidatesOldCopy) {
  InscanHarness h(48, InscanConfig{}, 71);
  h.sim.run_until(seconds(600));
  const NodeId provider = h.ids[7];
  const NodeId old_holder = h.holder_of(provider);
  ASSERT_TRUE(old_holder.valid());

  // The provider's availability jumps to the opposite corner: the record
  // must move to a new duty node and vanish from the old one.
  h.avail[provider] = ResourceVector{9.5, 9.5};
  const auto inval_before = h.index.activity().invalidations;
  h.index.publish_now(provider);
  h.sim.run_until(h.sim.now() + seconds(120));

  const NodeId new_holder = h.holder_of(provider);
  ASSERT_TRUE(new_holder.valid());
  EXPECT_NE(new_holder, old_holder);
  EXPECT_GT(h.index.activity().invalidations, inval_before);
  // Exactly one live record for the provider remains system-wide.
  std::size_t copies = 0;
  for (const NodeId id : h.ids) {
    for (const auto& r : h.index.cache(id).all_live(h.sim.now())) {
      copies += (r.provider == provider);
    }
  }
  EXPECT_EQ(copies, 1u);
}

TEST(InscanBehavior, NoInvalidationWhenDutyNodeUnchanged) {
  InscanHarness h(32, InscanConfig{}, 73);
  h.sim.run_until(seconds(600));
  const NodeId provider = h.ids[3];
  const auto inval_before = h.index.activity().invalidations;
  // Re-publish the *same* availability: same location, same duty node.
  h.index.publish_now(provider);
  h.sim.run_until(h.sim.now() + seconds(60));
  EXPECT_EQ(h.index.activity().invalidations, inval_before);
}

TEST(InscanBehavior, EmptyCacheNeverInitiatesDiffusion) {
  // No availability provider data → caches stay empty → Alg. 1's guard
  // must suppress every initiation.
  InscanConfig cfg;
  sim::Simulator sim(75);
  net::Topology topo(net::TopologyConfig{}, Rng(76));
  net::MessageBus bus(sim, topo);
  can::CanSpace space(2, Rng(77));
  IndexSystem index(sim, bus, space, cfg, Rng(78));
  for (std::uint32_t i = 0; i < 16; ++i) {
    topo.add_host();
    space.join(NodeId(i));
    index.add_node(NodeId(i));
  }
  sim.run_until(seconds(1200));
  EXPECT_GT(index.activity().diffusion_rounds, 0u);
  EXPECT_EQ(index.activity().diffusion_initiations, 0u);
  EXPECT_EQ(bus.stats().sent(net::MsgType::kIndexDiffuse), 0u);
}

TEST(InscanBehavior, HoppingRelaysMoreWidelyThanStrictSpreading) {
  InscanConfig hop;
  hop.diffusion = DiffusionMethod::kHopping;
  InscanConfig spread;
  spread.diffusion = DiffusionMethod::kSpreading;
  spread.spreading_scope = SpreadingScope::kSenderTracks;
  InscanHarness a(64, hop, 79);
  InscanHarness b(64, spread, 79);
  a.sim.run_until(seconds(1800));
  b.sim.run_until(seconds(1800));
  // Per initiation, hopping cascades across dimensions while the strict
  // spreading reading tops out at d·L receptions.
  const double hop_per_init =
      static_cast<double>(a.index.activity().diffusion_relays) /
      static_cast<double>(std::max<std::uint64_t>(
          a.index.activity().diffusion_initiations, 1));
  const double spread_per_init =
      static_cast<double>(b.index.activity().diffusion_relays) /
      static_cast<double>(std::max<std::uint64_t>(
          b.index.activity().diffusion_initiations, 1));
  EXPECT_GT(hop_per_init, 1.0);
  EXPECT_LE(spread_per_init, 2.0 * 2.0 + 0.5);  // d·L = 4 for d=2, L=2
}

TEST(InscanBehavior, CascadeSpreadingMatchesOmegaBound) {
  InscanConfig cfg;
  cfg.diffusion = DiffusionMethod::kSpreading;
  cfg.spreading_scope = SpreadingScope::kCascade;
  InscanHarness h(64, cfg, 81);
  h.sim.run_until(seconds(1800));
  const auto& act = h.index.activity();
  ASSERT_GT(act.diffusion_initiations, 0u);
  // ω = L(L^d − 1)/(L − 1) = 6 for L = 2, d = 2 — an upper bound since
  // edge nodes truncate branches.
  const double per_init = static_cast<double>(act.diffusion_relays) /
                          static_cast<double>(act.diffusion_initiations);
  EXPECT_LE(per_init, 6.0 + 0.5);
  EXPECT_GT(per_init, 1.0);
}

TEST(InscanBehavior, RemoveNodeSilencesItsPeriodics) {
  InscanHarness h(24, InscanConfig{}, 83);
  h.sim.run_until(seconds(600));
  const NodeId victim = h.ids[5];
  h.index.remove_node(victim);
  h.space.leave(victim);
  h.avail.erase(victim);
  const auto before = h.index.activity().publishes;
  // The victim must publish nothing further; others keep going.
  h.sim.run_until(h.sim.now() + seconds(1200));
  EXPECT_GT(h.index.activity().publishes, before);
  EXPECT_FALSE(h.index.tracks(victim));
  EXPECT_TRUE(h.space.verify_invariants());
}

TEST(InscanBehavior, PublishCountsAndRouteDelivery) {
  InscanHarness h(32, InscanConfig{}, 85);
  h.sim.run_until(seconds(900));
  const auto& act = h.index.activity();
  // Every node publishes at join and then periodically (400 s cycle over
  // 900 s → ≥ 2 periodic rounds for most).
  EXPECT_GE(act.publishes, 32u * 2);
  // All published records land somewhere (allowing a few in flight).
  std::size_t stored = 0;
  for (const NodeId id : h.ids) {
    stored += h.index.cache(id).live_count(h.sim.now());
  }
  EXPECT_GE(stored + 4, 32u);
}

// A departing duty node hands its records to no one (churn is an abrupt
// departure; providers republish every update cycle).  The only records a
// departure moves are the reassigned node's, to the merge survivor, so the
// live records summed over the members drop by exactly the departed
// node's count.
TEST(InscanBehavior, DepartureDropsExactlyTheDepartedNodesRecords) {
  InscanHarness h(64, InscanConfig{}, 87);
  h.sim.run_until(seconds(600));
  const auto live_total = [&h] {
    std::size_t n = 0;
    for (const NodeId id : h.ids) {
      n += h.index.cache(id).live_count(h.sim.now());
    }
    return n;
  };
  for (int round = 0; round < 24; ++round) {
    // The member holding the most live records departs.
    std::size_t pos = 0;
    std::size_t held = 0;
    for (std::size_t i = 0; i < h.ids.size(); ++i) {
      const std::size_t n = h.index.cache(h.ids[i]).live_count(h.sim.now());
      if (n > held) {
        pos = i;
        held = n;
      }
    }
    ASSERT_GT(held, 0u) << "round " << round;
    const NodeId victim = h.ids[pos];
    const std::size_t before = live_total();
    h.index.remove_node(victim);
    h.space.leave(victim);
    h.ids.erase(h.ids.begin() + static_cast<std::ptrdiff_t>(pos));
    EXPECT_EQ(live_total(), before - held) << "round " << round;
  }
  EXPECT_TRUE(h.space.verify_invariants());
}

}  // namespace
}  // namespace soc::index
