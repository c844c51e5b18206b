// Integration tests of the discovery pipeline in isolation: INSCAN state
// updates, index diffusion, and the Alg. 3–5 query, on a static overlay
// with synthetic availabilities (no PSM, no contention).
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/can/space.hpp"
#include "src/common/protocol_params.hpp"
#include "src/index/inscan.hpp"
#include "src/net/message_bus.hpp"
#include "src/net/topology.hpp"
#include "src/psm/task.hpp"
#include "src/query/query_engine.hpp"
#include "src/sim/simulator.hpp"

namespace soc {
namespace {

using index::DiffusionMethod;

class DiscoveryFixture {
 public:
  DiscoveryFixture(std::size_t n, std::size_t dims, DiffusionMethod method,
                   std::uint64_t seed)
      : sim_(seed), topo_(net::TopologyConfig{}, Rng(seed + 1)),
        bus_(sim_, topo_), space_(dims, Rng(seed + 2)),
        cmax_(ResourceVector::filled(dims, 10.0)), rng_(seed + 3) {
    index::InscanConfig cfg;
    cfg.diffusion = method;
    index_ = std::make_unique<index::IndexSystem>(sim_, bus_, space_, cfg,
                                                  Rng(seed + 4));
    index_->set_availability_provider(
        [this](NodeId id) -> std::optional<index::Record> {
          const auto it = avail_.find(id);
          if (it == avail_.end()) return std::nullopt;
          index::Record r;
          r.provider = id;
          r.availability = it->second;
          r.location = can::Point::normalized(it->second, cmax_);
          r.published_at = sim_.now();
          r.expires_at = sim_.now() + params::kRecordTtl;
          return r;
        });
    engine_ = std::make_unique<query::QueryEngine>(*index_);

    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = topo_.add_host();
      space_.join(id);
      // Synthetic availability: uniform in [0, 10]^dims.
      ResourceVector a(dims);
      for (std::size_t d = 0; d < dims; ++d) a[d] = rng_.uniform(0.0, 10.0);
      avail_[id] = a;
      index_->add_node(id);
      ids_.push_back(id);
    }
  }

  /// Let state updates, probes and diffusion run.
  void warm_up(double sim_seconds = 1500.0) {
    sim_.run_until(sim_.now() + seconds(sim_seconds));
  }

  /// Issue one query and run the sim until it resolves.
  std::vector<Discovered> query_once(const ResourceVector& demand,
                                     std::size_t want = 1) {
    std::vector<Discovered> out;
    bool done = false;
    const NodeId requester = ids_[rng_.pick_index(ids_.size())];
    engine_->submit_k(requester, demand,
                      can::Point::normalized(demand, cmax_), want,
                      [&](std::vector<Discovered> found) {
                        out = std::move(found);
                        done = true;
                      });
    sim_.run_until(sim_.now() + seconds(200));
    EXPECT_TRUE(done) << "query did not resolve in time";
    return out;
  }

  /// Ground truth: number of nodes whose availability dominates demand.
  std::size_t qualified_population(const ResourceVector& demand) const {
    std::size_t n = 0;
    for (const auto& [_, a] : avail_) n += a.dominates(demand);
    return n;
  }

  std::size_t total_cached_records() const {
    std::size_t n = 0;
    for (const NodeId id : ids_) {
      n += index_->cache(id).live_count(sim_.now());
    }
    return n;
  }

  std::size_t total_pi_entries() const {
    std::size_t n = 0;
    for (const NodeId id : ids_) {
      n += index_->pi_list(id).live_count(sim_.now());
    }
    return n;
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::MessageBus bus_;
  can::CanSpace space_;
  ResourceVector cmax_;
  Rng rng_;
  std::unique_ptr<index::IndexSystem> index_;
  std::unique_ptr<query::QueryEngine> engine_;
  std::unordered_map<NodeId, ResourceVector> avail_;
  std::vector<NodeId> ids_;
};

TEST(DiscoveryIntegration, StateUpdatesReachDutyNodes) {
  DiscoveryFixture fx(64, 2, DiffusionMethod::kHopping, 11);
  fx.warm_up(900);
  // Every node publishes within the 400 s cycle; all 64 records should be
  // cached somewhere (minus in-flight ones).
  EXPECT_GE(fx.total_cached_records(), 56u);
  // Records must be stored at the zone owner of their location.
  for (const NodeId id : fx.ids_) {
    for (const auto& r : fx.index_->cache(id).all_live(fx.sim_.now())) {
      EXPECT_TRUE(fx.space_.zone_of(id).contains(r.location))
          << "record misplaced on node " << id.value;
    }
  }
}

TEST(DiscoveryIntegration, DiffusionPopulatesPiLists) {
  DiscoveryFixture fx(64, 2, DiffusionMethod::kHopping, 13);
  fx.warm_up(1500);
  EXPECT_GT(fx.total_pi_entries(), 64u);  // several entries per node on avg
}

TEST(DiscoveryIntegration, EasyDemandIsFound) {
  DiscoveryFixture fx(64, 2, DiffusionMethod::kHopping, 17);
  fx.warm_up(1500);
  const ResourceVector demand{2.0, 2.0};  // ~64% of nodes qualify
  ASSERT_GT(fx.qualified_population(demand), 20u);
  int hits = 0;
  for (int i = 0; i < 20; ++i) {
    const auto found = fx.query_once(demand);
    if (found.empty()) continue;
    ++hits;
    EXPECT_TRUE(found[0].availability.dominates(demand));
  }
  EXPECT_GE(hits, 16) << "resource matching rate too low for easy demands";
}

TEST(DiscoveryIntegration, ScarceDemandStillFindable) {
  DiscoveryFixture fx(128, 2, DiffusionMethod::kHopping, 19);
  fx.warm_up(1500);
  const ResourceVector demand{8.5, 8.5};  // ~2% of nodes qualify
  const std::size_t qualified = fx.qualified_population(demand);
  ASSERT_GE(qualified, 1u);
  int hits = 0;
  for (int i = 0; i < 30; ++i) {
    if (!fx.query_once(demand).empty()) ++hits;
  }
  // Best-fit search should find scarce resources in a solid majority of
  // attempts — this is exactly what PID-CAN is designed for.
  EXPECT_GE(hits, 15);
}

TEST(DiscoveryIntegration, ImpossibleDemandReturnsEmpty) {
  DiscoveryFixture fx(32, 2, DiffusionMethod::kHopping, 23);
  fx.warm_up(1200);
  const ResourceVector demand{11.0, 11.0};  // beyond every availability
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fx.query_once(demand).empty());
  }
}

TEST(DiscoveryIntegration, FirstKReturnsDistinctProviders) {
  DiscoveryFixture fx(96, 2, DiffusionMethod::kHopping, 29);
  fx.warm_up(1500);
  const ResourceVector demand{1.0, 1.0};
  const auto found = fx.query_once(demand, /*want=*/4);
  std::set<std::uint32_t> providers;
  for (const auto& c : found) providers.insert(c.provider.value);
  EXPECT_EQ(providers.size(), found.size()) << "duplicate providers returned";
  EXPECT_GE(found.size(), 2u);
}

TEST(DiscoveryIntegration, SpreadingAlsoWorksButNarrower) {
  DiscoveryFixture hop(64, 2, DiffusionMethod::kHopping, 31);
  DiscoveryFixture spread(64, 2, DiffusionMethod::kSpreading, 31);
  hop.warm_up(1500);
  spread.warm_up(1500);
  // Spreading sends d·L messages per round but relays nothing, so its
  // PILists should not out-populate hopping's.
  EXPECT_GT(spread.total_pi_entries(), 0u);
  EXPECT_GE(hop.total_pi_entries(), spread.total_pi_entries() / 2);
}

TEST(DiscoveryIntegration, FullRangeQueryFindsEntireQualifiedSet) {
  DiscoveryFixture fx(64, 2, DiffusionMethod::kHopping, 37);
  fx.warm_up(900);
  const ResourceVector demand{5.0, 5.0};
  // Collect ground truth from the caches (what is actually discoverable).
  std::size_t cached_qualified = 0;
  for (const NodeId id : fx.ids_) {
    cached_qualified +=
        fx.index_->cache(id).qualified(demand, fx.sim_.now()).size();
  }
  ASSERT_GT(cached_qualified, 0u);

  std::vector<Discovered> out;
  bool done = false;
  fx.engine_->submit_full_range(fx.ids_[0], demand,
                                can::Point::normalized(demand, fx.cmax_),
                                [&](std::vector<Discovered> f) {
                                  out = std::move(f);
                                  done = true;
                                });
  fx.sim_.run_until(fx.sim_.now() + seconds(200));
  ASSERT_TRUE(done);
  // The flood visits every responsible zone: it must find essentially all
  // cached qualified records (records may expire/move mid-flood).
  EXPECT_GE(out.size() + 2, cached_qualified);
  for (const auto& c : out) {
    EXPECT_TRUE(c.availability.dominates(demand));
  }
}

TEST(DiscoveryIntegration, FiveDimensionalSpaceWorks) {
  DiscoveryFixture fx(128, 5, DiffusionMethod::kHopping, 41);
  fx.warm_up(1500);
  const ResourceVector demand{3.0, 3.0, 3.0, 3.0, 3.0};
  ASSERT_GT(fx.qualified_population(demand), 5u);
  int hits = 0;
  for (int i = 0; i < 20; ++i) {
    if (!fx.query_once(demand).empty()) ++hits;
  }
  EXPECT_GE(hits, 12);
}

}  // namespace
}  // namespace soc
