// Tests for the Newscast gossip baseline.
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/gossip/newscast.hpp"
#include "src/net/topology.hpp"
#include "src/psm/task.hpp"
#include "src/sim/simulator.hpp"

namespace soc::gossip {
namespace {

class GossipFixture {
 public:
  GossipFixture(std::size_t n, std::uint64_t seed, std::size_t view_size = 11)
      : sim_(seed), topo_(net::TopologyConfig{}, Rng(seed + 1)),
        bus_(sim_, topo_), system_(sim_, bus_, view_size, Rng(seed + 2)),
        rng_(seed + 3) {
    system_.set_availability_provider(
        [this](NodeId id) -> std::optional<ResourceVector> {
          const auto it = avail_.find(id);
          if (it == avail_.end()) return std::nullopt;
          return it->second;
        });
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = topo_.add_host();
      ResourceVector a(psm::kDims);
      for (std::size_t d = 0; d < psm::kDims; ++d) {
        a[d] = rng_.uniform(0.0, 10.0);
      }
      avail_[id] = a;
      std::vector<NodeId> bootstrap;
      for (std::size_t b = 0; b < 4 && b < members.size(); ++b) {
        bootstrap.push_back(members[rng_.pick_index(members.size())]);
      }
      system_.add_node(id, bootstrap);
      members.push_back(id);
      ids_.push_back(id);
    }
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::MessageBus bus_;
  NewscastSystem system_;
  Rng rng_;
  std::unordered_map<NodeId, ResourceVector> avail_;
  std::vector<NodeId> ids_;
};

TEST(Newscast, ViewsFillUpToBound) {
  GossipFixture fx(64, 5, /*view_size=*/8);
  fx.sim_.run_until(seconds(1200));
  std::size_t total = 0;
  for (const NodeId id : fx.ids_) {
    const auto& view = fx.system_.view_of(id);
    EXPECT_LE(view.size(), 8u);
    total += view.size();
  }
  // After many exchange rounds, views should be essentially full.
  EXPECT_GT(total, 64u * 6);
}

TEST(Newscast, ViewEntriesCarryFreshAvailability) {
  GossipFixture fx(32, 7);
  fx.sim_.run_until(seconds(900));
  std::size_t with_data = 0;
  for (const NodeId id : fx.ids_) {
    for (const auto& e : fx.system_.view_of(id)) {
      ASSERT_TRUE(fx.avail_.contains(e.id));
      if (e.availability.sum() > 0) {
        ++with_data;
        EXPECT_EQ(e.availability, fx.avail_.at(e.id));
      }
    }
  }
  EXPECT_GT(with_data, 32u);
}

TEST(Newscast, QueryFindsQualifiedEntry) {
  GossipFixture fx(64, 9);
  fx.sim_.run_until(seconds(1200));
  const ResourceVector demand = ResourceVector::filled(psm::kDims, 2.0);
  int hits = 0;
  for (int i = 0; i < 20; ++i) {
    bool done = false;
    std::vector<Discovered> out;
    fx.system_.query(fx.ids_[fx.rng_.pick_index(fx.ids_.size())], demand, 1,
                     [&](std::vector<Discovered> f) {
                       out = std::move(f);
                       done = true;
                     });
    fx.sim_.run_until(fx.sim_.now() + seconds(200));
    EXPECT_TRUE(done);
    if (!out.empty()) {
      ++hits;
      EXPECT_TRUE(out[0].availability.dominates(demand));
    }
  }
  EXPECT_GE(hits, 15);
}

TEST(Newscast, ImpossibleDemandFails) {
  GossipFixture fx(32, 11);
  fx.sim_.run_until(seconds(900));
  bool done = false;
  std::vector<Discovered> out;
  fx.system_.query(fx.ids_[0], ResourceVector::filled(psm::kDims, 99.0), 1,
                   [&](std::vector<Discovered> f) {
                     out = std::move(f);
                     done = true;
                   });
  fx.sim_.run_until(fx.sim_.now() + seconds(300));
  EXPECT_TRUE(done);
  EXPECT_TRUE(out.empty());
  EXPECT_GE(fx.system_.stats().failed, 1u);
}

TEST(Newscast, RemovedNodeStopsGossiping) {
  GossipFixture fx(16, 13);
  fx.sim_.run_until(seconds(600));
  fx.system_.remove_node(fx.ids_[0]);
  EXPECT_FALSE(fx.system_.tracks(fx.ids_[0]));
  // Simulation continues without touching the removed node's state.
  fx.sim_.run_until(fx.sim_.now() + seconds(600));
  EXPECT_TRUE(fx.system_.tracks(fx.ids_[1]));
}

}  // namespace
}  // namespace soc::gossip
