// Tests for the KHDN-CAN baseline: duty placement, K-hop negative record
// spreading, and the sampled K-hop positive query scan.
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/khdn/khdn.hpp"
#include "src/net/topology.hpp"
#include "src/psm/task.hpp"
#include "src/sim/simulator.hpp"

namespace soc::khdn {
namespace {

class KhdnFixture {
 public:
  KhdnFixture(std::size_t n, std::size_t dims, std::uint64_t seed,
              std::size_t k_hops = kHops)
      : sim_(seed), topo_(net::TopologyConfig{}, Rng(seed + 1)),
        bus_(sim_, topo_), space_(dims, Rng(seed + 2)),
        system_(sim_, bus_, space_, k_hops, Rng(seed + 3)), rng_(seed + 4),
        cmax_(ResourceVector::filled(dims, 10.0)) {
    system_.set_availability_provider(
        [this](NodeId id) -> std::optional<index::Record> {
          const auto it = avail_.find(id);
          if (it == avail_.end()) return std::nullopt;
          index::Record r;
          r.provider = id;
          r.availability = it->second;
          r.location = can::Point::normalized(it->second, cmax_);
          return r;
        });
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = topo_.add_host();
      space_.join(id);
      ResourceVector a(dims);
      for (std::size_t d = 0; d < dims; ++d) a[d] = rng_.uniform(0.0, 10.0);
      avail_[id] = a;
      system_.add_node(id);
      ids_.push_back(id);
    }
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::MessageBus bus_;
  can::CanSpace space_;
  KhdnSystem system_;
  Rng rng_;
  ResourceVector cmax_;
  std::unordered_map<NodeId, ResourceVector> avail_;
  std::vector<NodeId> ids_;
};

TEST(Khdn, SpreadingCreatesRecordCopies) {
  KhdnFixture fx(64, 2, 3);
  fx.sim_.run_until(seconds(900));
  // Every node published; with K=2 spreading each record also lands on
  // negative neighbors, so total stored records exceed the population.
  std::size_t total = 0;
  for (const NodeId id : fx.ids_) {
    total += fx.system_.cache(id).live_count(fx.sim_.now());
  }
  EXPECT_GT(total, 64u);
  EXPECT_GT(fx.bus_.stats().sent(net::MsgType::kKhdnSpread), 64u);
}

TEST(Khdn, QueryFindsQualifiedCandidates) {
  KhdnFixture fx(64, 2, 5);
  fx.sim_.run_until(seconds(900));
  const ResourceVector demand{3.0, 3.0};
  int hits = 0;
  for (int i = 0; i < 20; ++i) {
    bool done = false;
    std::vector<Discovered> out;
    fx.system_.query(fx.ids_[fx.rng_.pick_index(fx.ids_.size())], demand,
                     can::Point::normalized(demand, fx.cmax_), 1,
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
  EXPECT_GE(hits, 12);
}

TEST(Khdn, ImpossibleDemandReturnsEmpty) {
  KhdnFixture fx(32, 2, 7);
  fx.sim_.run_until(seconds(600));
  bool done = false;
  std::vector<Discovered> out;
  const ResourceVector demand{11.0, 11.0};
  fx.system_.query(fx.ids_[0], demand,
                   can::Point::normalized(demand, fx.cmax_), 1,
                   [&](std::vector<Discovered> f) {
                     out = std::move(f);
                     done = true;
                   });
  fx.sim_.run_until(fx.sim_.now() + seconds(300));
  EXPECT_TRUE(done);
  EXPECT_TRUE(out.empty());
}

TEST(Khdn, LargerKSpreadsFurther) {
  KhdnFixture a(64, 2, 9, /*k_hops=*/1);
  KhdnFixture b(64, 2, 9, /*k_hops=*/3);
  a.sim_.run_until(seconds(900));
  b.sim_.run_until(seconds(900));
  EXPECT_GT(b.bus_.stats().sent(net::MsgType::kKhdnSpread),
            a.bus_.stats().sent(net::MsgType::kKhdnSpread));
}

TEST(Khdn, RemoveNodeDropsState) {
  KhdnFixture fx(16, 2, 11);
  fx.sim_.run_until(seconds(600));
  fx.system_.remove_node(fx.ids_[3]);
  EXPECT_FALSE(fx.system_.tracks(fx.ids_[3]));
  fx.space_.leave(fx.ids_[3]);
  EXPECT_TRUE(fx.space_.verify_invariants());
}

}  // namespace
}  // namespace soc::khdn
