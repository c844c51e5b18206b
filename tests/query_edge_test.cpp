// Edge cases of the query pipeline: corner duty nodes, timeouts, mid-query
// churn, concurrent queries, and the virtual-dimension / SoS protocol
// variants end to end.
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/common/protocol_params.hpp"
#include "src/core/pidcan_protocol.hpp"
#include "src/index/inscan.hpp"
#include "src/net/topology.hpp"
#include "src/psm/task.hpp"
#include "src/query/pending.hpp"
#include "src/query/query_engine.hpp"
#include "src/sim/simulator.hpp"

namespace soc {
namespace {

// Minimal harness around IndexSystem + QueryEngine with settable
// availabilities.
struct Harness {
  Harness(std::size_t n, std::size_t dims, std::uint64_t seed)
      : sim(seed), topo(net::TopologyConfig{}, Rng(seed + 1)),
        bus(sim, topo), space(dims, Rng(seed + 2)),
        cmax(ResourceVector::filled(dims, 10.0)),
        index(sim, bus, space, index::InscanConfig{}, Rng(seed + 3)),
        engine(index), rng(seed + 4) {
    index.set_availability_provider(
        [this](NodeId id) -> std::optional<index::Record> {
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
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = topo.add_host();
      space.join(id);
      ResourceVector a(dims);
      for (std::size_t d = 0; d < dims; ++d) a[d] = rng.uniform(0.0, 10.0);
      avail[id] = a;
      index.add_node(id);
      ids.push_back(id);
    }
  }

  sim::Simulator sim;
  net::Topology topo;
  net::MessageBus bus;
  can::CanSpace space;
  ResourceVector cmax;
  index::IndexSystem index;
  query::QueryEngine engine;
  Rng rng;
  std::unordered_map<NodeId, ResourceVector> avail;
  std::vector<NodeId> ids;
};

TEST(QueryEdge, CornerDutyNodeWithNoPositiveNeighbors) {
  Harness h(32, 2, 51);
  h.sim.run_until(seconds(1200));
  // A demand at the very top corner: its duty node owns the corner zone
  // and has no positive neighbors on either axis — the query must still
  // resolve (via the duty node's own cache) rather than hang.
  const ResourceVector demand{9.99, 9.99};
  bool done = false;
  std::vector<Discovered> out;
  h.engine.submit_k(h.ids[0], demand,
                    can::Point::normalized(demand, h.cmax), 1,
                    [&](std::vector<Discovered> f) {
                      out = std::move(f);
                      done = true;
                    });
  h.sim.run_until(h.sim.now() + seconds(200));
  EXPECT_TRUE(done);
  for (const auto& c : out) {
    EXPECT_TRUE(c.availability.dominates(demand));
  }
}

TEST(QueryEdge, CallbackFiresExactlyOnceOnTimeout) {
  Harness h(16, 2, 53);
  // No warm-up: caches are cold, PILists empty — the query either ends
  // early (agents exhausted) or times out; the callback must fire once.
  int calls = 0;
  h.engine.submit_k(h.ids[0], ResourceVector{9.0, 9.0},
                    can::Point{0.9, 0.9}, 1,
                    [&](std::vector<Discovered>) { ++calls; });
  h.sim.run_until(h.sim.now() + seconds(600));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(h.engine.stats().submitted, 1u);
  EXPECT_EQ(h.engine.stats().satisfied + h.engine.stats().partial +
                h.engine.stats().failed,
            1u);
}

TEST(QueryEdge, PendingTableFinishesEachQueryExactlyOnce) {
  sim::Simulator sim(54);
  query::PendingQueries table(sim, seconds(90));
  std::vector<std::size_t> delivered;
  const auto record = [&delivered](std::vector<Discovered> found) {
    delivered.push_back(found.size());
  };
  const ResourceVector demand{1.0, 1.0};
  // Deadline first: the timeout finishes the query with what it has, and
  // a later explicit finish is a no-op.
  const std::uint64_t late = table.begin(NodeId(1), demand, 2, record);
  table.find(late)->add(NodeId(7), demand);
  sim.run_until(seconds(120));
  EXPECT_EQ(table.find(late), nullptr);
  table.finish(late);
  // Explicit finish first: the armed deadline is cancelled, and a second
  // finish is a no-op.  A provider collected twice counts once.
  const std::uint64_t full = table.begin(NodeId(1), demand, 2, record);
  EXPECT_TRUE(table.find(full)->add(NodeId(7), demand));
  EXPECT_FALSE(table.find(full)->add(NodeId(7), demand));
  EXPECT_TRUE(table.find(full)->add(NodeId(8), demand));
  EXPECT_TRUE(table.find(full)->satisfied());
  table.finish(full);
  table.finish(full);
  const std::uint64_t empty = table.begin(NodeId(1), demand, 2, record);
  table.finish(empty);
  sim.run_until(seconds(600));

  EXPECT_EQ(delivered, (std::vector<std::size_t>{1, 2, 0}));
  const query::QueryStats& stats = table.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.satisfied, 1u);
  EXPECT_EQ(stats.partial, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.delay_seconds.count(), 3u);
}

TEST(QueryEdge, ManyConcurrentQueriesAllResolve) {
  Harness h(64, 2, 55);
  h.sim.run_until(seconds(1500));
  int done = 0;
  const int kQueries = 50;
  for (int i = 0; i < kQueries; ++i) {
    const ResourceVector demand{h.rng.uniform(0.0, 9.0),
                                h.rng.uniform(0.0, 9.0)};
    h.engine.submit_k(h.ids[h.rng.pick_index(h.ids.size())], demand,
                      can::Point::normalized(demand, h.cmax), 1,
                      [&](std::vector<Discovered>) { ++done; });
  }
  h.sim.run_until(h.sim.now() + seconds(300));
  EXPECT_EQ(done, kQueries);
}

TEST(QueryEdge, RequesterChurnMidQueryStillTerminates) {
  Harness h(48, 2, 57);
  h.sim.run_until(seconds(1200));
  bool done = false;
  const NodeId requester = h.ids[5];
  h.engine.submit_k(requester, ResourceVector{5.0, 5.0},
                    can::Point{0.5, 0.5}, 1,
                    [&](std::vector<Discovered>) { done = true; });
  // The requester departs immediately; found-notices to it are lost, but
  // the engine-side timeout must still close the query.
  h.index.remove_node(requester);
  h.space.leave(requester);
  h.avail.erase(requester);
  h.sim.run_until(h.sim.now() + seconds(600));
  EXPECT_TRUE(done);
}

TEST(QueryEdge, VisitedNodeCountIsBounded) {
  Harness h(64, 2, 59);
  h.sim.run_until(seconds(1500));
  for (int i = 0; i < 20; ++i) {
    const ResourceVector demand{h.rng.uniform(0.0, 9.0),
                                h.rng.uniform(0.0, 9.0)};
    h.engine.submit_k(h.ids[h.rng.pick_index(h.ids.size())], demand,
                      can::Point::normalized(demand, h.cmax), 1,
                      [](std::vector<Discovered>) {});
  }
  h.sim.run_until(h.sim.now() + seconds(400));
  // Single-message queries touch a handful of nodes, never a flood: the
  // mean must stay far below the population.
  EXPECT_LT(h.engine.stats().visited_nodes.mean(), 40.0);
  EXPECT_GT(h.engine.stats().visited_nodes.mean(), 0.0);
}

TEST(QueryEdge, VirtualDimensionProtocolEndToEnd) {
  sim::Simulator sim(61);
  net::Topology topo(net::TopologyConfig{}, Rng(62));
  net::MessageBus bus(sim, topo);
  core::PidCanOptions opt;
  opt.virtual_dimension = true;
  opt.inscan.diffusion = index::DiffusionMethod::kSpreading;  // paper's VD
  // This test exercises the virtual-dimension mechanics (6-D space, random
  // virtual coordinates), not SID's diffusion weakness — use the cascade
  // scope so index coverage isn't the bottleneck.
  opt.inscan.spreading_scope = index::SpreadingScope::kCascade;
  const ResourceVector cmax{25.6, 80, 10, 240, 4096};
  core::PidCanProtocol proto(sim, bus, cmax, opt, Rng(63));
  EXPECT_EQ(proto.space().dims(), psm::kDims + 1);  // +1 virtual dim

  proto.set_availability_source(
      [](NodeId) -> std::optional<ResourceVector> {
        return ResourceVector{10.0, 40.0, 8.0, 120.0, 2048.0};
      });
  for (std::uint32_t i = 0; i < 48; ++i) {
    topo.add_host();
    proto.on_join(NodeId(i));
  }
  sim.run_until(seconds(1500));

  int done = 0, hits = 0;
  for (int i = 0; i < 10; ++i) {
    proto.query(NodeId(static_cast<std::uint32_t>(i)),
                ResourceVector{5.0, 20.0, 4.0, 60.0, 1024.0}, 1,
                [&](std::vector<Discovered> found) {
                  ++done;
                  hits += !found.empty();
                });
  }
  sim.run_until(sim.now() + seconds(400));
  EXPECT_EQ(done, 10);
  EXPECT_GE(hits, 5);  // homogeneous availabilities: most should match
}

TEST(QueryEdge, SosQueriesStillSatisfyOriginalDemand) {
  sim::Simulator sim(65);
  net::Topology topo(net::TopologyConfig{}, Rng(66));
  net::MessageBus bus(sim, topo);
  core::PidCanOptions opt;
  opt.slack_on_submission = true;
  opt.inscan.diffusion = index::DiffusionMethod::kHopping;
  const ResourceVector cmax{25.6, 80, 10, 240, 4096};
  core::PidCanProtocol proto(sim, bus, cmax, opt, Rng(67));

  Rng arng(68);
  std::unordered_map<std::uint32_t, ResourceVector> avail;
  proto.set_availability_source(
      [&](NodeId id) -> std::optional<ResourceVector> {
        return avail.at(id.value);
      });
  for (std::uint32_t i = 0; i < 64; ++i) {
    topo.add_host();
    avail[i] = ResourceVector{arng.uniform(1, 25.6), arng.uniform(10, 80),
                              arng.uniform(1, 10), arng.uniform(10, 240),
                              arng.uniform(256, 4096)};
    proto.on_join(NodeId(i));
  }
  sim.run_until(seconds(1500));

  const ResourceVector demand{4.0, 15.0, 2.0, 30.0, 512.0};
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    proto.query(NodeId(static_cast<std::uint32_t>(i)), demand, 1,
                [&](std::vector<Discovered> found) {
                  ++done;
                  // Whatever SoS skewed to, returned candidates must still
                  // dominate the *original* expectation.
                  for (const auto& c : found) {
                    EXPECT_TRUE(c.availability.dominates(demand));
                  }
                });
  }
  sim.run_until(sim.now() + seconds(600));
  EXPECT_EQ(done, 10);
}

}  // namespace
}  // namespace soc
