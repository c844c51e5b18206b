// Determinism regression for the simulator hot path: a full experiment is a
// pure function of its seed.  Two runs with the same config must produce
// bit-identical metric series and traffic counts — the property that makes
// every figure in the reproduction comparable across machines and across
// engine rewrites (this guard was introduced with the indexed-heap event
// queue, whose same-timestamp FIFO tie-break must match the original).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/protocol_params.hpp"
#include "src/core/experiment.hpp"
#include "src/index/inscan.hpp"
#include "src/net/topology.hpp"

namespace soc::core {
namespace {

ExperimentConfig small_config(ProtocolKind protocol, std::uint64_t seed) {
  ExperimentConfig c;
  c.protocol = protocol;
  c.nodes = 64;
  c.duration = seconds(3600);
  c.sample_step = seconds(600);
  c.seed = seed;
  c.churn_dynamic_degree = 0.1;  // exercise cancel paths via churn/timeouts
  return c;
}

void expect_identical(const ExperimentResults& a, const ExperimentResults& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.t_ratio, b.t_ratio);
  EXPECT_EQ(a.f_ratio, b.f_ratio);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.msg_cost_per_node, b.msg_cost_per_node);
  EXPECT_EQ(a.avg_query_delay_s, b.avg_query_delay_s);
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].hour, b.series[i].hour) << "row " << i;
    EXPECT_EQ(a.series[i].generated, b.series[i].generated) << "row " << i;
    EXPECT_EQ(a.series[i].finished, b.series[i].finished) << "row " << i;
    EXPECT_EQ(a.series[i].failed, b.series[i].failed) << "row " << i;
    EXPECT_EQ(a.series[i].t_ratio, b.series[i].t_ratio) << "row " << i;
    EXPECT_EQ(a.series[i].f_ratio, b.series[i].f_ratio) << "row " << i;
    EXPECT_EQ(a.series[i].fairness, b.series[i].fairness) << "row " << i;
  }
  // Per-MsgType traffic counters must match exactly — the breakdown the
  // perf-trajectory JSON records and bench_compare --check-counts gates.
  ASSERT_EQ(a.traffic_by_type.size(), b.traffic_by_type.size());
  for (std::size_t i = 0; i < a.traffic_by_type.size(); ++i) {
    EXPECT_EQ(a.traffic_by_type[i].type, b.traffic_by_type[i].type) << i;
    EXPECT_EQ(a.traffic_by_type[i].sent, b.traffic_by_type[i].sent)
        << a.traffic_by_type[i].type;
    EXPECT_EQ(a.traffic_by_type[i].delivered, b.traffic_by_type[i].delivered)
        << a.traffic_by_type[i].type;
    EXPECT_EQ(a.traffic_by_type[i].lost, b.traffic_by_type[i].lost)
        << a.traffic_by_type[i].type;
  }
}

TEST(Determinism, HidCanSameSeedBitIdentical) {
  const auto a = run_experiment(small_config(ProtocolKind::kHidCan, 7));
  const auto b = run_experiment(small_config(ProtocolKind::kHidCan, 7));
  expect_identical(a, b);
  EXPECT_GT(a.generated, 0u);  // the run did something
}

TEST(Determinism, NewscastSameSeedBitIdentical) {
  const auto a = run_experiment(small_config(ProtocolKind::kNewscast, 7));
  const auto b = run_experiment(small_config(ProtocolKind::kNewscast, 7));
  expect_identical(a, b);
  EXPECT_GT(a.generated, 0u);
}

// Index-layer determinism: drive an IndexSystem directly (publishes, probe
// walks, diffusion) and fingerprint what the unordered_map-era store could
// never pin — the byte sequence of every duty cache's qualified() ordering
// — plus every per-MsgType traffic counter.  Two same-seed runs must agree
// bit for bit, and each qualified() list must come out NodeId-sorted (the
// flat store's intended order).
struct IndexRun {
  std::vector<std::uint8_t> qualified_bytes;
  std::vector<std::uint64_t> traffic;
  bool sorted = true;
};

IndexRun run_index_layer(std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Topology topo(net::TopologyConfig{}, Rng(seed + 1));
  net::MessageBus bus(sim, topo);
  can::CanSpace space(2, Rng(seed + 2));
  index::IndexSystem index(sim, bus, space, index::InscanConfig{},
                           Rng(seed + 3));
  const ResourceVector cmax = ResourceVector::filled(2, 10.0);
  std::unordered_map<NodeId, ResourceVector> avail;
  index.set_availability_provider(
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
  Rng rng(seed + 4);
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < 48; ++i) {
    const NodeId id = topo.add_host();
    space.join(id);
    avail[id] = ResourceVector{rng.uniform(0, 10), rng.uniform(0, 10)};
    index.add_node(id);
    ids.push_back(id);
  }
  sim.run_until(seconds(1800));

  IndexRun out;
  for (const NodeId id : ids) {
    for (int d = 0; d <= 8; d += 4) {
      const ResourceVector demand{static_cast<double>(d),
                                  static_cast<double>(d)};
      const auto q = index.cache(id).qualified(demand, sim.now());
      out.sorted &= std::is_sorted(
          q.begin(), q.end(), [](const index::Record& a,
                                 const index::Record& b) {
            return a.provider < b.provider;
          });
      // Byte-serialize the ordering: node, demand level, then the provider
      // id sequence exactly as the query pipeline would consume it.
      for (const std::uint32_t v : {id.value, static_cast<std::uint32_t>(d)}) {
        for (int s = 0; s < 32; s += 8) {
          out.qualified_bytes.push_back((v >> s) & 0xffu);
        }
      }
      for (const auto& r : q) {
        for (int s = 0; s < 32; s += 8) {
          out.qualified_bytes.push_back((r.provider.value >> s) & 0xffu);
        }
      }
    }
  }
  for (std::size_t t = 0; t < static_cast<std::size_t>(net::MsgType::kCount);
       ++t) {
    const auto type = static_cast<net::MsgType>(t);
    out.traffic.push_back(bus.stats().sent(type));
    out.traffic.push_back(bus.stats().delivered(type));
    out.traffic.push_back(bus.stats().lost(type));
  }
  return out;
}

TEST(Determinism, IndexLayerQualifiedOrderingsByteIdentical) {
  const IndexRun a = run_index_layer(29);
  const IndexRun b = run_index_layer(29);
  EXPECT_TRUE(a.sorted);
  EXPECT_TRUE(b.sorted);
  ASSERT_FALSE(a.qualified_bytes.empty());
  EXPECT_EQ(a.qualified_bytes, b.qualified_bytes);
  EXPECT_EQ(a.traffic, b.traffic);
}

TEST(Determinism, DifferentSeedsDiverge) {
  const auto a = run_experiment(small_config(ProtocolKind::kHidCan, 7));
  const auto b = run_experiment(small_config(ProtocolKind::kHidCan, 8));
  // Bulk counters are the loosest fingerprint; events_executed differing is
  // enough to show the seed actually steers the run.
  EXPECT_NE(a.events_executed, b.events_executed);
}

}  // namespace
}  // namespace soc::core
