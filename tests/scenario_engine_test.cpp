// Unit coverage for the scenario layer: spec opt-in semantics, randomized
// spec determinism, capacity skew wiring through the workload generator,
// the engine's population effects (bursts, mass failures, phased churn,
// partitions) — each checked against the global invariant set after the
// run — and the protocols' periodic processes across a short partition.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/experiment.hpp"
#include "src/core/khdn_protocol.hpp"
#include "src/core/newscast_protocol.hpp"
#include "src/core/pidcan_protocol.hpp"
#include "src/scenario/engine.hpp"
#include "src/scenario/invariants.hpp"
#include "src/scenario/spec.hpp"
#include "src/workload/generator.hpp"

namespace soc {
namespace {

core::ExperimentConfig base_config() {
  core::ExperimentConfig c;
  c.protocol = core::ProtocolKind::kHidCan;
  c.nodes = 32;
  c.duration = seconds(1800);
  c.sample_step = seconds(600);
  c.seed = 11;
  return c;
}

void expect_invariants_hold(core::Experiment& ex) {
  Rng rng(404);
  const scenario::InvariantReport report =
      scenario::check_invariants(ex, rng);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ScenarioSpec, DefaultIsDisabled) {
  EXPECT_FALSE(core::ExperimentConfig{}.scenario.enabled());
  EXPECT_FALSE(scenario::ScenarioSpec{}.enabled());
  EXPECT_EQ(scenario::ScenarioSpec{}.describe(), "scenario{off}");
}

TEST(ScenarioSpec, RandomSpecIsDeterministicInSeed) {
  Rng a(77);
  Rng b(77);
  for (int i = 0; i < 20; ++i) {
    const auto sa = scenario::random_spec(a, seconds(2000));
    const auto sb = scenario::random_spec(b, seconds(2000));
    EXPECT_EQ(sa.describe(), sb.describe()) << "draw " << i;
  }
}

TEST(ScenarioSpec, ChurnDegreeFollowsPhases) {
  scenario::ScenarioSpec spec;
  spec.phases.push_back({seconds(0), 0.5});
  spec.phases.push_back({seconds(100), 0.0});
  spec.phases.push_back({seconds(200), 1.0});
  EXPECT_DOUBLE_EQ(spec.churn_degree_at(seconds(50)), 0.5);
  EXPECT_DOUBLE_EQ(spec.churn_degree_at(seconds(150)), 0.0);
  EXPECT_DOUBLE_EQ(spec.churn_degree_at(seconds(250)), 1.0);
}

TEST(CapacitySkew, ScalesGeneratedVectorsWithoutPerturbingBaseDraws) {
  workload::CapacitySkew skew;
  skew.weak_fraction = 1.0;  // every draw lands in the weak band
  skew.weak_scale = 0.5;
  ASSERT_TRUE(skew.enabled());
  ASSERT_FALSE(workload::CapacitySkew{}.enabled());

  // For one vector from the same seed, the base table picks are
  // byte-identical and only the final scale differs — the skew roll comes
  // after all base draws.  (The roll does advance the stream, so each
  // comparison starts from a fresh seed.)
  const workload::NodeGenerator plain;
  const workload::NodeGenerator weak(skew);
  for (int i = 0; i < 50; ++i) {
    Rng rng_a(static_cast<std::uint64_t>(i) + 5);
    Rng rng_b(static_cast<std::uint64_t>(i) + 5);
    const ResourceVector p = plain.generate(rng_a);
    const ResourceVector w = weak.generate(rng_b);
    for (std::size_t k = 0; k < p.size(); ++k) {
      EXPECT_DOUBLE_EQ(w[k], 0.5 * p[k]) << "dim " << k << " draw " << i;
    }
  }
}

TEST(ScenarioEngine, JoinBurstGrowsThePopulation) {
  core::ExperimentConfig cfg = base_config();
  scenario::JoinBurst burst;
  burst.at = seconds(600);
  burst.joins = 12;
  burst.spread = seconds(60);
  cfg.scenario.bursts.push_back(burst);

  core::Experiment ex(cfg);
  ex.setup();
  ex.run();
  ASSERT_NE(ex.scenario_engine(), nullptr);
  EXPECT_EQ(ex.scenario_engine()->counters().burst_joins, 12u);
  EXPECT_EQ(ex.alive_nodes(), cfg.nodes + 12);
  expect_invariants_hold(ex);
}

TEST(ScenarioEngine, MassFailureShrinksThePopulation) {
  for (const bool spatial : {false, true}) {
    core::ExperimentConfig cfg = base_config();
    scenario::MassFailure fail;
    fail.at = seconds(900);
    fail.fraction = 0.5;
    fail.spatial = spatial;
    cfg.scenario.failures.push_back(fail);

    core::Experiment ex(cfg);
    ex.setup();
    ex.run();
    ASSERT_NE(ex.scenario_engine(), nullptr);
    EXPECT_EQ(ex.scenario_engine()->counters().failure_kills, cfg.nodes / 2)
        << (spatial ? "spatial" : "cohort");
    EXPECT_EQ(ex.alive_nodes(), cfg.nodes - cfg.nodes / 2);
    expect_invariants_hold(ex);
  }
}

TEST(ScenarioEngine, PhasedChurnRunsOnlyInChurningPhases) {
  core::ExperimentConfig cfg = base_config();
  // Churn hard for the first half, then go calm.
  cfg.scenario.phases.push_back({seconds(0), 1.0});
  cfg.scenario.phases.push_back({cfg.duration / 2, 0.0});

  core::Experiment ex(cfg);
  ex.setup();
  ex.run();
  ASSERT_NE(ex.scenario_engine(), nullptr);
  // dd=1.0 over half the run at one churn window per 3000 s ≈ ~9–10
  // depart+join pairs in expectation; just require the chain clearly ran.
  EXPECT_GT(ex.scenario_engine()->counters().churn_events, 2u);
  // Departures are matched by joins, so the population is stable.
  EXPECT_EQ(ex.alive_nodes(), cfg.nodes);
  expect_invariants_hold(ex);
}

TEST(ScenarioEngine, PartitionThenHealRestoresMembership) {
  core::ExperimentConfig cfg = base_config();
  cfg.nodes = 120;  // three 50-host LANs, so a LAN-boundary cut exists
  scenario::Partition part;
  part.at = seconds(600);
  part.fraction = 0.3;
  part.duration = seconds(300);
  cfg.scenario.partitions.push_back(part);

  core::Experiment ex(cfg);
  ex.setup();

  // Mid-partition: the cut is active, every victim is parked by the
  // protocol, and the victims' records elsewhere show up as
  // dead-provider stale debt.
  ex.simulator().run_until(seconds(750));
  ASSERT_TRUE(ex.partition_active());
  const std::vector<NodeId> victims = ex.partitioned_ids();
  ASSERT_FALSE(victims.empty());
  for (const NodeId id : victims) EXPECT_TRUE(ex.is_partitioned(id));
  EXPECT_EQ(ex.protocol().parked_ids(), victims);
  expect_invariants_hold(ex);
  const core::ExperimentResults mid = ex.results();
  EXPECT_GT(mid.stale_records_dead_provider, 0u);

  // After the heal: victims rejoined, nothing stays parked, traffic
  // crosses the old cut again, and the invariant set still holds.
  ex.run();
  ASSERT_NE(ex.scenario_engine(), nullptr);
  EXPECT_EQ(ex.scenario_engine()->counters().partitions_started, 1u);
  EXPECT_EQ(ex.scenario_engine()->counters().heals, 1u);
  EXPECT_EQ(ex.scenario_engine()->counters().partition_detached,
            victims.size());
  EXPECT_FALSE(ex.partition_active());
  EXPECT_TRUE(ex.partitioned_ids().empty());
  EXPECT_TRUE(ex.protocol().parked_ids().empty());
  expect_invariants_hold(ex);
}

TEST(ScenarioEngine, PartitionRunsAreDeterministicAcrossProtocols) {
  for (const core::ProtocolKind proto :
       {core::ProtocolKind::kHidCan, core::ProtocolKind::kKhdnCan,
        core::ProtocolKind::kNewscast}) {
    core::ExperimentConfig cfg = base_config();
    cfg.protocol = proto;
    cfg.nodes = 120;  // three 50-host LANs
    cfg.scenario.partitions.push_back({seconds(500), 0.3, seconds(400)});

    const core::ExperimentResults a = core::run_experiment(cfg);
    const core::ExperimentResults b = core::run_experiment(cfg);
    EXPECT_EQ(a.messages_partitioned, b.messages_partitioned);
    EXPECT_EQ(a.total_messages, b.total_messages);
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.stale_records_dead_provider, b.stale_records_dead_provider);
    EXPECT_EQ(a.stale_records_misplaced, b.stale_records_misplaced);
  }
}

TEST(ScenarioEngine, ScenarioRunsAreDeterministic) {
  core::ExperimentConfig cfg = base_config();
  cfg.scenario.phases.push_back({seconds(0), 0.8});
  cfg.scenario.bursts.push_back({seconds(300), 8, seconds(120)});
  cfg.scenario.failures.push_back({seconds(1200), 0.3, true});
  cfg.scenario.skew.weak_fraction = 0.3;
  cfg.scenario.skew.weak_scale = 0.6;

  const core::ExperimentResults a = core::run_experiment(cfg);
  const core::ExperimentResults b = core::run_experiment(cfg);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

// A partition shorter than one period: the rejoined node's pre-cut
// periodic series finds it present again and must retire, leaving one
// series per process.  Availability reads count a node's publications
// (PID-CAN, KHDN-CAN) or the gossip exchanges it takes part in (Newscast,
// whose 60 s period needs a shorter cut).
TEST(PartitionRejoin, ShortCutLeavesOneSeriesPerPeriodicProcess) {
  constexpr std::uint32_t kNodes = 16;
  constexpr NodeId kCut{3};
  struct Case {
    core::ProtocolKind kind;
    SimTime cut;
  };
  for (const Case c : {Case{core::ProtocolKind::kHidCan, seconds(50)},
                       Case{core::ProtocolKind::kKhdnCan, seconds(50)},
                       Case{core::ProtocolKind::kNewscast, seconds(2)}}) {
    sim::Simulator sim(1);
    net::Topology topo(net::TopologyConfig{}, Rng(2));
    net::MessageBus bus(sim, topo);
    const ResourceVector cmax = workload::NodeGenerator().cmax();
    std::unique_ptr<core::DiscoveryProtocol> proto;
    if (c.kind == core::ProtocolKind::kHidCan) {
      proto = std::make_unique<core::PidCanProtocol>(
          sim, bus, cmax, core::PidCanOptions{}, Rng(3));
    } else if (c.kind == core::ProtocolKind::kKhdnCan) {
      proto = std::make_unique<core::KhdnProtocol>(sim, bus, cmax, Rng(3));
    } else {
      proto = std::make_unique<core::NewscastProtocol>(
          sim, bus, /*view_size=*/4, Rng(3));
    }
    std::vector<double> reads(kNodes, 0.0);
    bool counting = false;
    proto->set_availability_source(
        [&](NodeId id) -> std::optional<ResourceVector> {
          if (counting) ++reads[id.value];
          return cmax * 0.5;
        });
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      proto->on_join(topo.add_host());
    }
    sim.run_until(seconds(2000));
    proto->on_partition_out(kCut);
    sim.run_until(seconds(2000) + c.cut);
    proto->on_rejoin(kCut);
    counting = true;
    sim.run_until(sim.now() + seconds(8000));

    double others = 0.0;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      if (NodeId(i) != kCut) others += reads[i];
    }
    others /= kNodes - 1;
    EXPECT_NEAR(reads[kCut.value], others, 0.15 * others)
        << core::protocol_name(c.kind) << ": reads of the rejoined node vs "
        << "the others' mean";
  }
}

}  // namespace
}  // namespace soc
