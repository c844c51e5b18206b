// System-level integration tests: the full Experiment driver end-to-end for
// every protocol, determinism, churn survival, and the reproduction's key
// qualitative properties (parameterized over protocols and demand ratios).
#include <gtest/gtest.h>

#include "src/core/experiment.hpp"

namespace soc::core {
namespace {

ExperimentConfig small_config(ProtocolKind kind, double lambda,
                              std::uint64_t seed = 1) {
  ExperimentConfig c;
  c.protocol = kind;
  c.nodes = 96;
  c.demand_ratio = lambda;
  c.duration = seconds(2 * 3600);
  c.sample_step = seconds(3600);
  c.seed = seed;
  return c;
}

TEST(Experiment, RunsEndToEndAndProducesTasks) {
  const auto r = run_experiment(small_config(ProtocolKind::kHidCan, 0.5));
  EXPECT_GT(r.generated, 20u);
  EXPECT_GT(r.finished, 0u);
  EXPECT_GE(r.t_ratio, 0.0);
  EXPECT_LE(r.t_ratio, 1.0);
  EXPECT_GE(r.f_ratio, 0.0);
  EXPECT_LE(r.f_ratio, 1.0);
  EXPECT_GT(r.fairness, 0.0);
  EXPECT_LE(r.fairness, 1.0);
  EXPECT_GT(r.total_messages, 1000u);
  ASSERT_EQ(r.series.size(), 2u);
  EXPECT_EQ(r.protocol, "HID-CAN");
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = run_experiment(small_config(ProtocolKind::kHidCan, 0.5, 7));
  const auto b = run_experiment(small_config(ProtocolKind::kHidCan, 0.5, 7));
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_DOUBLE_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(Experiment, DifferentSeedsDiffer) {
  const auto a = run_experiment(small_config(ProtocolKind::kHidCan, 0.5, 7));
  const auto b = run_experiment(small_config(ProtocolKind::kHidCan, 0.5, 8));
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(Experiment, TaskAccountingIsConsistent) {
  const auto r = run_experiment(small_config(ProtocolKind::kHidCan, 0.5));
  // finished + failed never exceeds generated (the rest are in flight).
  EXPECT_LE(r.finished + r.failed, r.generated);
  EXPECT_NEAR(r.t_ratio, static_cast<double>(r.finished) / r.generated, 1e-9);
  EXPECT_NEAR(r.f_ratio, static_cast<double>(r.failed) / r.generated, 1e-9);
}

TEST(Experiment, ArrivalRateScalesInverselyWithLambda) {
  const auto full = run_experiment(small_config(ProtocolKind::kHidCan, 1.0));
  const auto quarter =
      run_experiment(small_config(ProtocolKind::kHidCan, 0.25));
  // λ=1 draws arrivals 4× as often as λ=0.25 (3000/λ mean inter-arrival).
  EXPECT_GT(full.generated, quarter.generated * 2);
}

// Every protocol must run end-to-end and finish a sensible share of tasks.
class AllProtocols : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(AllProtocols, RunsAndFinishesTasks) {
  auto config = small_config(GetParam(), 0.25, 3);
  const auto r = run_experiment(config);
  EXPECT_GT(r.generated, 10u);
  // λ=0.25 is the easy regime: every protocol should finish a majority.
  EXPECT_GT(r.t_ratio, 0.3) << protocol_name(GetParam());
  EXPECT_EQ(r.protocol, protocol_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllProtocols,
    ::testing::Values(ProtocolKind::kHidCan, ProtocolKind::kSidCan,
                      ProtocolKind::kHidCanSos, ProtocolKind::kSidCanSos,
                      ProtocolKind::kSidCanVd, ProtocolKind::kNewscast,
                      ProtocolKind::kKhdnCan),
    [](const auto& info) {
      std::string n = protocol_name(info.param);
      for (auto& ch : n) {
        if (ch == '-' || ch == '+') ch = '_';
      }
      return n;
    });

// Churn sweeps: the system must stay alive and keep finishing tasks at
// every dynamic degree the paper tests.
class ChurnSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChurnSweep, SurvivesAndFinishesTasks) {
  auto config = small_config(ProtocolKind::kHidCan, 0.5, 5);
  config.churn_dynamic_degree = GetParam();
  Experiment ex(config);
  ex.setup();
  ex.run();
  const auto r = ex.results();
  EXPECT_GT(r.generated, 10u);
  EXPECT_GT(r.finished, 0u);
  // The population stays roughly stable (each departure pairs with a join).
  EXPECT_NEAR(static_cast<double>(ex.alive_nodes()), 96.0, 96.0 * 0.25);
}

INSTANTIATE_TEST_SUITE_P(Degrees, ChurnSweep,
                         ::testing::Values(0.25, 0.5, 0.75, 0.95),
                         [](const auto& info) {
                           return "deg" + std::to_string(static_cast<int>(
                                              info.param * 100));
                         });

TEST(Experiment, HigherLambdaIsHarder) {
  const auto easy = run_experiment(small_config(ProtocolKind::kHidCan, 0.25));
  const auto hard = run_experiment(small_config(ProtocolKind::kHidCan, 1.0));
  EXPECT_GT(easy.t_ratio, hard.t_ratio);
  EXPECT_LT(easy.f_ratio, hard.f_ratio);
}

TEST(Experiment, DiagnosticsClassifyFailures) {
  auto config = small_config(ProtocolKind::kHidCan, 1.0);
  config.diagnose_failures = true;
  const auto r = run_experiment(config);
  // Every failure falls in exactly one feasibility bucket.
  EXPECT_EQ(r.fail_infeasible + r.fail_feasible, r.failed);
  EXPECT_LE(r.fail_undiscoverable, r.fail_feasible);
}

TEST(Experiment, SubmitTaskManually) {
  const auto config = small_config(ProtocolKind::kHidCan, 0.25);
  Experiment ex(config);
  ex.setup();
  ex.simulator().run_until(seconds(1800));  // warm up indexes
  // Each manual submission is one generated task, on top of the Poisson
  // arrivals so far.
  const std::uint64_t before = ex.task_metrics().generated();
  for (int i = 0; i < 10; ++i) ex.submit_task(NodeId(0));
  EXPECT_EQ(ex.task_metrics().generated(), before + 10);
  ex.run();
  const auto r = ex.results();
  EXPECT_GE(r.generated, before + 10);
  EXPECT_GT(r.finished, 5u);
}

TEST(Experiment, MessageCostGrowsSubLinearlyWithScale) {
  auto small = small_config(ProtocolKind::kHidCan, 0.5, 9);
  small.nodes = 64;
  auto big = small_config(ProtocolKind::kHidCan, 0.5, 9);
  big.nodes = 256;
  const auto rs = run_experiment(small);
  const auto rb = run_experiment(big);
  // 4× the nodes must cost far less than 4× the per-node messages
  // (Table III: roughly logarithmic growth).
  EXPECT_LT(rb.msg_cost_per_node, rs.msg_cost_per_node * 2.5);
}

}  // namespace
}  // namespace soc::core
