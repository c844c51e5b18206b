// Tests for the checkpoint-restart fault-tolerance extension (the paper's
// §VI future work): the CheckpointStore unit behaviour, scheduler progress
// snapshots, and the end-to-end churn policies.
#include <gtest/gtest.h>

#include "src/core/experiment.hpp"
#include "src/psm/checkpoint.hpp"

namespace soc {
namespace {

TEST(CheckpointStore, RecordLookupErase) {
  psm::CheckpointStore store;
  const TaskId id{NodeId(1), 7};
  EXPECT_FALSE(store.lookup(id).has_value());
  store.record(id, {100.0, 50.0, 10.0});
  const auto cp = store.lookup(id);
  ASSERT_TRUE(cp.has_value());
  EXPECT_DOUBLE_EQ(cp->remaining[0], 100.0);
  store.erase(id);
  EXPECT_FALSE(store.lookup(id).has_value());
}

TEST(CheckpointStore, RestartCountSurvivesNewSnapshots) {
  psm::CheckpointStore store;
  const TaskId id{NodeId(2), 1};
  EXPECT_EQ(store.note_restart(id), 1u);
  EXPECT_EQ(store.note_restart(id), 2u);
  store.record(id, {10.0, 0.0, 0.0});
  EXPECT_EQ(store.lookup(id)->restarts, 2u);
}

TEST(CheckpointStore, LostWorkIsProgressSinceSnapshot) {
  psm::CheckpointStore store;
  const TaskId id{NodeId(3), 1};
  store.record(id, {100.0, 60.0, 0.0});
  // Task progressed to {40, 30, 0} before dying: 60 + 30 lost.
  EXPECT_DOUBLE_EQ(store.lost_work(id, {40.0, 30.0, 0.0}), 90.0);
  // Unknown task: conservative zero.
  EXPECT_DOUBLE_EQ(store.lost_work(TaskId{NodeId(9), 9}, {1.0, 1.0, 1.0}),
                   0.0);
}

TEST(PsmScheduler, RemainingOfIntegratesProgress) {
  sim::Simulator sim;
  psm::VmOverhead none;
  none.cpu_fraction = none.io_fraction = none.net_fraction = 0.0;
  none.memory_mb = 0.0;
  psm::PsmScheduler sched(sim, ResourceVector{10, 10, 10, 10, 1000}, none);
  psm::TaskSpec t;
  t.id = TaskId{NodeId(0), 1};
  t.expectation = ResourceVector{2, 1, 1, 1, 100};
  t.workload = {1000, 0, 0};
  ASSERT_TRUE(sched.admit(t));
  sim.run_until(seconds(10));  // sole task: CPU rate 10 → 100 done
  const auto rem = sched.remaining_of(t.id);
  ASSERT_TRUE(rem.has_value());
  EXPECT_NEAR((*rem)[0], 900.0, 1.0);
  EXPECT_FALSE(sched.remaining_of(TaskId{NodeId(0), 99}).has_value());
}

TEST(PsmScheduler, AbortAllWithProgressReportsRemaining) {
  sim::Simulator sim;
  psm::PsmScheduler sched(sim, ResourceVector{10, 10, 10, 10, 1000});
  for (std::uint32_t i = 0; i < 2; ++i) {
    psm::TaskSpec t;
    t.id = TaskId{NodeId(0), i};
    t.expectation = ResourceVector{2, 1, 1, 1, 100};
    t.workload = {500, 0, 0};
    ASSERT_TRUE(sched.admit(t));
  }
  sim.run_until(seconds(20));
  const auto progress = sched.abort_all_with_progress();
  ASSERT_EQ(progress.size(), 2u);
  for (const auto& p : progress) {
    EXPECT_LT(p.remaining[0], 500.0);  // some work got done
    EXPECT_GT(p.remaining[0], 0.0);
  }
  EXPECT_EQ(sched.running_count(), 0u);
}

core::ExperimentConfig churn_config(core::ChurnTaskPolicy policy,
                                    std::uint64_t seed = 21) {
  core::ExperimentConfig c;
  c.protocol = core::ProtocolKind::kHidCan;
  c.nodes = 96;
  c.demand_ratio = 0.5;
  c.duration = seconds(3 * 3600);
  c.churn_dynamic_degree = 0.75;
  c.churn_task_policy = policy;
  c.seed = seed;
  return c;
}

TEST(ChurnPolicy, TasksLostKillsRunningTasks) {
  const auto r =
      core::run_experiment(churn_config(core::ChurnTaskPolicy::kTasksLost));
  EXPECT_GT(r.tasks_killed_by_churn, 0u);
  EXPECT_EQ(r.checkpoint_restarts, 0u);
  EXPECT_GT(r.wasted_work_rate_seconds, 0.0);
}

TEST(ChurnPolicy, CheckpointRestartRecoversTasks) {
  const auto lost =
      core::run_experiment(churn_config(core::ChurnTaskPolicy::kTasksLost));
  const auto ckpt = core::run_experiment(
      churn_config(core::ChurnTaskPolicy::kCheckpointRestart));
  EXPECT_GT(ckpt.checkpoint_snapshots, 0u);
  EXPECT_GT(ckpt.checkpoint_restarts, 0u);
  // Restarting from checkpoints must beat losing tasks outright.
  EXPECT_GT(ckpt.t_ratio, lost.t_ratio);
  EXPECT_LT(ckpt.f_ratio, lost.f_ratio);
}

TEST(ChurnPolicy, DetachedExecutionKillsNothing) {
  const auto r = core::run_experiment(
      churn_config(core::ChurnTaskPolicy::kDetachedExecution));
  EXPECT_EQ(r.tasks_killed_by_churn, 0u);
  EXPECT_EQ(r.checkpoint_snapshots, 0u);
}

}  // namespace
}  // namespace soc
