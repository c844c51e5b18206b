// Tests for the proportional-share scheduler: Eq. (1) allocation, the
// admission guarantee of Inequality (2), VM overhead, and piecewise
// progress integration — including the worked example from §II of the
// paper.
#include <gtest/gtest.h>

#include <cmath>

#include "src/psm/scheduler.hpp"
#include "src/psm/task.hpp"
#include "src/sim/simulator.hpp"

namespace soc::psm {
namespace {

/// Overhead-free scheduler for arithmetic-exact tests.
VmOverhead no_overhead() {
  VmOverhead o;
  o.cpu_fraction = o.io_fraction = o.net_fraction = 0.0;
  o.memory_mb = 0.0;
  return o;
}

TaskSpec make_task(std::uint32_t seq, ResourceVector e,
                   std::array<double, kRateDims> workload,
                   NodeId origin = NodeId(0)) {
  TaskSpec t;
  t.id = TaskId{origin, seq};
  t.expectation = std::move(e);
  t.workload = workload;
  return t;
}

TEST(PsmScheduler, PaperSectionIIExample) {
  // Node p_r: capacity {13.5 GFlops, 1200 M}; three tasks expecting
  // {2,100}, {3,200}, {4,300} must receive {3,200}, {4.5,400}, {6,600}.
  // Our vectors are 5-dimensional; the example maps CPU→dim0, memory→dim4.
  sim::Simulator sim;
  PsmScheduler sched(sim, ResourceVector{13.5, 100.0, 100.0, 100.0, 1200.0},
                     no_overhead());
  const auto t1 = make_task(1, ResourceVector{2, 1, 1, 1, 100}, {1e5, 1, 1});
  const auto t2 = make_task(2, ResourceVector{3, 1, 1, 1, 200}, {1e5, 1, 1});
  const auto t3 = make_task(3, ResourceVector{4, 1, 1, 1, 300}, {1e5, 1, 1});
  ASSERT_TRUE(sched.admit(t1));
  ASSERT_TRUE(sched.admit(t2));
  ASSERT_TRUE(sched.admit(t3));

  EXPECT_NEAR(sched.allocation_of(t1.id)[kCpu], 3.0, 1e-9);
  EXPECT_NEAR(sched.allocation_of(t2.id)[kCpu], 4.5, 1e-9);
  EXPECT_NEAR(sched.allocation_of(t3.id)[kCpu], 6.0, 1e-9);
  EXPECT_NEAR(sched.allocation_of(t1.id)[kMemory], 200.0, 1e-9);
  EXPECT_NEAR(sched.allocation_of(t2.id)[kMemory], 400.0, 1e-9);
  EXPECT_NEAR(sched.allocation_of(t3.id)[kMemory], 600.0, 1e-9);
}

TEST(PsmScheduler, AllocationAlwaysDominatesExpectation) {
  sim::Simulator sim;
  PsmScheduler sched(sim, ResourceVector{10, 10, 10, 10, 1000},
                     no_overhead());
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto t = make_task(i, ResourceVector{2, 2, 2, 2, 200}, {100, 100, 100});
    ASSERT_TRUE(sched.admit(t));
    const ResourceVector r = sched.allocation_of(t.id);
    EXPECT_TRUE(r.dominates(t.expectation));
  }
  // Remaining availability is exactly {2,2,2,2,200}: an equal demand still
  // fits (Inequality (2) is non-strict) but anything larger is rejected.
  EXPECT_TRUE(sched.can_admit(ResourceVector{2, 2, 2, 2, 200}));
  EXPECT_FALSE(sched.can_admit(ResourceVector{2, 2, 2.5, 2, 200}));
}

TEST(PsmScheduler, AdmissionRejectsSingleDimensionShortfall) {
  sim::Simulator sim;
  PsmScheduler sched(sim, ResourceVector{10, 10, 10, 10, 1000},
                     no_overhead());
  ASSERT_TRUE(sched.admit(
      make_task(1, ResourceVector{1, 1, 9.5, 1, 100}, {10, 10, 10})));
  // Plenty of CPU left, but network is nearly exhausted.
  EXPECT_FALSE(sched.can_admit(ResourceVector{1, 1, 1, 1, 100}));
  EXPECT_TRUE(sched.can_admit(ResourceVector{1, 1, 0.5, 1, 100}));
}

TEST(PsmScheduler, SoleTaskGetsFullCapacityAndFinishesEarly) {
  sim::Simulator sim;
  PsmScheduler sched(sim, ResourceVector{10, 10, 10, 10, 1000},
                     no_overhead());
  CompletionInfo done{};
  sched.set_finish_callback([&](const CompletionInfo& c) { done = c; });
  // Expects rate 2 → would take 100 s; sole occupancy gives rate 10 → 20 s.
  const auto t = make_task(1, ResourceVector{2, 2, 2, 1, 100}, {200, 0, 0});
  ASSERT_TRUE(sched.admit(t));
  sim.run_until(seconds(3600));
  EXPECT_EQ(done.id, t.id);
  EXPECT_NEAR(done.exec_seconds(), 20.0, 0.1);
}

TEST(PsmScheduler, ContendedTasksSlowToProportionalShare) {
  sim::Simulator sim;
  PsmScheduler sched(sim, ResourceVector{10, 10, 10, 10, 1000},
                     no_overhead());
  int finished = 0;
  SimTime last_finish = 0;
  sched.set_finish_callback([&](const CompletionInfo& c) {
    ++finished;
    last_finish = c.finished_at;
  });
  // Two identical tasks, each expecting half the node: they share equally
  // (rate 5 each) and finish together at t = 200/5 = 40 s.
  for (std::uint32_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(sched.admit(
        make_task(i, ResourceVector{5, 1, 1, 1, 100}, {200, 0, 0})));
  }
  sim.run_until(seconds(3600));
  EXPECT_EQ(finished, 2);
  EXPECT_NEAR(to_seconds(last_finish), 40.0, 0.1);
}

TEST(PsmScheduler, RatesRecomputeWhenTaskCompletes) {
  sim::Simulator sim;
  PsmScheduler sched(sim, ResourceVector{12, 10, 10, 10, 1000},
                     no_overhead());
  std::vector<std::pair<TaskId, double>> finishes;
  sched.set_finish_callback([&](const CompletionInfo& c) {
    finishes.emplace_back(c.id, to_seconds(c.finished_at));
  });
  // Short task: expectation 6, workload 60.  Long task: expectation 6,
  // workload 360.  Phase 1: both run at rate 6 (l = 12 = c).  Short ends at
  // t = 10 with long at 300 remaining; long then runs alone at rate 12 and
  // ends at t = 10 + 300/12 = 35.
  ASSERT_TRUE(sched.admit(
      make_task(1, ResourceVector{6, 1, 1, 1, 100}, {60, 0, 0})));
  ASSERT_TRUE(sched.admit(
      make_task(2, ResourceVector{6, 1, 1, 1, 100}, {360, 0, 0})));
  sim.run_until(seconds(3600));
  ASSERT_EQ(finishes.size(), 2u);
  EXPECT_NEAR(finishes[0].second, 10.0, 0.05);
  EXPECT_NEAR(finishes[1].second, 35.0, 0.05);
}

TEST(PsmScheduler, MultiDimensionalFinishIsMaxOverRateDims) {
  sim::Simulator sim;
  PsmScheduler sched(sim, ResourceVector{10, 10, 10, 10, 1000},
                     no_overhead());
  double exec_s = 0;
  sched.set_finish_callback(
      [&](const CompletionInfo& c) { exec_s = c.exec_seconds(); });
  // Sole task: rates = full capacity {10,10,10}.  Workloads {100, 300, 50}
  // → finish at max(10, 30, 5) = 30 s.
  ASSERT_TRUE(sched.admit(
      make_task(1, ResourceVector{1, 1, 1, 1, 100}, {100, 300, 50})));
  sim.run_until(seconds(3600));
  EXPECT_NEAR(exec_s, 30.0, 0.1);
}

TEST(PsmScheduler, VmOverheadShrinksAvailability) {
  sim::Simulator sim;
  PsmScheduler sched(sim, ResourceVector{100, 100, 100, 100, 1000});
  const ResourceVector a0 = sched.availability();
  EXPECT_DOUBLE_EQ(a0[kCpu], 100.0);
  ASSERT_TRUE(sched.admit(
      make_task(1, ResourceVector{10, 10, 10, 10, 100}, {100, 0, 0})));
  const ResourceVector a1 = sched.availability();
  // One VM: CPU loses 5% of capacity plus the task's expectation.
  EXPECT_NEAR(a1[kCpu], 100.0 * 0.95 - 10.0, 1e-9);
  EXPECT_NEAR(a1[kIo], 100.0 * 0.90 - 10.0, 1e-9);
  EXPECT_NEAR(a1[kNet], 100.0 * 0.95 - 10.0, 1e-9);
  EXPECT_NEAR(a1[kMemory], 1000.0 - 5.0 - 100.0, 1e-9);
  // Disk has no per-VM overhead.
  EXPECT_NEAR(a1[kDisk], 100.0 - 10.0, 1e-9);
}

TEST(PsmScheduler, CanAdmitAccountsForNewVmOverhead) {
  sim::Simulator sim;
  PsmScheduler sched(sim, ResourceVector{100, 100, 100, 100, 1000});
  // Availability with zero VMs is 100, but admitting one VM costs 5% CPU:
  // a request of 96 must be rejected, 94 accepted.
  EXPECT_FALSE(sched.can_admit(ResourceVector{96, 1, 1, 1, 10}));
  EXPECT_TRUE(sched.can_admit(ResourceVector{94, 1, 1, 1, 10}));
}

TEST(PsmScheduler, AbortRemovesTaskWithoutCallback) {
  sim::Simulator sim;
  PsmScheduler sched(sim, ResourceVector{10, 10, 10, 10, 1000},
                     no_overhead());
  bool fired = false;
  sched.set_finish_callback([&](const CompletionInfo&) { fired = true; });
  const auto t = make_task(1, ResourceVector{2, 2, 2, 2, 100}, {1000, 0, 0});
  ASSERT_TRUE(sched.admit(t));
  const auto spec = sched.abort(t.id);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->id, t.id);
  sim.run_until(seconds(3600));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.running_count(), 0u);
  EXPECT_FALSE(sched.abort(t.id).has_value());  // double abort
}

TEST(PsmScheduler, AbortAllWithProgressReturnsEverySpec) {
  sim::Simulator sim;
  PsmScheduler sched(sim, ResourceVector{10, 10, 10, 10, 1000},
                     no_overhead());
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(sched.admit(
        make_task(i, ResourceVector{1, 1, 1, 1, 50}, {100, 0, 0})));
  }
  const auto aborted = sched.abort_all_with_progress();
  EXPECT_EQ(aborted.size(), 3u);
  EXPECT_EQ(sched.running_count(), 0u);
  EXPECT_TRUE(sched.availability().dominates(ResourceVector{9, 9, 9, 9, 900}));
}

TEST(PsmScheduler, AbortSpeedsUpRemainingTask) {
  sim::Simulator sim;
  PsmScheduler sched(sim, ResourceVector{10, 10, 10, 10, 1000},
                     no_overhead());
  double exec_s = 0;
  sched.set_finish_callback(
      [&](const CompletionInfo& c) { exec_s = c.exec_seconds(); });
  const auto hog = make_task(1, ResourceVector{5, 1, 1, 1, 100}, {1e6, 0, 0});
  const auto fast = make_task(2, ResourceVector{5, 1, 1, 1, 100}, {200, 0, 0});
  ASSERT_TRUE(sched.admit(hog));
  ASSERT_TRUE(sched.admit(fast));
  // At t=20 the hog is aborted; `fast` has burned 20 s × rate 5 = 100 of
  // 200, then finishes the rest alone at rate 10 → t = 30 s total.
  sim.schedule_at(seconds(20), [&] { sched.abort(hog.id); });
  sim.run_until(seconds(3600));
  EXPECT_NEAR(exec_s, 30.0, 0.1);
}

TEST(PsmScheduler, ExpectedExecSecondsUsesBottleneckDim) {
  const auto t = make_task(1, ResourceVector{2, 4, 5, 1, 100}, {200, 100, 50});
  // 200/2 = 100, 100/4 = 25, 50/5 = 10 → expected 100 s.
  EXPECT_DOUBLE_EQ(t.expected_exec_seconds(), 100.0);
}

// Property sweep: admitted tasks always finish no later than their
// expectation-rate deadline, regardless of how many contenders arrive.
class PsmDeadlineProperty : public ::testing::TestWithParam<int> {};

TEST_P(PsmDeadlineProperty, FinishNoLaterThanExpectedTime) {
  const int n_tasks = GetParam();
  sim::Simulator sim(static_cast<std::uint64_t>(n_tasks));
  PsmScheduler sched(sim, ResourceVector{100, 100, 100, 100, 10000});
  Rng rng(static_cast<std::uint64_t>(n_tasks) * 31 + 7);

  struct Expected {
    SimTime admitted_at;
    double deadline_s;
  };
  std::unordered_map<TaskId, Expected> expected;
  int finished = 0;
  sched.set_finish_callback([&](const CompletionInfo& c) {
    ++finished;
    const auto& e = expected.at(c.id);
    const double elapsed = to_seconds(c.finished_at - e.admitted_at);
    // Grace of 1% covers event-granularity rounding.
    EXPECT_LE(elapsed, e.deadline_s * 1.01 + 0.01);
  });

  int admitted = 0;
  for (int i = 0; i < n_tasks; ++i) {
    const SimTime at = seconds(rng.uniform(0.0, 500.0));
    sim.schedule_at(at, [&, i] {
      ResourceVector e{rng.uniform(1, 10), rng.uniform(1, 10),
                       rng.uniform(1, 10), rng.uniform(1, 10),
                       rng.uniform(50, 500)};
      std::array<double, kRateDims> w{};
      for (std::size_t k = 0; k < kRateDims; ++k) {
        w[k] = e[k] * rng.uniform(10.0, 100.0);
      }
      TaskSpec t;
      t.id = TaskId{NodeId(0), static_cast<std::uint32_t>(i)};
      t.expectation = e;
      t.workload = w;
      if (sched.admit(t)) {
        ++admitted;
        expected[t.id] = {sim.now(), t.expected_exec_seconds()};
      }
    });
  }
  sim.run_until(seconds(10000));
  EXPECT_GT(admitted, 0);
  EXPECT_EQ(finished, admitted);
}

INSTANTIATE_TEST_SUITE_P(TaskCounts, PsmDeadlineProperty,
                         ::testing::Values(1, 4, 16, 64));

}  // namespace
}  // namespace soc::psm
