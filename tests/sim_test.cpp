// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_queue.hpp"
#include "src/sim/simulator.hpp"

namespace soc::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&] { fired.push_back(3); });
  q.push(10, [&] { fired.push_back(1); });
  q.push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameTimestamp) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) q.push(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventHandle h = q.push(1, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));  // double-cancel reports failure
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventHandle h = q.push(1, [] {});
  q.push(5, [] {});
  q.cancel(h);
  EXPECT_EQ(q.next_time(), 5);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, StaleHandleToRecycledSlotIsRejected) {
  EventQueue q;
  const EventHandle h1 = q.push(1, [] {});
  EXPECT_TRUE(q.cancel(h1));
  // The freed slot is recycled with a bumped generation...
  const EventHandle h2 = q.push(2, [] {});
  EXPECT_EQ(h2.slot, h1.slot);
  EXPECT_NE(h2.gen, h1.gen);
  // ...so the stale handle must not cancel the new event.
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(h2));
}

// A schedule-heavy/cancel-heavy workload (timeouts!) must not grow memory:
// cancel() frees the slot and its captures at once, and the tombstone heap
// entries it leaves are bounded by the rebuild rule.  One million
// schedule+cancel cycles must leave both the live count and the slab
// high-water mark at baseline, with the queue's integrity intact.
TEST(EventQueue, CancelledEventsReleaseSlabMemory) {
  EventQueue q;
  const EventHandle keeper = q.push(1'000'000'000, [] {});
  constexpr std::size_t kBatch = 64;      // pending timeouts at any moment
  constexpr std::size_t kCycles = 16384;  // ~1M scheduled events total
  std::vector<EventHandle> batch;
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    batch.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(
          q.push(static_cast<SimTime>(cycle * kBatch + i + 1), [] {}));
    }
    for (const EventHandle h : batch) EXPECT_TRUE(q.cancel(h));
  }
  // Live events back to baseline: just the keeper.
  EXPECT_EQ(q.size(), 1u);
  // Slab occupancy bounded by the peak number of simultaneously pending
  // events, not the ~1M total scheduled.
  EXPECT_LE(q.slab_slots(), kBatch + 1);
  EXPECT_EQ(q.next_time(), 1'000'000'000);
  EXPECT_TRUE(q.verify_integrity());
  EXPECT_TRUE(q.cancel(keeper));
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.verify_integrity());
}

// Cancelling a buried (non-top) event leaves a tombstone in the heap, but
// the live count drops at once and the earliest time does not move.
TEST(EventQueue, CancelBuriedEventUpdatesSizeAtOnce) {
  EventQueue q;
  q.push(10, [] {});
  const EventHandle buried = q.push(50, [] {});
  q.push(90, [] {});
  ASSERT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.cancel(buried));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 10);
  EXPECT_TRUE(q.verify_integrity());
  q.pop();
  EXPECT_EQ(q.next_time(), 90);  // the tombstone is skimmed, never popped
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.verify_integrity());
}

// Same property through the Simulator's periodic API: a periodic process
// whose queued firing is repeatedly cancelled and re-established must not
// grow the slab.
TEST(Simulator, CancelledPeriodicsReleaseSlabMemory) {
  Simulator sim;
  std::size_t fired = 0;
  for (int round = 0; round < 20000; ++round) {
    const EventHandle h = sim.schedule_periodic(seconds(10), [&] {
      ++fired;
      return false;
    });
    ASSERT_TRUE(sim.cancel(h));
  }
  sim.run_all();
  EXPECT_EQ(fired, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// schedule_periodic seeds its jitter stream from the live event count, so
// a cancelled event must stop counting at once: a periodic issued after the
// cancel fires at the same jittered times as in a simulator that never
// scheduled the cancelled event.
TEST(Simulator, CancelledEventDoesNotShiftPeriodicJitter) {
  auto firings = [](bool with_cancelled) {
    Simulator sim(31);
    sim.schedule_at(seconds(1), [] {});
    if (with_cancelled) {
      const EventHandle buried = sim.schedule_at(seconds(50), [] {});
      EXPECT_TRUE(sim.cancel(buried));
    }
    sim.schedule_at(seconds(90), [] {});
    std::vector<SimTime> at;
    sim.schedule_periodic(
        seconds(100),
        [&] {
          at.push_back(sim.now());
          return at.size() < 20;
        },
        seconds(100), /*jitter=*/0.3);
    sim.run_all();
    return at;
  };
  const std::vector<SimTime> reference = firings(false);
  ASSERT_EQ(reference.size(), 20u);
  EXPECT_EQ(firings(true), reference);
}

// The handle schedule_periodic returns is the first firing's: cancelling
// it before that firing stops the series; afterwards cancel() reports
// false and the series keeps running.
TEST(Simulator, PeriodicHandleCancelsOnlyBeforeFirstFiring) {
  Simulator sim;
  int early = 0;
  const EventHandle before = sim.schedule_periodic(seconds(10), [&] {
    ++early;
    return true;
  });
  EXPECT_TRUE(sim.cancel(before));
  sim.run_until(seconds(100));
  EXPECT_EQ(early, 0);
  EXPECT_EQ(sim.pending_events(), 0u);

  int late = 0;
  const EventHandle after = sim.schedule_periodic(seconds(10), [&] {
    ++late;
    return late < 5;
  });
  sim.run_until(sim.now() + seconds(15));
  ASSERT_EQ(late, 1);
  EXPECT_FALSE(sim.cancel(after));
  sim.run_all();
  EXPECT_EQ(late, 5);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_at(seconds(10), [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_EQ(seen, seconds(10));
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 15);  // clock reaches the horizon
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_at(1, [&] {
    times.push_back(sim.now());
    sim.schedule_after(4, [&] { times.push_back(sim.now()); });
  });
  sim.run_all();
  EXPECT_EQ(times, (std::vector<SimTime>{1, 5}));
}

TEST(Simulator, PeriodicFiresUntilStopped) {
  Simulator sim;
  int count = 0;
  sim.schedule_periodic(seconds(100), [&] {
    ++count;
    return count < 5;
  });
  sim.run_until(seconds(10000));
  EXPECT_EQ(count, 5);
}

TEST(Simulator, PeriodicPhaseControlsFirstFiring) {
  Simulator sim;
  SimTime first = -1;
  sim.schedule_periodic(
      seconds(100),
      [&] {
        if (first < 0) first = sim.now();
        return false;
      },
      /*phase=*/seconds(7));
  sim.run_all();
  EXPECT_EQ(first, seconds(7));
}

TEST(Simulator, PeriodicJitterStaysWithinBounds) {
  Simulator sim(99);
  std::vector<SimTime> firings;
  sim.schedule_periodic(
      seconds(100),
      [&] {
        firings.push_back(sim.now());
        return firings.size() < 50;
      },
      seconds(100), /*jitter=*/0.2);
  sim.run_all();
  for (std::size_t i = 1; i < firings.size(); ++i) {
    const SimTime gap = firings[i] - firings[i - 1];
    EXPECT_GE(gap, seconds(80));
    EXPECT_LE(gap, seconds(120));
  }
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool ran = false;
  const auto h = sim.schedule_at(5, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulator, StepExecutesSingleEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  sim.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorDeathTest, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.schedule_at(seconds(10), [] {});
  sim.run_all();
  ASSERT_EQ(sim.now(), seconds(10));
  EXPECT_DEATH(sim.schedule_at(seconds(5), [] {}),
               "cannot schedule into the past");
}

TEST(SimulatorDeathTest, SchedulingAtNeverAborts) {
  Simulator sim;
  EXPECT_DEATH(sim.schedule_at(kSimTimeNever, [] {}),
               "cannot schedule at kSimTimeNever");
  EXPECT_DEATH(sim.schedule_after(kSimTimeNever, [] {}),
               "delay overflows SimTime");
}

TEST(Simulator, ScheduleAtNowIsAllowed) {
  Simulator sim;
  sim.schedule_at(seconds(1), [] {});
  sim.run_all();
  bool ran = false;
  sim.schedule_at(sim.now(), [&] { ran = true; });  // at == now is valid
  sim.run_all();
  EXPECT_TRUE(ran);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<std::uint64_t> draws;
    Rng r = sim.rng().fork("test");
    for (int i = 0; i < 16; ++i) draws.push_back(r.next_u64());
    return draws;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace soc::sim
