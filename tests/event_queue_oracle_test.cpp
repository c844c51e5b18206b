// Randomized oracle for the event queue's contract.
//
// 200k random operations run against the queue and against a std::set of
// (time, push id) keys — the executable specification of its pop order:
// earliest time first, schedule order among equal times.  The mix forces
// the paths the lazy-cancel design adds: pushes at the current time (ties),
// cancels of buried events (tombstones), cancels of the top event (the
// skim), stale handles (generation checks), and bursts that cancel more
// than half of the live events (heap rebuilds).  After every operation the
// queue's size(), empty() and next_time() must match the reference and
// verify_integrity() must hold, which includes the tombstone bound.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/sim/event_queue.hpp"

namespace soc::sim {
namespace {

using Key = std::pair<SimTime, std::uint64_t>;  // (at, push id)

::testing::AssertionResult matches(const EventQueue& q,
                                   const std::set<Key>& ref) {
  if (q.size() != ref.size()) {
    return ::testing::AssertionFailure()
           << "size() " << q.size() << " != " << ref.size();
  }
  if (q.empty() != ref.empty()) {
    return ::testing::AssertionFailure() << "empty() disagrees";
  }
  const SimTime want = ref.empty() ? kSimTimeNever : ref.begin()->first;
  if (q.next_time() != want) {
    return ::testing::AssertionFailure()
           << "next_time() " << q.next_time() << " != " << want;
  }
  if (!q.verify_integrity()) {
    return ::testing::AssertionFailure() << "verify_integrity() failed";
  }
  return ::testing::AssertionSuccess();
}

TEST(EventQueueOracle, MatchesOrderedSetUnderRandomOperations) {
  constexpr int kOps = 200'000;
  constexpr std::size_t kTargetLive = 600;

  EventQueue q;
  std::set<Key> ref;
  std::vector<EventHandle> handle_of;   // by push id
  std::vector<SimTime> at_of;           // by push id
  std::vector<std::size_t> pool_pos;    // by push id: index in `live`
  std::vector<std::uint64_t> live;      // ids of live events
  std::vector<EventHandle> dead;        // executed or cancelled handles
  Rng rng(2024);
  SimTime now = 0;
  std::uint64_t ran = 0;
  int ties = 0;
  int bursts = 0;

  auto retire = [&](std::uint64_t id) {
    const std::size_t pos = pool_pos[id];
    live[pos] = live.back();
    pool_pos[live[pos]] = pos;
    live.pop_back();
    ref.erase({at_of[id], id});
    dead.push_back(handle_of[id]);
  };
  auto cancel_live = [&](std::uint64_t id) {
    EXPECT_TRUE(q.cancel(handle_of[id])) << "id " << id;
    retire(id);
  };

  for (int op = 0; op < kOps; ++op) {
    const double r = rng.uniform();
    const double push_share = live.size() < kTargetLive ? 0.55 : 0.45;
    if (live.size() > 200 && rng.chance(0.0005)) {
      // Cancel 55-90% of the live events at random.
      ++bursts;
      const auto n = static_cast<std::size_t>(
          static_cast<double>(live.size()) * rng.uniform(0.55, 0.9));
      for (std::size_t i = 0; i < n; ++i) {
        cancel_live(live[rng.pick_index(live.size())]);
      }
    } else if (r < push_share) {
      const bool tie = rng.chance(0.3);
      ties += tie ? 1 : 0;
      const SimTime at = now + (tie ? 0 : rng.uniform_int(1, 1000));
      const std::uint64_t id = handle_of.size();
      handle_of.push_back(q.push(at, [&ran, id] { ran = id; }));
      at_of.push_back(at);
      pool_pos.push_back(live.size());
      live.push_back(id);
      ref.insert({at, id});
    } else if (r < push_share + 0.25) {
      if (ref.empty()) continue;
      const Key want = *ref.begin();
      EventQueue::Popped p = q.pop();
      p.fn();
      ASSERT_EQ(p.at, want.first) << "op " << op;
      ASSERT_EQ(ran, want.second) << "op " << op;
      now = p.at;
      retire(want.second);
    } else if (r < push_share + 0.37) {
      if (live.empty()) continue;
      cancel_live(live[rng.pick_index(live.size())]);
    } else if (r < push_share + 0.42) {
      if (ref.empty()) continue;
      cancel_live(ref.begin()->second);
    } else {
      if (dead.empty()) continue;
      EXPECT_FALSE(q.cancel(dead[rng.pick_index(dead.size())])) << "op " << op;
    }
    ASSERT_TRUE(matches(q, ref)) << "after op " << op;
  }
  EXPECT_GT(bursts, 10);
  EXPECT_GT(ties, 10'000);

  // Drain: the remaining events pop in reference order.
  while (!ref.empty()) {
    const Key want = *ref.begin();
    EventQueue::Popped p = q.pop();
    p.fn();
    ASSERT_EQ(p.at, want.first);
    ASSERT_EQ(ran, want.second);
    retire(want.second);
    ASSERT_TRUE(matches(q, ref));
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace soc::sim
