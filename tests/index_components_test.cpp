// Unit tests for the index-layer building blocks: RecordStore (cache γ),
// PIList, and the 2^k index-node tables.
#include <gtest/gtest.h>

#include "src/index/index_table.hpp"
#include "src/index/pi_list.hpp"
#include "src/index/record.hpp"

namespace soc::index {
namespace {

Record make_record(std::uint32_t provider, std::initializer_list<double> a,
                   SimTime published, SimTime ttl = seconds(600)) {
  Record r;
  r.provider = NodeId(provider);
  r.availability = ResourceVector(a);
  r.location = can::Point(r.availability.size());
  for (std::size_t i = 0; i < r.availability.size(); ++i) {
    r.location[i] = r.availability[i] / 10.0;
  }
  r.published_at = published;
  r.expires_at = published + ttl;
  return r;
}

TEST(RecordStore, PutOverwritesPerProvider) {
  RecordStore store;
  store.put(make_record(1, {5.0, 5.0}, 0));
  store.put(make_record(1, {2.0, 2.0}, seconds(10)));
  EXPECT_EQ(store.size(), 1u);
  const auto all = store.all_live(seconds(20));
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].availability, (ResourceVector{2.0, 2.0}));
}

TEST(RecordStore, TtlExpiryHidesAndPrunes) {
  RecordStore store;
  store.put(make_record(1, {5.0, 5.0}, 0, seconds(100)));
  EXPECT_TRUE(store.has_live_records(seconds(99)));
  EXPECT_FALSE(store.has_live_records(seconds(100)));
  EXPECT_EQ(store.live_count(seconds(100)), 0u);
  EXPECT_EQ(store.size(), 1u);  // still stored
  store.prune(seconds(100));
  EXPECT_EQ(store.size(), 0u);
}

TEST(RecordStore, QualifiedFiltersByDominance) {
  RecordStore store;
  store.put(make_record(1, {5.0, 5.0}, 0));
  store.put(make_record(2, {9.0, 2.0}, 0));
  store.put(make_record(3, {9.0, 9.0}, 0));
  const auto q = store.qualified(ResourceVector{4.0, 4.0}, seconds(1));
  ASSERT_EQ(q.size(), 2u);
  for (const auto& r : q) {
    EXPECT_TRUE(r.availability.dominates(ResourceVector{4.0, 4.0}));
  }
}

TEST(RecordStore, EraseRemovesProvider) {
  RecordStore store;
  store.put(make_record(1, {5.0, 5.0}, 0));
  EXPECT_TRUE(store.erase(NodeId(1)));
  EXPECT_FALSE(store.erase(NodeId(1)));
  EXPECT_EQ(store.size(), 0u);
}

TEST(RecordStore, ExtractInZoneMovesOnlyContained) {
  RecordStore store;
  store.put(make_record(1, {2.0, 2.0}, 0));  // location (0.2, 0.2)
  store.put(make_record(2, {8.0, 8.0}, 0));  // location (0.8, 0.8)
  const can::Zone lower(can::Point{0.0, 0.0}, can::Point{0.5, 0.5});
  const auto moved = store.extract_in_zone(lower, seconds(1));
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].provider, NodeId(1));
  EXPECT_EQ(store.size(), 1u);
}

TEST(RecordStore, ExtractAllEmptiesStore) {
  RecordStore store;
  store.put(make_record(1, {2.0, 2.0}, 0));
  store.put(make_record(2, {8.0, 8.0}, 0));
  EXPECT_EQ(store.extract_all().size(), 2u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(PiList, AddRefreshAndExpiry) {
  PiList pi(4, seconds(100));
  pi.add(NodeId(1), 0);
  pi.add(NodeId(2), seconds(50));
  EXPECT_EQ(pi.live_count(seconds(99)), 2u);
  EXPECT_EQ(pi.live_count(seconds(120)), 1u);  // node 1 expired
  pi.add(NodeId(1), seconds(120));             // re-heard
  EXPECT_TRUE(pi.contains_live(NodeId(1), seconds(121)));
}

TEST(PiList, CapacityEvictsStalest) {
  PiList pi(3, seconds(1000));
  pi.add(NodeId(1), seconds(1));
  pi.add(NodeId(2), seconds(2));
  pi.add(NodeId(3), seconds(3));
  pi.add(NodeId(4), seconds(4));  // evicts node 1 (stalest)
  EXPECT_FALSE(pi.contains_live(NodeId(1), seconds(5)));
  EXPECT_TRUE(pi.contains_live(NodeId(2), seconds(5)));
  EXPECT_TRUE(pi.contains_live(NodeId(4), seconds(5)));
}

TEST(PiList, SampleReturnsDistinctLiveSubset) {
  PiList pi(16, seconds(1000));
  for (std::uint32_t i = 0; i < 10; ++i) pi.add(NodeId(i), seconds(i));
  Rng rng(5);
  const auto s = pi.sample(4, seconds(20), rng);
  EXPECT_EQ(s.size(), 4u);
  std::set<NodeId> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 4u);
  // Asking for more than live returns all live.
  EXPECT_EQ(pi.sample(50, seconds(20), rng).size(), 10u);
}

TEST(PiList, PruneDropsExpired) {
  PiList pi(8, seconds(10));
  pi.add(NodeId(1), 0);
  pi.add(NodeId(2), seconds(100));
  pi.prune(seconds(100));
  EXPECT_FALSE(pi.contains_live(NodeId(1), seconds(100)));
  EXPECT_TRUE(pi.contains_live(NodeId(2), seconds(100)));
}

TEST(IndexTable, StoreAndPickByLevel) {
  IndexTable tbl(2, 2, seconds(1000));
  tbl.store(0, can::Direction::kNegative, 0, NodeId(1), 0);
  tbl.store(0, can::Direction::kNegative, 1, NodeId(2), 0);
  tbl.store(0, can::Direction::kNegative, 2, NodeId(3), 0);
  Rng rng(7);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 100; ++i) {
    const auto pick = tbl.pick(0, can::Direction::kNegative,
                               IndexSelectPolicy::kRandomPowerLevel,
                               seconds(1), rng);
    ASSERT_TRUE(pick.has_value());
    seen.insert(pick->value);
  }
  EXPECT_EQ(seen.size(), 3u);  // all levels get picked eventually
}

TEST(IndexTable, NearestOnlyPolicyPicksLowestLevel) {
  IndexTable tbl(1, 2, seconds(1000));
  tbl.store(0, can::Direction::kNegative, 2, NodeId(3), 0);
  tbl.store(0, can::Direction::kNegative, 0, NodeId(1), 0);
  Rng rng(9);
  const auto pick = tbl.pick(0, can::Direction::kNegative,
                             IndexSelectPolicy::kNearestOnly, seconds(1), rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, NodeId(1));
}

TEST(IndexTable, EmptyTrackReturnsNullopt) {
  IndexTable tbl(2, 2, seconds(1000));
  Rng rng(11);
  EXPECT_FALSE(tbl.pick(1, can::Direction::kPositive,
                        IndexSelectPolicy::kUniformEntry, 0, rng)
                   .has_value());
}

TEST(IndexTable, EntriesExpire) {
  IndexTable tbl(1, 2, seconds(100));
  tbl.store(0, can::Direction::kNegative, 0, NodeId(1), 0);
  Rng rng(13);
  EXPECT_TRUE(tbl.pick(0, can::Direction::kNegative,
                       IndexSelectPolicy::kUniformEntry, seconds(99), rng)
                  .has_value());
  EXPECT_FALSE(tbl.pick(0, can::Direction::kNegative,
                        IndexSelectPolicy::kUniformEntry, seconds(100), rng)
                   .has_value());
}

TEST(IndexTable, PerLevelSampleCapEvictsStalest) {
  IndexTable tbl(1, 2, seconds(1000));
  tbl.store(0, can::Direction::kNegative, 0, NodeId(1), seconds(1));
  tbl.store(0, can::Direction::kNegative, 0, NodeId(2), seconds(2));
  tbl.store(0, can::Direction::kNegative, 0, NodeId(3), seconds(3));
  std::vector<NodeId> live;
  tbl.for_each_live(0, can::Direction::kNegative, seconds(4),
                    [&](const IndexTable::Entry& e) { live.push_back(e.id); });
  // The stalest entry is evicted and the newcomer appended.
  EXPECT_EQ(live, (std::vector<NodeId>{NodeId(2), NodeId(3)}));
}

TEST(IndexTable, RefreshInPlaceDoesNotDuplicate) {
  IndexTable tbl(1, 2, seconds(1000));
  tbl.store(0, can::Direction::kNegative, 1, NodeId(5), seconds(1));
  tbl.store(0, can::Direction::kNegative, 1, NodeId(5), seconds(50));
  EXPECT_EQ(tbl.total_entries(), 1u);
  std::vector<IndexTable::Entry> live;
  tbl.for_each_live(0, can::Direction::kNegative, seconds(51),
                    [&](const IndexTable::Entry& e) { live.push_back(e); });
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].refreshed_at, seconds(50));
}

}  // namespace
}  // namespace soc::index
