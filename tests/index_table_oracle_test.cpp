// The flat IndexTable against the vector-of-vectors table it replaced:
// randomized store / clear_track / clear_all / pick under every selection
// policy, with twin RNGs, must give identical picks, identical per-track
// live order and identical entry counts.
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <tuple>
#include <vector>

#include "src/index/index_table.hpp"

namespace soc::index {
namespace {

// The previous implementation: one vector per (dim, direction) track.
class RefIndexTable {
 public:
  struct Entry {
    NodeId id;
    std::size_t level = 0;
    SimTime refreshed_at = 0;
  };

  RefIndexTable(std::size_t dims, std::size_t samples, SimTime ttl)
      : samples_(samples), ttl_(ttl), tracks_(dims * 2) {}

  void store(std::size_t dim, can::Direction dir, std::size_t level, NodeId id,
             SimTime now) {
    auto& track = tracks_[track_index(dim, dir)];
    for (auto& e : track) {
      if (e.id == id && e.level == level) {
        e.refreshed_at = now;
        return;
      }
    }
    std::size_t level_count = 0;
    auto stalest = track.end();
    for (auto it = track.begin(); it != track.end(); ++it) {
      if (it->level != level) continue;
      ++level_count;
      if (stalest == track.end() || it->refreshed_at < stalest->refreshed_at) {
        stalest = it;
      }
    }
    if (level_count >= samples_ && stalest != track.end()) track.erase(stalest);
    track.push_back(Entry{id, level, now});
  }

  void clear_track(std::size_t dim, can::Direction dir) {
    tracks_[track_index(dim, dir)].clear();
  }
  void clear_all() {
    for (auto& t : tracks_) t.clear();
  }

  template <typename Fn>
  void for_each_live(std::size_t dim, can::Direction dir, SimTime now,
                     Fn&& fn) const {
    for (const Entry& e : tracks_[track_index(dim, dir)]) {
      if ((now - e.refreshed_at) < ttl_) fn(e);
    }
  }

  std::optional<NodeId> pick(std::size_t dim, can::Direction dir,
                             IndexSelectPolicy policy, SimTime now,
                             Rng& rng) const {
    std::size_t live_count = 0;
    std::uint64_t level_mask = 0;
    NodeId nearest;
    std::size_t nearest_level = ~std::size_t{0};
    for_each_live(dim, dir, now, [&](const Entry& e) {
      ++live_count;
      level_mask |= std::uint64_t{1} << e.level;
      if (e.level < nearest_level) {
        nearest_level = e.level;
        nearest = e.id;
      }
    });
    if (live_count == 0) return std::nullopt;
    const auto nth_live = [&](std::size_t k, auto&& filter) {
      NodeId out;
      for_each_live(dim, dir, now, [&](const Entry& e) {
        if (out.valid() || !filter(e)) return;
        if (k-- == 0) out = e.id;
      });
      return out;
    };
    switch (policy) {
      case IndexSelectPolicy::kRandomPowerLevel: {
        std::size_t nth = rng.pick_index(
            static_cast<std::size_t>(std::popcount(level_mask)));
        std::uint64_t mask = level_mask;
        while (nth-- > 0) mask &= mask - 1;
        const auto lvl = static_cast<std::size_t>(std::countr_zero(mask));
        std::size_t at_level = 0;
        for_each_live(dim, dir, now,
                      [&](const Entry& e) { at_level += e.level == lvl; });
        return nth_live(rng.pick_index(at_level),
                        [&](const Entry& e) { return e.level == lvl; });
      }
      case IndexSelectPolicy::kNearestOnly:
        return nearest;
      case IndexSelectPolicy::kUniformEntry:
        return nth_live(rng.pick_index(live_count),
                        [](const Entry&) { return true; });
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t total_entries() const {
    std::size_t n = 0;
    for (const auto& t : tracks_) n += t.size();
    return n;
  }

 private:
  static std::size_t track_index(std::size_t dim, can::Direction dir) {
    return dim * 2 + (dir == can::Direction::kPositive ? 1 : 0);
  }
  std::size_t samples_;
  SimTime ttl_;
  std::vector<std::vector<Entry>> tracks_;
};

using Triple = std::tuple<std::uint32_t, std::size_t, SimTime>;

class IndexTableOracle
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IndexTableOracle, MatchesVectorOfVectorsTable) {
  const auto dims = static_cast<std::size_t>(std::get<0>(GetParam()));
  const auto samples = static_cast<std::size_t>(std::get<1>(GetParam()));
  const SimTime ttl = seconds(60);
  IndexTable flat(dims, samples, ttl);
  RefIndexTable ref(dims, samples, ttl);
  Rng ops(1000 + dims * 10 + samples);
  Rng rng_flat(7), rng_ref(7);
  SimTime now = 0;
  const IndexSelectPolicy policies[] = {IndexSelectPolicy::kRandomPowerLevel,
                                        IndexSelectPolicy::kNearestOnly,
                                        IndexSelectPolicy::kUniformEntry};
  for (int step = 0; step < 20000; ++step) {
    now += ops.uniform_int(0, seconds(1));
    const std::size_t dim = ops.pick_index(dims);
    const auto dir =
        ops.chance(0.5) ? can::Direction::kPositive : can::Direction::kNegative;
    const double u = ops.uniform();
    if (u < 0.55) {
      const std::size_t level =
          ops.chance(0.02) ? 63 : ops.pick_index(6);
      const NodeId id(static_cast<std::uint32_t>(ops.pick_index(24)));
      flat.store(dim, dir, level, id, now);
      ref.store(dim, dir, level, id, now);
    } else if (u < 0.57) {
      flat.clear_track(dim, dir);
      ref.clear_track(dim, dir);
    } else if (u < 0.572) {
      flat.clear_all();
      ref.clear_all();
    } else {
      const IndexSelectPolicy policy = policies[ops.pick_index(3)];
      ASSERT_EQ(flat.pick(dim, dir, policy, now, rng_flat),
                ref.pick(dim, dir, policy, now, rng_ref))
          << "step " << step;
    }
    ASSERT_EQ(flat.total_entries(), ref.total_entries()) << "step " << step;
    if (step % 97 != 0) continue;
    // Per-track live order, and the all-track walk as their concatenation.
    std::vector<Triple> all_ref;
    for (std::size_t d = 0; d < dims; ++d) {
      for (const auto r : {can::Direction::kNegative, can::Direction::kPositive}) {
        std::vector<Triple> a, b;
        flat.for_each_live(d, r, now, [&](const IndexTable::Entry& e) {
          a.emplace_back(e.id.value, e.level, e.refreshed_at);
        });
        ref.for_each_live(d, r, now, [&](const RefIndexTable::Entry& e) {
          b.emplace_back(e.id.value, e.level, e.refreshed_at);
        });
        ASSERT_EQ(a, b) << "step " << step;
        all_ref.insert(all_ref.end(), b.begin(), b.end());
      }
    }
    std::vector<Triple> all_flat;
    flat.for_each_live(now, [&](const IndexTable::Entry& e) {
      all_flat.emplace_back(e.id.value, e.level, e.refreshed_at);
    });
    ASSERT_EQ(all_flat, all_ref) << "step " << step;
  }
  // Same number of RNG draws on both sides.
  EXPECT_EQ(rng_flat.next_u64(), rng_ref.next_u64());
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSamples, IndexTableOracle,
    ::testing::Combine(::testing::Values(1, 3, 5, 8), ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// A moved-from table is empty and usable, not a dangling set of offsets.
TEST(IndexTableOracle, MovedFromTableIsEmpty) {
  IndexTable a(2, 2, seconds(100));
  a.store(1, can::Direction::kPositive, 0, NodeId(4), 0);
  IndexTable b(std::move(a));
  EXPECT_EQ(b.total_entries(), 1u);
  EXPECT_EQ(a.total_entries(), 0u);  // NOLINT(bugprone-use-after-move)
  std::size_t visited = 0;
  a.for_each_live(1, can::Direction::kPositive, 0,
                  [&](const IndexTable::Entry&) { ++visited; });
  EXPECT_EQ(visited, 0u);
  a.store(0, can::Direction::kNegative, 1, NodeId(5), 0);
  EXPECT_EQ(a.total_entries(), 1u);
}

}  // namespace
}  // namespace soc::index
