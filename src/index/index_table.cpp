#include "src/index/index_table.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace soc::index {

IndexTable::IndexTable(std::size_t dims, std::size_t samples_per_level,
                       SimTime entry_ttl)
    : dims_(dims), samples_per_level_(samples_per_level), ttl_(entry_ttl) {
  SOC_CHECK(dims > 0 && dims <= can::kMaxDims);
  SOC_CHECK(samples_per_level > 0);
}

IndexTable::IndexTable(IndexTable&& o) noexcept
    : dims_(o.dims_),
      samples_per_level_(o.samples_per_level_),
      ttl_(o.ttl_),
      entries_(std::move(o.entries_)),
      begin_(o.begin_) {
  o.clear_all();
}

IndexTable& IndexTable::operator=(IndexTable&& o) noexcept {
  dims_ = o.dims_;
  samples_per_level_ = o.samples_per_level_;
  ttl_ = o.ttl_;
  entries_ = std::move(o.entries_);
  begin_ = o.begin_;
  o.clear_all();
  return *this;
}

void IndexTable::store(std::size_t dim, can::Direction dir, std::size_t level,
                       NodeId id, SimTime now) {
  SOC_CHECK(level < 64);  // pick() tracks the level set in a 64-bit mask
  const std::size_t t = track_index(dim, dir);
  const auto first = entries_.begin() + begin_[t];
  const auto last = entries_.begin() + begin_[t + 1];
  // Refresh an existing identical entry in place.
  for (auto it = first; it != last; ++it) {
    if (it->id == id && it->level == level) {
      it->refreshed_at = now;
      return;
    }
  }
  // Enforce the per-level sample cap by evicting the stalest same-level
  // entry when full.
  std::size_t level_count = 0;
  auto stalest = last;
  for (auto it = first; it != last; ++it) {
    if (it->level != level) continue;
    ++level_count;
    if (stalest == last || it->refreshed_at < stalest->refreshed_at) {
      stalest = it;
    }
  }
  const Entry fresh{id, static_cast<std::uint32_t>(level), now};
  if (level_count >= samples_per_level_ && stalest != last) {
    // Erase, then append to the track: shift its tail left by one.  No
    // other track moves.
    std::move(stalest + 1, last, stalest);
    *(last - 1) = fresh;
    return;
  }
  SOC_CHECK(entries_.size() < std::numeric_limits<std::uint16_t>::max());
  entries_.insert(last, fresh);
  for (std::size_t u = t + 1; u <= 2 * dims_; ++u) ++begin_[u];
}

void IndexTable::clear_track(std::size_t dim, can::Direction dir) {
  const std::size_t t = track_index(dim, dir);
  const auto n = static_cast<std::uint16_t>(begin_[t + 1] - begin_[t]);
  entries_.erase(entries_.begin() + begin_[t],
                 entries_.begin() + begin_[t + 1]);
  for (std::size_t u = t + 1; u <= 2 * dims_; ++u) begin_[u] -= n;
}

void IndexTable::clear_all() {
  entries_.clear();
  begin_.fill(0);
}

std::optional<NodeId> IndexTable::pick(std::size_t dim, can::Direction dir,
                                       IndexSelectPolicy policy, SimTime now,
                                       Rng& rng) const {
  // Allocation-free: one summary scan over the (tiny) track, then at most
  // two more indexed scans.  Draw order and distribution are identical to
  // the old collect-into-vectors version — live entries visit in track
  // order, the level set enumerates ascending (the sorted-unique order),
  // and each policy makes the same pick_index calls — so selection
  // trajectories are unchanged.
  std::size_t live_count = 0;
  std::uint64_t level_mask = 0;
  NodeId nearest;
  std::size_t nearest_level = ~std::size_t{0};
  for_each_live(dim, dir, now, [&](const Entry& e) {
    ++live_count;
    level_mask |= std::uint64_t{1} << e.level;
    if (e.level < nearest_level) {  // strict: keep the first minimum
      nearest_level = e.level;
      nearest = e.id;
    }
  });
  if (live_count == 0) return std::nullopt;

  // Return the k-th live entry (track order) matching `filter`.
  const auto nth_live = [&](std::size_t k, auto&& filter) {
    NodeId out;
    for_each_live(dim, dir, now, [&](const Entry& e) {
      if (out.valid() || !filter(e)) return;
      if (k-- == 0) out = e.id;
    });
    SOC_CHECK(out.valid());
    return out;
  };

  switch (policy) {
    case IndexSelectPolicy::kRandomPowerLevel: {
      // Random level among those present, then a random sample within it —
      // this is the 2^k randomized selection of the paper.
      std::size_t nth = rng.pick_index(
          static_cast<std::size_t>(std::popcount(level_mask)));
      std::uint64_t mask = level_mask;
      while (nth-- > 0) mask &= mask - 1;  // drop the lowest set bits
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

}  // namespace soc::index
