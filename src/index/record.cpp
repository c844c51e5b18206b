#include "src/index/record.hpp"

#include <algorithm>

namespace soc::index {

std::size_t RecordStore::key_lower_bound(NodeId provider) const {
  return static_cast<std::size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), provider) - keys_.begin());
}

std::uint32_t RecordStore::alloc_slot(const Record& r) {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slab_[slot] = r;
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slab_.size());
  slab_.push_back(r);
  return slot;
}

void RecordStore::put(const Record& r) {
  SOC_CHECK(r.provider.valid());
  const std::size_t i = key_lower_bound(r.provider);
  if (i < keys_.size() && keys_[i] == r.provider) {
    slab_[slots_[i]] = r;
    return;
  }
  const std::uint32_t slot = alloc_slot(r);
  keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(i), r.provider);
  slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(i), slot);
}

bool RecordStore::erase(NodeId provider) {
  const std::size_t i = key_lower_bound(provider);
  if (i == keys_.size() || keys_[i] != provider) return false;
  free_.push_back(slots_[i]);
  keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(i));
  slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
  return true;
}

std::size_t RecordStore::live_count(SimTime now) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) n += !at(i).expired(now);
  return n;
}

bool RecordStore::has_live_records(SimTime now) const {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (!at(i).expired(now)) return true;
  }
  return false;
}

void RecordStore::qualified_into(const ResourceVector& demand, SimTime now,
                                 std::vector<Record>& out) const {
  out.clear();
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const Record& r = at(i);
    if (!r.expired(now) && r.qualifies(demand)) out.push_back(r);
  }
}

std::size_t RecordStore::qualified_count(const ResourceVector& demand,
                                         SimTime now) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const Record& r = at(i);
    n += !r.expired(now) && r.qualifies(demand);
  }
  return n;
}

std::vector<Record> RecordStore::qualified(const ResourceVector& demand,
                                           SimTime now) const {
  std::vector<Record> out;
  qualified_into(demand, now, out);
  return out;
}

std::vector<Record> RecordStore::all_live(SimTime now) const {
  std::vector<Record> out;
  out.reserve(keys_.size());
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const Record& r = at(i);
    if (!r.expired(now)) out.push_back(r);
  }
  return out;
}

std::vector<Record> RecordStore::extract_in_zone(const can::Zone& zone,
                                                 SimTime now) {
  std::vector<Record> out;
  std::size_t w = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const Record& r = at(i);
    if (r.expired(now)) {
      free_.push_back(slots_[i]);
      continue;
    }
    if (zone.contains(r.location)) {
      out.push_back(r);
      free_.push_back(slots_[i]);
      continue;
    }
    keys_[w] = keys_[i];
    slots_[w] = slots_[i];
    ++w;
  }
  keys_.resize(w);
  slots_.resize(w);
  return out;
}

std::vector<Record> RecordStore::extract_all() {
  std::vector<Record> out;
  out.reserve(keys_.size());
  for (std::size_t i = 0; i < keys_.size(); ++i) out.push_back(at(i));
  keys_.clear();
  slots_.clear();
  slab_.clear();
  free_.clear();
  return out;
}

void RecordStore::prune(SimTime now) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (at(i).expired(now)) {
      free_.push_back(slots_[i]);
      continue;
    }
    keys_[w] = keys_[i];
    slots_[w] = slots_[i];
    ++w;
  }
  keys_.resize(w);
  slots_.resize(w);
}

bool RecordStore::verify_sorted_unique() const {
  if (keys_.size() != slots_.size()) return false;
  std::vector<bool> used(slab_.size(), false);
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0 && !(keys_[i - 1] < keys_[i])) return false;
    const std::uint32_t slot = slots_[i];
    if (slot >= slab_.size()) return false;
    if (used[slot]) return false;
    used[slot] = true;
    if (!(slab_[slot].provider == keys_[i])) return false;
  }
  for (const std::uint32_t slot : free_) {
    if (slot >= slab_.size()) return false;
    if (used[slot]) return false;
    used[slot] = true;
  }
  for (std::size_t s = 0; s < slab_.size(); ++s) {
    if (!used[s]) return false;
  }
  return true;
}

}  // namespace soc::index
