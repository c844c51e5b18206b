// DenseNodeMap<T>: per-node state keyed by NodeId, stored compactly.
//
// NodeIds are small and allocated sequentially (Topology::add_host hands
// out 0, 1, 2, …; churned-out nodes never reuse an id), so the per-node
// state every subsystem keeps — hosts, CAN members, index caches, gossip
// views — fits a flat array addressed through an id→slot remap.  That
// removes the hash-and-probe from every per-message lookup, which
// profiling after the PR-1 event-queue rewrite showed was the next cost
// on the hot path.
//
// Layout.  `slot_of_[id]` maps an id to its slot in `slots_`; `id_of_`
// is the inverse.  Slots are kept in ascending-id order at all times, so
// iteration is deterministic by construction and callers never
// collect-and-sort to stay seed-stable.  Erase empties the slot but
// leaves it in place (the id keeps mapping to the hole, so the
// park/restore paths that re-emplace an old id — INSCAN/KHDN partition
// rejoin — are O(1) and order-preserving).
//
// Compaction, not id reuse.  Ids never recycle within a run: reusing an
// id would alias RNG fork streams and message targets, breaking same-seed
// bit-identity.  Instead, holes are reclaimed by maybe_compact(), which
// rebuilds `slots_` densely when the span exceeds k·size() (default
// k = 4).  Compaction only moves storage: the surviving ids, their
// values, and their ascending iteration order are untouched, so goldens
// and RNG draw order cannot move.  Without it, a long heavy-churn run
// walks O(max id) per iteration pass and keeps one vacant slot per
// departed node (quantified by dense_node_map_stress_test: ~196 slots
// scanned per live element after 100k churn events over 512 live).
// Callers that erase on departure call maybe_compact() at their own safe
// points — after all outstanding references are dead.
//
// Compared to std::unordered_map<NodeId, T>:
//   * find/at/contains are two array loads and a flag test;
//   * iteration is ascending-id and, after compaction, O(live);
//   * UNLIKE unordered_map, references are NOT stable: emplace/operator[]
//     may grow the backing vectors, and compact()/maybe_compact() moves
//     every stored value.  Do not hold a T&/T* across a call that can
//     admit a node or compact the map.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/types.hpp"

namespace soc {

template <typename T>
class DenseNodeMap {
 public:
  /// Default compaction trigger: compact when span > k·size.
  static constexpr std::size_t kCompactFactor = 4;
  /// Spans below this never compact — the O(span) walk is already cheap.
  static constexpr std::size_t kCompactMinSpan = 64;

  /// Insert a value for `id` (which must not be present).  Returns the
  /// stored value.
  T& emplace(NodeId id, T value) {
    const std::uint32_t s = insert_slot(id);
    slots_[s].emplace(std::move(value));
    ++size_;
    return *slots_[s];
  }

  /// Find-or-default-construct, mirroring std::unordered_map::operator[].
  T& operator[](NodeId id) {
    SOC_DCHECK(id.valid());
    if (T* p = find(id)) return *p;
    const std::uint32_t s = insert_slot(id);
    slots_[s].emplace();
    ++size_;
    return *slots_[s];
  }

  [[nodiscard]] T* find(NodeId id) {
    if (!id.valid() || id.value >= slot_of_.size()) return nullptr;
    const std::uint32_t s = slot_of_[id.value];
    if (s == kNoSlot || !slots_[s].has_value()) return nullptr;
    return &*slots_[s];
  }
  [[nodiscard]] const T* find(NodeId id) const {
    return const_cast<DenseNodeMap*>(this)->find(id);
  }

  [[nodiscard]] bool contains(NodeId id) const { return find(id) != nullptr; }

  T& at(NodeId id) {
    T* p = find(id);
    SOC_CHECK_MSG(p != nullptr, "unknown node id");
    return *p;
  }
  const T& at(NodeId id) const {
    const T* p = find(id);
    SOC_CHECK_MSG(p != nullptr, "unknown node id");
    return *p;
  }

  /// Remove `id`'s value.  Returns whether it was present.  The slot
  /// becomes a hole (reclaimed by the next compaction); the id keeps
  /// mapping to it so a later re-emplace of the same id is O(1).
  bool erase(NodeId id) {
    if (!id.valid() || id.value >= slot_of_.size()) return false;
    const std::uint32_t s = slot_of_[id.value];
    if (s == kNoSlot || !slots_[s].has_value()) return false;
    slots_[s].reset();
    --size_;
    return true;
  }

  void clear() {
    slot_of_.clear();
    slots_.clear();
    id_of_.clear();
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Backing-array length (live slots + holes): what iteration actually
  /// walks.  slot_span() - size() is the vacant-slot count; compaction
  /// drives it back to zero.
  [[nodiscard]] std::size_t slot_span() const { return slots_.size(); }

  /// slot_span() / size(): 1.0 when dense, grows with un-reclaimed
  /// churn holes.  Reported into the BENCH schema as slot_span_ratio.
  [[nodiscard]] double span_ratio() const {
    if (size_ == 0) return 1.0;
    return static_cast<double>(slots_.size()) / static_cast<double>(size_);
  }

  /// Bytes claimed by the map's own backing vectors.  Excludes heap
  /// memory owned by stored T values — attribution-profiler callers walk
  /// the values themselves when T owns heap state.
  [[nodiscard]] std::size_t mem_bytes() const {
    return slot_of_.capacity() * sizeof(std::uint32_t) +
           id_of_.capacity() * sizeof(std::uint32_t) +
           slots_.capacity() * sizeof(std::optional<T>);
  }

  /// Rebuild `slots_` densely when span > factor·size (and the span is
  /// worth the rebuild).  Pure storage motion: ids, values, and ascending
  /// iteration order are preserved; no RNG draws, no events.  Returns
  /// whether a compaction ran.  Invalidates every outstanding T&/T*.
  bool maybe_compact(std::size_t factor = kCompactFactor) {
    if (slots_.size() < kCompactMinSpan) return false;
    if (slots_.size() <= factor * size_) return false;
    compact();
    return true;
  }

  /// Unconditional dense rebuild (testing / explicit shrink).
  void compact() {
    std::vector<std::optional<T>> dense;
    std::vector<std::uint32_t> dense_ids;
    dense.reserve(size_);
    dense_ids.reserve(size_);
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (!slots_[s].has_value()) {
        slot_of_[id_of_[s]] = kNoSlot;  // hole: drop the retained mapping
        continue;
      }
      slot_of_[id_of_[s]] = static_cast<std::uint32_t>(dense.size());
      dense_ids.push_back(id_of_[s]);
      dense.push_back(std::move(slots_[s]));
    }
    slots_ = std::move(dense);
    id_of_ = std::move(dense_ids);
  }

  /// Iteration in ascending id order; *it is a {NodeId, T&} pair.
  template <bool Const>
  class Iterator {
   public:
    using Map = std::conditional_t<Const, const DenseNodeMap, DenseNodeMap>;
    using Ref = std::conditional_t<Const, const T&, T&>;

    Iterator(Map* map, std::uint32_t idx) : map_(map), idx_(idx) { skip(); }

    std::pair<NodeId, Ref> operator*() const {
      return {NodeId(map_->id_of_[idx_]), *map_->slots_[idx_]};
    }
    Iterator& operator++() {
      ++idx_;
      skip();
      return *this;
    }
    bool operator==(const Iterator& o) const { return idx_ == o.idx_; }

   private:
    void skip() {
      while (idx_ < map_->slots_.size() && !map_->slots_[idx_].has_value()) {
        ++idx_;
      }
    }
    Map* map_;
    std::uint32_t idx_;
  };

  [[nodiscard]] Iterator<false> begin() { return {this, 0}; }
  [[nodiscard]] Iterator<false> end() {
    return {this, static_cast<std::uint32_t>(slots_.size())};
  }
  [[nodiscard]] Iterator<true> begin() const { return {this, 0}; }
  [[nodiscard]] Iterator<true> end() const {
    return {this, static_cast<std::uint32_t>(slots_.size())};
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Reserve the slot a new value for `id` will occupy, keeping `slots_`
  /// in ascending-id order.  Three cases, by frequency:
  ///   1. the id still maps to its erased hole → reuse it in place (O(1);
  ///      the park/restore re-emplace path);
  ///   2. the id is larger than anything stored → append (O(1); the
  ///      sequential-allocation common case);
  ///   3. the id's hole was compacted away and smaller ids arrived since
  ///      → sorted middle insert with slot_of_ fixup (O(span); only
  ///      reachable by a restore that straddles a compaction — rare by
  ///      construction).
  std::uint32_t insert_slot(NodeId id) {
    SOC_DCHECK(id.valid());
    SOC_CHECK_MSG(!contains(id), "duplicate node id");
    if (id.value >= slot_of_.size()) slot_of_.resize(id.value + 1, kNoSlot);
    std::uint32_t s = slot_of_[id.value];
    if (s != kNoSlot) return s;  // case 1: retained hole, order unchanged
    if (id_of_.empty() || id.value > id_of_.back()) {  // case 2: append
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      id_of_.push_back(id.value);
    } else {  // case 3: middle insert
      const auto it =
          std::lower_bound(id_of_.begin(), id_of_.end(), id.value);
      s = static_cast<std::uint32_t>(it - id_of_.begin());
      id_of_.insert(it, id.value);
      slots_.insert(slots_.begin() + s, std::optional<T>());
      for (std::size_t j = s + 1; j < id_of_.size(); ++j) {
        slot_of_[id_of_[j]] = static_cast<std::uint32_t>(j);
      }
    }
    slot_of_[id.value] = s;
    return s;
  }

  std::vector<std::uint32_t> slot_of_;       // id → slot (kNoSlot: absent)
  std::vector<std::optional<T>> slots_;      // ascending-id values + holes
  std::vector<std::uint32_t> id_of_;         // slot → id (holes keep theirs)
  std::size_t size_ = 0;
};

}  // namespace soc
