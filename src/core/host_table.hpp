// HostTable: the SoA replacement for Experiment's per-host AoS struct.
//
// The hot fields — the alive flag (the bus liveness callback reads it on
// every delivery) and the per-host task sequence (read on every
// submission) — live in flat parallel vectors indexed directly by NodeId
// (host ids are handed out sequentially by Topology::add_host and, unlike
// overlay state, host entries are never erased: a departed host keeps its
// row with alive=false, so id == row index for the whole run).  Cold
// state — the PsmScheduler, which holds the host's capacity and its
// running-task map (288 bytes on x86-64) — is owned through one unique_ptr
// per host: scheduler completion closures capture `this`, so a
// scheduler's address must not move when the table grows.  A dead host
// whose scheduler has drained (no running tasks) can release it, so cold
// memory tracks live + detached-busy hosts instead of total hosts ever.
//
// Alive-order statistics.  Churn picks "the k-th alive host in ascending
// id order"; materializing the alive list per churn event is O(total
// hosts ever).  The table keeps a Fenwick tree over the alive bits, so
// alive_count() is O(1)-maintained and kth_alive(k) is O(log n) while
// selecting exactly the same host the sorted-list scan would — bit-for-
// bit identical trajectories, three orders of magnitude less scanning at
// 1M nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/resource_vector.hpp"
#include "src/common/types.hpp"
#include "src/psm/scheduler.hpp"

namespace soc::core {

class HostTable {
 public:
  explicit HostTable(sim::Simulator& sim) : sim_(sim) {}

  /// Append the next host (ids must arrive sequentially: id == size()).
  /// Constructs its scheduler, which holds the capacity, and returns it so
  /// the caller can attach the finish callback.
  psm::PsmScheduler& add(NodeId id, const ResourceVector& capacity);

  /// Rows ever created (alive + departed).
  [[nodiscard]] std::size_t size() const { return alive_.size(); }
  [[nodiscard]] bool known(NodeId id) const {
    return id.valid() && id.value < alive_.size();
  }
  [[nodiscard]] bool alive(NodeId id) const {
    return known(id) && alive_[id.value] != 0;
  }
  void mark_departed(NodeId id);

  /// Post-increment the host's task sequence number.
  [[nodiscard]] std::uint32_t bump_seq(NodeId id) {
    SOC_DCHECK(known(id));
    return next_seq_[id.value]++;
  }

  /// The host's scheduler, or nullptr once it was released (only possible
  /// for departed hosts with no running tasks).
  [[nodiscard]] psm::PsmScheduler* scheduler(NodeId id) {
    return known(id) ? cold_[id.value].get() : nullptr;
  }
  [[nodiscard]] const psm::PsmScheduler* scheduler(NodeId id) const {
    return known(id) ? cold_[id.value].get() : nullptr;
  }

  /// Destroy a drained dead host's scheduler.
  /// Caller must ensure the host is departed and nothing is running (the
  /// scheduler then has no pending completion event, so no scheduled
  /// closure still captures its address).
  void release_scheduler(NodeId id);

  [[nodiscard]] std::size_t alive_count() const { return alive_count_; }

  /// The k-th alive host in ascending id order (0-based, k <
  /// alive_count()): Fenwick order-statistics select, equal by definition
  /// to sorting the alive ids and indexing.
  [[nodiscard]] NodeId kth_alive(std::size_t k) const;

  /// Bytes claimed by the SoA vectors plus the live schedulers (a scan
  /// at report time); attribution-profiler hook.  Scheduler-internal task
  /// maps are not walked — the fixed PsmScheduler footprint is the
  /// dominant cold term.
  [[nodiscard]] std::size_t mem_bytes() const;

 private:
  // Fenwick tree over alive bits, 1-based: fen_[i] covers ids
  // [i - lowbit(i), i).  Appending host m computes fen_[m] from prefix
  // sums of the already-built tree, so joins stay O(log n).
  [[nodiscard]] std::size_t fen_prefix(std::size_t i) const;  // ids [0, i)
  void fen_append(bool bit);
  void fen_sub(std::size_t id);

  sim::Simulator& sim_;

  std::vector<std::uint8_t> alive_;         // hot: bus liveness per message
  std::vector<std::uint32_t> next_seq_;     // hot: per-submission
  std::vector<std::unique_ptr<psm::PsmScheduler>> cold_;  // null: released
  std::vector<std::uint32_t> fen_;          // alive-bit Fenwick tree
  std::size_t alive_count_ = 0;
};

}  // namespace soc::core
