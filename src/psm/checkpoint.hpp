// Checkpoint store for PSM execution fault-tolerance — the extension the
// paper's §VI names as future work ("study the PSM based execution
// fault-tolerance issues using check-pointing technologies on top of the
// HID-CAN protocol").
//
// Each running task's remaining workload is periodically snapshotted back
// to its origin node; when the execution host churns out, the origin
// re-queries the overlay and restarts the task from its last checkpoint
// instead of losing it.  This class is the origin-side store; the
// snapshot/restart choreography lives in the experiment driver.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "src/common/types.hpp"
#include "src/psm/task.hpp"

namespace soc::psm {

class CheckpointStore {
 public:
  struct Checkpoint {
    std::array<double, kRateDims> remaining{};
    std::uint32_t restarts = 0;  ///< restart count carried across snapshots
  };

  /// Record (or refresh) a snapshot; preserves the restart count.
  void record(TaskId id, const std::array<double, kRateDims>& remaining);

  /// Latest checkpoint for a task, if any.
  [[nodiscard]] std::optional<Checkpoint> lookup(TaskId id) const;

  /// Bump the restart counter; creates the entry if missing (a task that
  /// dies before its first snapshot restarts from the full workload).
  /// Returns the new restart count.
  std::uint32_t note_restart(TaskId id);

  /// Drop the entry (task finished or permanently failed).
  void erase(TaskId id);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Work (rate·seconds, summed over rate dimensions) that would be lost if
  /// the task died now with `remaining_now` left: progress made since the
  /// last checkpoint.  Zero when no checkpoint exists is conservative —
  /// the caller should then count the whole work done so far.
  [[nodiscard]] double lost_work(
      TaskId id, const std::array<double, kRateDims>& remaining_now) const;

 private:
  std::unordered_map<TaskId, Checkpoint> entries_;
};

}  // namespace soc::psm
