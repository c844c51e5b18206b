#include "src/psm/checkpoint.hpp"

#include <algorithm>

namespace soc::psm {

void CheckpointStore::record(TaskId id,
                             const std::array<double, kRateDims>& remaining) {
  entries_[id].remaining = remaining;
}

std::optional<CheckpointStore::Checkpoint> CheckpointStore::lookup(
    TaskId id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::uint32_t CheckpointStore::note_restart(TaskId id) {
  return ++entries_[id].restarts;
}

void CheckpointStore::erase(TaskId id) { entries_.erase(id); }

double CheckpointStore::lost_work(
    TaskId id, const std::array<double, kRateDims>& remaining_now) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return 0.0;
  double lost = 0.0;
  for (std::size_t k = 0; k < kRateDims; ++k) {
    lost += std::max(0.0, it->second.remaining[k] - remaining_now[k]);
  }
  return lost;
}

}  // namespace soc::psm
