#include "src/core/host_table.hpp"

#include <bit>

namespace soc::core {

psm::PsmScheduler& HostTable::add(NodeId id, const ResourceVector& capacity) {
  SOC_CHECK_MSG(id.valid() && id.value == alive_.size(),
                "host ids must be sequential");
  alive_.push_back(1);
  next_seq_.push_back(0);
  cold_.push_back(std::make_unique<psm::PsmScheduler>(sim_, capacity));
  fen_append(true);
  ++alive_count_;
  return *cold_.back();
}

void HostTable::mark_departed(NodeId id) {
  SOC_DCHECK(alive(id));
  alive_[id.value] = 0;
  fen_sub(id.value);
  --alive_count_;
}

void HostTable::release_scheduler(NodeId id) {
  SOC_DCHECK(known(id) && alive_[id.value] == 0);
  SOC_DCHECK(!cold_[id.value] || cold_[id.value]->running_count() == 0);
  cold_[id.value].reset();
}

std::size_t HostTable::mem_bytes() const {
  std::size_t live = 0;
  for (const auto& s : cold_) live += s ? 1 : 0;
  return alive_.capacity() * sizeof(std::uint8_t) +
         next_seq_.capacity() * sizeof(std::uint32_t) +
         cold_.capacity() * sizeof(cold_[0]) +
         fen_.capacity() * sizeof(std::uint32_t) +
         live * sizeof(psm::PsmScheduler);
}

std::size_t HostTable::fen_prefix(std::size_t i) const {
  std::size_t s = 0;
  for (; i > 0; i &= i - 1) s += fen_[i];
  return s;
}

void HostTable::fen_append(bool bit) {
  // New 1-based index m covers ids [m - lowbit(m), m); all of it except
  // the new bit is a prefix-sum difference over the existing tree.
  const std::size_t m = fen_.size();  // fen_[0] is the unused root
  if (m == 0) {
    fen_.push_back(0);
    return fen_append(bit);
  }
  const std::size_t lb = m & (~m + 1);
  fen_.push_back(fen_prefix(m - 1) - fen_prefix(m - lb) + (bit ? 1 : 0));
}

void HostTable::fen_sub(std::size_t id) {
  for (std::size_t i = id + 1; i < fen_.size(); i += i & (~i + 1)) {
    --fen_[i];
  }
}

NodeId HostTable::kth_alive(std::size_t k) const {
  SOC_DCHECK(k < alive_count_);
  // Descend the implicit tree: after the loop `pos` is the largest
  // 1-based index whose prefix sum is < k+1, so id `pos` is the answer.
  std::size_t pos = 0;
  std::size_t rem = k + 1;
  for (std::size_t b = std::bit_floor(fen_.size() - 1); b > 0; b >>= 1) {
    const std::size_t next = pos + b;
    if (next < fen_.size() && fen_[next] < rem) {
      pos = next;
      rem -= fen_[next];
    }
  }
  return NodeId(static_cast<std::uint32_t>(pos));
}

}  // namespace soc::core
