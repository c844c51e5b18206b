#include "src/core/can_protocol.hpp"

#include "src/common/assert.hpp"
#include "src/index/inscan.hpp"
#include "src/khdn/khdn.hpp"

namespace soc::core {

template <class System>
void CanAdapter<System>::bill_maintenance(std::size_t msgs) {
  for (std::size_t i = 0; i < msgs; ++i) {
    bus_.stats().on_synthetic_send(net::MsgType::kMaintenance);
  }
}

template <class System>
void CanAdapter<System>::on_join(NodeId id) {
  space_.join(id);
  system_.add_node(id);
  // The join request routes to the split node and the new neighbor set is
  // notified.
  bill_maintenance(join_route_msgs_ + space_.neighbor_links(id).size());
  // Fresh members publish immediately so they become discoverable before
  // the first periodic update.
  system_.publish_now(id);
}

template <class System>
void CanAdapter<System>::leave_overlay(NodeId id) {
  const std::size_t msgs = space_.neighbor_links(id).size();
  system_.remove_node(id);
  space_.leave(id);
  bill_maintenance(msgs);
}

template <class System>
void CanAdapter<System>::on_leave(NodeId id) {
  // Death drops any parked partition state: there is no host left to rejoin.
  parked_.erase(id);
  if (!space_.contains(id)) return;
  leave_overlay(id);
}

template <class System>
void CanAdapter<System>::on_partition_out(NodeId id) {
  if (!space_.contains(id)) return;
  SOC_CHECK(!parked_.contains(id));
  // Park the state *before* teardown: remove_node then drops only the
  // empty moved-from state.
  parked_.emplace(id, system_.park_node(id));
  leave_overlay(id);
}

template <class System>
void CanAdapter<System>::on_rejoin(NodeId id) {
  const auto it = parked_.find(id);
  if (it == parked_.end()) {
    // Nothing parked (e.g. partitioned before any state existed): fresh join.
    on_join(id);
    return;
  }
  typename System::ParkedNode parked = std::move(it->second);
  parked_.erase(it);
  space_.join(id);
  system_.restore_node(id, std::move(parked));
  // Rejoin pays the same overlay-maintenance bill as a join.
  bill_maintenance(join_route_msgs_ + space_.neighbor_links(id).size());
  system_.publish_now(id);
}

template <class System>
std::vector<NodeId> CanAdapter<System>::parked_ids() const {
  std::vector<NodeId> out;
  out.reserve(parked_.size());
  for (const auto& [id, state] : parked_) out.push_back(id);
  return out;
}

template <class System>
void CanAdapter<System>::mem_breakdown(obs::MemBreakdown& out) const {
  out.add("can.space", space_.mem_bytes());
  out.add(mem_bucket_, system_.mem_bytes());
  std::size_t parked = 0;
  for (const auto& [id, state] : parked_) {
    (void)id;
    parked += state.mem_bytes();
  }
  out.add("core.parked", parked);
}

template class CanAdapter<index::IndexSystem>;
template class CanAdapter<khdn::KhdnSystem>;

}  // namespace soc::core
