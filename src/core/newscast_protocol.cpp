#include "src/core/newscast_protocol.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/common/protocol_params.hpp"

namespace soc::core {

NewscastProtocol::NewscastProtocol(sim::Simulator& sim, net::MessageBus& bus,
                                   std::size_t view_size, Rng rng)
    : system_(sim, bus, view_size, rng.fork("newscast")),
      rng_(rng.fork("newscast-protocol")) {}

void NewscastProtocol::set_availability_source(AvailabilityFn fn) {
  system_.set_availability_provider(std::move(fn));
}

void NewscastProtocol::on_join(NodeId id) {
  // Bootstrap contacts: a random sample of current members (a tracker or
  // any out-of-band introduction service would provide these).
  std::vector<NodeId> bootstrap;
  if (!members_.empty()) {
    for (const std::size_t i :
         rng_.sample_indices(members_.size(), std::size_t{8})) {
      bootstrap.push_back(members_[i]);
    }
  }
  system_.add_node(id, bootstrap);
  members_.push_back(id);
}

void NewscastProtocol::on_leave(NodeId id) {
  // Death drops any parked partition state: there is no host left to rejoin.
  parked_.erase(id);
  system_.remove_node(id);
  members_.erase(std::remove(members_.begin(), members_.end(), id),
                 members_.end());
}

void NewscastProtocol::on_partition_out(NodeId id) {
  if (!system_.tracks(id)) return;
  SOC_CHECK(!parked_.contains(id));
  parked_.emplace(id, system_.park_node(id));
  system_.remove_node(id);
  members_.erase(std::remove(members_.begin(), members_.end(), id),
                 members_.end());
}

void NewscastProtocol::on_rejoin(NodeId id) {
  const auto it = parked_.find(id);
  if (it == parked_.end()) {
    on_join(id);
    return;
  }
  std::vector<gossip::ViewEntry> view = std::move(it->second);
  parked_.erase(it);
  // The stale pre-cut view is the node's only way back in: its surviving
  // entries are the re-entry contacts, and merge-by-freshness gossip
  // reconciles from there.  No tracker re-introduction on heal.
  system_.restore_node(id, std::move(view));
  members_.push_back(id);
}

std::vector<NodeId> NewscastProtocol::parked_ids() const {
  std::vector<NodeId> out;
  out.reserve(parked_.size());
  for (const auto& [id, view] : parked_) out.push_back(id);
  return out;
}

StaleDebt NewscastProtocol::stale_debt(
    const std::function<bool(NodeId)>& reachable, SimTime now) const {
  StaleDebt debt;
  for (const NodeId id : members_) {
    for (const gossip::ViewEntry& e : system_.view_of(id)) {
      if ((now - e.heard_at) >= params::kRecordTtl) continue;
      if (!reachable(e.id)) ++debt.dead_provider;
    }
  }
  return debt;
}

void NewscastProtocol::query(NodeId requester, const ResourceVector& demand,
                             std::size_t want, QueryCallback cb) {
  system_.query(requester, demand, want, std::move(cb));
}

}  // namespace soc::core
