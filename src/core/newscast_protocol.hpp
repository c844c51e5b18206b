// Newscast gossip baseline as a DiscoveryProtocol.
#pragma once

#include <map>
#include <vector>

#include "src/core/protocol.hpp"
#include "src/gossip/newscast.hpp"

namespace soc::core {

class NewscastProtocol final : public DiscoveryProtocol {
 public:
  NewscastProtocol(sim::Simulator& sim, net::MessageBus& bus,
                   std::size_t view_size, Rng rng);

  void set_availability_source(AvailabilityFn fn) override;
  void on_join(NodeId id) override;
  void on_leave(NodeId id) override;
  void on_partition_out(NodeId id) override;
  void on_rejoin(NodeId id) override;
  [[nodiscard]] std::vector<NodeId> parked_ids() const override;
  /// Counts fresh (non-expired) view entries naming unreachable providers.
  /// Views have no placement, so "misplaced" stays zero.
  [[nodiscard]] StaleDebt stale_debt(
      const std::function<bool(NodeId)>& reachable,
      SimTime now) const override;
  void query(NodeId requester, const ResourceVector& demand,
             std::size_t want, QueryCallback cb) override;
  [[nodiscard]] double max_slot_span_ratio() const override {
    return system_.span_ratio();
  }
  void mem_breakdown(obs::MemBreakdown& out) const override {
    out.add("gossip.views", system_.mem_bytes());
    std::size_t parked = 0;
    for (const auto& [id, view] : parked_) {
      (void)id;
      parked += view.capacity() * sizeof(gossip::ViewEntry);
    }
    out.add("core.parked", parked);
  }

  [[nodiscard]] gossip::NewscastSystem& system() { return system_; }

 private:
  gossip::NewscastSystem system_;
  Rng rng_;
  std::vector<NodeId> members_;  // for bootstrap sampling
  /// Partitioned-out nodes' parked views, keyed ascending, awaiting rejoin.
  std::map<NodeId, std::vector<gossip::ViewEntry>> parked_;
};

}  // namespace soc::core
