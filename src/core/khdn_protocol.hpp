// KHDN-CAN baseline as a DiscoveryProtocol.
#pragma once

#include "src/core/can_protocol.hpp"
#include "src/khdn/khdn.hpp"

namespace soc::core {

class KhdnProtocol final : public CanAdapter<khdn::KhdnSystem> {
 public:
  /// K-hop spread and scan with K = khdn::kHops.
  KhdnProtocol(sim::Simulator& sim, net::MessageBus& bus, ResourceVector cmax,
               Rng rng);

  void set_availability_source(AvailabilityFn fn) override;
  /// Counts dead-provider records only: the K-hop spread *intentionally*
  /// replicates records away from the duty node, so "misplaced" is not a
  /// defect for KHDN and stays zero.
  [[nodiscard]] StaleDebt stale_debt(
      const std::function<bool(NodeId)>& reachable,
      SimTime now) const override;
  void query(NodeId requester, const ResourceVector& demand,
             std::size_t want, QueryCallback cb) override;
};

}  // namespace soc::core
