#include "src/core/khdn_protocol.hpp"

#include <utility>

namespace soc::core {

KhdnProtocol::KhdnProtocol(sim::Simulator& sim, net::MessageBus& bus,
                           ResourceVector cmax, Rng rng)
    : CanAdapter(sim, bus, std::move(cmax), 0, rng.fork("khdn-space"),
                 khdn::kHops, rng.fork("khdn-system"), 0, "khdn.caches") {}

void KhdnProtocol::set_availability_source(AvailabilityFn fn) {
  system_.set_availability_provider(
      [this, fn = std::move(fn)](NodeId id) -> std::optional<index::Record> {
        const auto avail = fn(id);
        if (!avail.has_value()) return std::nullopt;
        index::Record r;
        r.provider = id;
        r.availability = *avail;
        r.location = can::Point::normalized(*avail, cmax_);
        // Reuse the KHDN record TTL for expiry.
        r.published_at = 0;
        r.expires_at = 0;
        return r;
      });
}

StaleDebt KhdnProtocol::stale_debt(
    const std::function<bool(NodeId)>& reachable, SimTime now) const {
  StaleDebt debt;
  auto& self = const_cast<KhdnProtocol&>(*this);
  for (const NodeId owner : space_.member_ids()) {
    for (const index::Record& r : self.system_.cache(owner).all_live(now)) {
      if (!reachable(r.provider)) ++debt.dead_provider;
    }
  }
  return debt;
}

void KhdnProtocol::query(NodeId requester, const ResourceVector& demand,
                         std::size_t want, QueryCallback cb) {
  system_.query(requester, demand, can::Point::normalized(demand, cmax_),
                want, std::move(cb));
}

}  // namespace soc::core
