#include "src/core/pidcan_protocol.hpp"

#include <utility>

#include "src/common/protocol_params.hpp"

namespace soc::core {

PidCanProtocol::PidCanProtocol(sim::Simulator& sim, net::MessageBus& bus,
                               ResourceVector cmax, PidCanOptions options,
                               Rng rng)
    : CanAdapter(sim, bus, std::move(cmax), options.virtual_dimension ? 1 : 0,
                 rng.fork("can-space"), options.inscan,
                 rng.fork("index-system"), options.maintenance_msgs_per_join,
                 "index.state"),
      options_(options), rng_(rng), engine_(system_) {}

can::Point PidCanProtocol::locate(const ResourceVector& v, Rng& rng) const {
  const can::Point base = can::Point::normalized(v, cmax_);
  if (!options_.virtual_dimension) return base;
  can::Point p(space_.dims());
  for (std::size_t i = 0; i < base.dims(); ++i) p[i] = base[i];
  p[space_.dims() - 1] = rng.uniform();
  return p;
}

void PidCanProtocol::set_availability_source(AvailabilityFn fn) {
  system_.set_availability_provider(
      [this, fn = std::move(fn)](NodeId id) -> std::optional<index::Record> {
        const auto avail = fn(id);
        if (!avail.has_value()) return std::nullopt;
        index::Record r;
        r.provider = id;
        r.availability = *avail;
        r.location = locate(*avail, rng_);
        r.published_at = system_.simulator().now();
        r.expires_at = r.published_at + params::kRecordTtl;
        return r;
      });
}

StaleDebt PidCanProtocol::stale_debt(
    const std::function<bool(NodeId)>& reachable, SimTime now) const {
  StaleDebt debt;
  auto& self = const_cast<PidCanProtocol&>(*this);
  for (const NodeId owner : space_.member_ids()) {
    for (const index::Record& r : self.system_.cache(owner).all_live(now)) {
      if (!reachable(r.provider)) {
        ++debt.dead_provider;
      } else if (space_.owner_of(r.location) != owner) {
        ++debt.misplaced;
      }
    }
  }
  return debt;
}

std::size_t PidCanProtocol::discoverable(const ResourceVector& demand,
                                         SimTime now) const {
  std::size_t n = 0;
  auto& self = const_cast<PidCanProtocol&>(*this);
  for (const NodeId id : space_.member_ids()) {
    n += self.system_.cache(id).qualified_count(demand, now);
  }
  return n;
}

ResourceVector PidCanProtocol::skew_demand(const ResourceVector& e) {
  ResourceVector out(e.size());
  for (std::size_t i = 0; i < e.size(); ++i) {
    const double hi = std::max(e[i], cmax_[i]);
    out[i] = e[i] + rng_.uniform() * (hi - e[i]);
  }
  return out;
}

void PidCanProtocol::query(NodeId requester, const ResourceVector& demand,
                           std::size_t want, QueryCallback cb) {
  if (!options_.slack_on_submission) {
    engine_.submit_k(requester, demand, locate(demand, rng_), want,
                     std::move(cb));
    return;
  }

  // SoS: first query with the skewed vector e' (Eq. 3); if that cannot
  // fulfil the expectation, restore the original e and search again —
  // "twice resource query overhead" as the paper notes.
  const ResourceVector skewed = skew_demand(demand);
  engine_.submit_k(
      requester, skewed, locate(skewed, rng_), want,
      [this, requester, demand, want,
       cb = std::move(cb)](std::vector<Discovered> found) mutable {
        if (found.size() >= want) {
          cb(std::move(found));
          return;
        }
        engine_.submit_k(requester, demand, locate(demand, rng_), want,
                         std::move(cb));
      });
}

}  // namespace soc::core
