#include "src/core/pidcan_protocol.hpp"

#include <utility>

#include "src/common/assert.hpp"
#include "src/psm/task.hpp"

namespace soc::core {

PidCanProtocol::PidCanProtocol(sim::Simulator& sim, net::MessageBus& bus,
                               ResourceVector cmax, PidCanOptions options,
                               Rng rng)
    : cmax_(std::move(cmax)), options_(options), rng_(rng),
      dims_(cmax_.size() + (options.virtual_dimension ? 1 : 0)),
      space_(dims_, rng_.fork("can-space")),
      index_(sim, bus, space_, options.inscan, rng_.fork("index-system")),
      engine_(index_, options.query), bus_(bus) {
  index_.attach_to_space();
}

std::string PidCanProtocol::name() const {
  std::string n = options_.inscan.diffusion == index::DiffusionMethod::kHopping
                      ? "HID-CAN"
                      : "SID-CAN";
  if (options_.slack_on_submission) n += "+SoS";
  if (options_.virtual_dimension) n += "+VD";
  return n;
}

can::Point PidCanProtocol::locate(const ResourceVector& v, Rng& rng) const {
  const can::Point base = can::Point::normalized(v, cmax_);
  if (!options_.virtual_dimension) return base;
  can::Point p(dims_);
  for (std::size_t i = 0; i < base.dims(); ++i) p[i] = base[i];
  p[dims_ - 1] = rng.uniform();
  return p;
}

void PidCanProtocol::set_availability_source(AvailabilityFn fn) {
  index_.set_availability_provider(
      [this, fn = std::move(fn)](NodeId id) -> std::optional<index::Record> {
        const auto avail = fn(id);
        if (!avail.has_value()) return std::nullopt;
        index::Record r;
        r.provider = id;
        r.availability = *avail;
        r.location = locate(*avail, rng_);
        r.published_at = index_.simulator().now();
        r.expires_at = r.published_at + options_.inscan.record_ttl;
        return r;
      });
}

void PidCanProtocol::on_join(NodeId id) {
  space_.join(id);
  index_.add_node(id);
  // Account the join's overlay maintenance traffic: the join request routes
  // to the split node and the new neighbor set is notified.
  const std::size_t msgs =
      options_.maintenance_msgs_per_join + space_.neighbors_of(id).size();
  for (std::size_t i = 0; i < msgs; ++i) {
    bus_.stats().on_synthetic_send(id, net::MsgType::kMaintenance, 64);
  }
  // Fresh members publish immediately so they become discoverable before
  // the first periodic update.
  index_.publish_now(id);
}

void PidCanProtocol::leave_overlay(NodeId id) {
  const std::size_t msgs = space_.neighbors_of(id).size();
  index_.remove_node(id);
  space_.leave(id);
  for (std::size_t i = 0; i < msgs; ++i) {
    bus_.stats().on_synthetic_send(id, net::MsgType::kMaintenance, 64);
  }
}

void PidCanProtocol::on_leave(NodeId id) {
  // Death drops any parked partition state: there is no host left to rejoin.
  parked_.erase(id);
  if (!space_.contains(id)) return;
  leave_overlay(id);
}

void PidCanProtocol::on_partition_out(NodeId id) {
  if (!space_.contains(id)) return;
  SOC_CHECK(!parked_.contains(id));
  // Park the INSCAN state *before* teardown: remove_node then finds empty
  // moved-from state and re-homes nothing to the takeover node.
  parked_.emplace(id, index_.park_node(id));
  leave_overlay(id);
}

void PidCanProtocol::on_rejoin(NodeId id) {
  const auto it = parked_.find(id);
  if (it == parked_.end()) {
    // Nothing parked (e.g. partitioned before any state existed): fresh join.
    on_join(id);
    return;
  }
  index::IndexSystem::ParkedNode parked = std::move(it->second);
  parked_.erase(it);
  space_.join(id);
  index_.restore_node(id, std::move(parked));
  // Rejoin pays the same overlay-maintenance bill as a join: the zone
  // re-split routes and the new neighbor set is notified.
  const std::size_t msgs =
      options_.maintenance_msgs_per_join + space_.neighbors_of(id).size();
  for (std::size_t i = 0; i < msgs; ++i) {
    bus_.stats().on_synthetic_send(id, net::MsgType::kMaintenance, 64);
  }
  index_.publish_now(id);
}

std::vector<NodeId> PidCanProtocol::parked_ids() const {
  std::vector<NodeId> out;
  out.reserve(parked_.size());
  for (const auto& [id, state] : parked_) out.push_back(id);
  return out;
}

StaleDebt PidCanProtocol::stale_debt(
    const std::function<bool(NodeId)>& reachable, SimTime now) const {
  StaleDebt debt;
  auto& self = const_cast<PidCanProtocol&>(*this);
  for (const NodeId owner : space_.member_ids()) {
    for (const index::Record& r : self.index_.cache(owner).all_live(now)) {
      if (!reachable(r.provider)) {
        ++debt.dead_provider;
      } else if (space_.owner_of(r.location) != owner) {
        ++debt.misplaced;
      }
    }
  }
  return debt;
}

void PidCanProtocol::republish(NodeId id) {
  if (space_.contains(id)) index_.publish_now(id);
}

std::size_t PidCanProtocol::discoverable(const ResourceVector& demand,
                                         SimTime now) const {
  std::size_t n = 0;
  auto& self = const_cast<PidCanProtocol&>(*this);
  for (const NodeId id : space_.member_ids()) {
    n += self.index_.cache(id).qualified_count(demand, now);
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
