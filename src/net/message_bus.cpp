#include "src/net/message_bus.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace soc::net {

std::string_view msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kStateUpdate:
      return "state-update";
    case MsgType::kIndexDiffuse:
      return "index-diffuse";
    case MsgType::kIndexProbe:
      return "index-probe";
    case MsgType::kDutyQuery:
      return "duty-query";
    case MsgType::kIndexAgent:
      return "index-agent";
    case MsgType::kIndexJump:
      return "index-jump";
    case MsgType::kFoundNotice:
      return "found-notice";
    case MsgType::kGossip:
      return "gossip";
    case MsgType::kKhdnSpread:
      return "khdn-spread";
    case MsgType::kDispatch:
      return "dispatch";
    case MsgType::kMaintenance:
      return "maintenance";
    case MsgType::kCount:
      break;
  }
  return "?";
}

void TrafficStats::on_send(NodeId /*from*/, MsgType type, std::size_t bytes) {
  ++by_type_[static_cast<std::size_t>(type)];
  ++in_flight_[static_cast<std::size_t>(type)];
  bytes_ += bytes;
}

void TrafficStats::on_synthetic_send(NodeId /*from*/, MsgType type,
                                     std::size_t bytes) {
  ++by_type_[static_cast<std::size_t>(type)];
  ++synthetic_[static_cast<std::size_t>(type)];
  bytes_ += bytes;
}

void TrafficStats::on_delivered(MsgType type) {
  SOC_DCHECK(in_flight_[static_cast<std::size_t>(type)] > 0);
  --in_flight_[static_cast<std::size_t>(type)];
  ++delivered_[static_cast<std::size_t>(type)];
}

void TrafficStats::on_lost(MsgType type) {
  SOC_DCHECK(in_flight_[static_cast<std::size_t>(type)] > 0);
  --in_flight_[static_cast<std::size_t>(type)];
  ++lost_[static_cast<std::size_t>(type)];
}

void TrafficStats::on_partitioned(MsgType type) {
  SOC_DCHECK(in_flight_[static_cast<std::size_t>(type)] > 0);
  --in_flight_[static_cast<std::size_t>(type)];
  ++partitioned_[static_cast<std::size_t>(type)];
}

std::uint64_t TrafficStats::sent(MsgType type) const {
  return by_type_[static_cast<std::size_t>(type)];
}

std::uint64_t TrafficStats::delivered(MsgType type) const {
  return delivered_[static_cast<std::size_t>(type)];
}

std::uint64_t TrafficStats::lost(MsgType type) const {
  return lost_[static_cast<std::size_t>(type)];
}

std::uint64_t TrafficStats::partitioned(MsgType type) const {
  return partitioned_[static_cast<std::size_t>(type)];
}

std::uint64_t TrafficStats::total_partitioned() const {
  return std::accumulate(partitioned_.begin(), partitioned_.end(),
                         std::uint64_t{0});
}

std::uint64_t TrafficStats::total_sent() const {
  return std::accumulate(by_type_.begin(), by_type_.end(), std::uint64_t{0});
}

std::uint64_t TrafficStats::total_delivered() const {
  return std::accumulate(delivered_.begin(), delivered_.end(),
                         std::uint64_t{0});
}

std::uint64_t TrafficStats::total_lost() const {
  return std::accumulate(lost_.begin(), lost_.end(), std::uint64_t{0});
}

std::uint64_t TrafficStats::in_flight(MsgType type) const {
  return in_flight_[static_cast<std::size_t>(type)];
}

std::uint64_t TrafficStats::total_in_flight() const {
  return std::accumulate(in_flight_.begin(), in_flight_.end(),
                         std::uint64_t{0});
}

std::uint64_t TrafficStats::synthetic(MsgType type) const {
  return synthetic_[static_cast<std::size_t>(type)];
}

double TrafficStats::per_node_cost(std::size_t node_count) const {
  SOC_CHECK(node_count > 0);
  return static_cast<double>(total_sent()) / static_cast<double>(node_count);
}

void TrafficStats::reset() {
  by_type_.fill(0);
  delivered_.fill(0);
  lost_.fill(0);
  partitioned_.fill(0);
  in_flight_.fill(0);
  synthetic_.fill(0);
  bytes_ = 0;
}

MessageBus::MessageBus(sim::Simulator& sim, const Topology& topo)
    : sim_(sim), topo_(topo), jitter_rng_(sim.rng().fork("message-bus")) {}

void MessageBus::set_liveness(std::function<bool(NodeId)> is_alive) {
  is_alive_ = std::move(is_alive);
}

void MessageBus::enable_link_faults(const LinkFaultConfig& config) {
  SOC_CHECK(config.enabled);
  link_model_ =
      std::make_unique<LinkModel>(topo_, config, sim_.rng().fork("link-model"));
}

void MessageBus::set_partition(std::vector<std::size_t> cut_lans) {
  SOC_CHECK(!cut_lans.empty());
  cut_lans_ = std::move(cut_lans);
  std::sort(cut_lans_.begin(), cut_lans_.end());
}

void MessageBus::clear_partition() { cut_lans_.clear(); }

bool MessageBus::in_partition_cut(NodeId id) const {
  return std::binary_search(cut_lans_.begin(), cut_lans_.end(),
                            topo_.lan_of(id));
}

void MessageBus::send(NodeId from, NodeId to, MsgType type, std::size_t bytes,
                      DeliverFn on_deliver) {
  SOC_CHECK(from.valid() && to.valid());
  stats_.on_send(from, type, bytes);
  if (from == to) {
    // Loopback: negligible but strictly positive delay for causality; never
    // touches the network, so partitions and link faults do not apply.
    schedule_delivery(1, to, type, Fate::kDeliver, std::move(on_deliver));
    return;
  }
  SimTime delay = topo_.transfer_delay(from, to, bytes, jitter_rng_);

  if (partition_active() && in_partition_cut(from) != in_partition_cut(to)) {
    // Sealed at send time: the message is already on a link that just went
    // dark.  It is resolved (and accounted) at its would-be arrival.
    schedule_delivery(delay, to, type, Fate::kPartitioned,
                      std::move(on_deliver));
    return;
  }

  Fate fate = Fate::kDeliver;
  bool duplicate = false;
  SimTime dup_delay = delay;
  if (link_model_) {
    const LinkModel::Fate f = link_model_->apply(from, to);
    if (f.lost) fate = Fate::kLost;
    delay = std::max<SimTime>(
        static_cast<SimTime>(static_cast<double>(delay) * f.delay_multiplier) +
            f.extra_delay,
        1);
    if (f.duplicate && fate == Fate::kDeliver) {
      duplicate = true;
      dup_delay = std::max<SimTime>(
          static_cast<SimTime>(static_cast<double>(delay) *
                               f.duplicate_delay_factor),
          delay + 1);
    }
  }

  if (!duplicate) {
    schedule_delivery(delay, to, type, fate, std::move(on_deliver));
    return;
  }
  // Duplication: the copy is real traffic, billed as a second send so the
  // conservation law stays exact.  The callback is shared (InlineFn is
  // move-only but repeatedly invocable); each arrival invokes it once.
  stats_.on_send(from, type, bytes);
  auto shared = std::make_shared<DeliverFn>(std::move(on_deliver));
  schedule_delivery(delay, to, type, fate, DeliverFn([shared] {
                      if (*shared) (*shared)();
                    }));
  schedule_delivery(dup_delay, to, type, fate, DeliverFn([shared] {
                      if (*shared) (*shared)();
                    }));
}

void MessageBus::schedule_delivery(SimTime delay, NodeId to, MsgType type,
                                   Fate fate, DeliverFn&& fn) {
  // One event slot per in-flight message: EventFn's buffer is sized to the
  // delivery record, so a field added here must grow both together rather
  // than silently cost one heap allocation per message.
  static_assert(sim::EventFn::kStoresInline<Delivery> &&
                    sizeof(Delivery) == sim::EventFn::kInlineSize,
                "a delivery record must fill exactly one event slot");
  ++in_flight_;
  sim_.schedule_after(delay, Delivery{this, to, type, fate, std::move(fn)});
}

void MessageBus::Delivery::operator()() {
  --bus->in_flight_;
  TrafficStats& stats = bus->stats_;
  if (fate == Fate::kPartitioned) {
    stats.on_partitioned(type);  // swallowed by the cut
    return;
  }
  if (fate == Fate::kLost) {
    stats.on_lost(type);  // burst loss on the link
    return;
  }
  if (bus->is_alive_ && !bus->is_alive_(to)) {
    stats.on_lost(type);  // message lost to churn
    return;
  }
  stats.on_delivered(type);
  if (!fn) return;
  if (obs::TimeProfiler* profiler = bus->profiler_) {
    const std::uint64_t t0 = obs::wall_now_ns();
    fn();
    profiler->record_ns(static_cast<std::size_t>(type),
                        obs::wall_now_ns() - t0);
    return;
  }
  fn();
}

}  // namespace soc::net
