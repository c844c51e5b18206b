#include "src/net/topology.hpp"

#include <algorithm>

namespace soc::net {

namespace {
/// Table I: LAN 5–10 Mbps, WAN access 0.2–2 Mbps.
constexpr double kLanMbpsLo = 5.0, kLanMbpsHi = 10.0;
constexpr double kWanMbpsLo = 0.2, kWanMbpsHi = 2.0;
}  // namespace

Topology::Topology(TopologyConfig config, Rng rng)
    : config_(config), rng_(rng) {
  SOC_CHECK(config_.lan_size > 0);
}

NodeId Topology::add_host() {
  const std::size_t lan = hosts_.size() / config_.lan_size;
  if (lan >= lan_bandwidth_mbps_.size()) {
    lan_bandwidth_mbps_.push_back(rng_.uniform(kLanMbpsLo, kLanMbpsHi));
  }
  hosts_.push_back(Host{lan, rng_.uniform(kWanMbpsLo, kWanMbpsHi)});
  return NodeId(static_cast<std::uint32_t>(hosts_.size() - 1));
}

void Topology::add_hosts(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) add_host();
}

std::size_t Topology::lan_of(NodeId id) const {
  SOC_CHECK(id.value < hosts_.size());
  return hosts_[id.value].lan;
}

bool Topology::same_lan(NodeId a, NodeId b) const {
  return lan_of(a) == lan_of(b);
}

double Topology::wan_bandwidth_mbps(NodeId id) const {
  SOC_CHECK(id.value < hosts_.size());
  return hosts_[id.value].wan_bandwidth_mbps;
}

double Topology::bandwidth_mbps(NodeId a, NodeId b) const {
  if (same_lan(a, b)) return lan_bandwidth_mbps_[lan_of(a)];
  return std::min(wan_bandwidth_mbps(a), wan_bandwidth_mbps(b));
}

SimTime Topology::base_latency(NodeId a, NodeId b) const {
  return same_lan(a, b) ? kLanLatency : kWanLatency;
}

SimTime Topology::transfer_delay(NodeId a, NodeId b, std::size_t bytes,
                                 Rng& jitter_rng) const {
  const double bits = static_cast<double>(bytes) * 8.0;
  const double mbps = bandwidth_mbps(a, b);
  const double serialization_s = bits / (mbps * 1e6);
  SimTime delay = base_latency(a, b) + seconds(serialization_s);
  if (config_.latency_jitter > 0.0) {
    const double f = 1.0 + config_.latency_jitter *
                               (2.0 * jitter_rng.uniform() - 1.0);
    delay = static_cast<SimTime>(static_cast<double>(delay) * f);
  }
  return std::max<SimTime>(delay, 1);
}

}  // namespace soc::net
