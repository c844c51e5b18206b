// Internet model from the paper's experimental setting: nodes are grouped
// into LANs; two nodes in the same LAN communicate at LAN bandwidth
// (5–10 Mbps), nodes in different LANs communicate via their WAN access
// links (0.2–2 Mbps) with ~200 ms one-way WAN delay.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"

namespace soc::net {

/// One-way propagation delay within a LAN and across the WAN (the paper:
/// ~200 ms per WAN delay).
inline constexpr SimTime kLanLatency = millis(1);
inline constexpr SimTime kWanLatency = millis(200);

/// What unit tests vary: small LANs for multi-LAN topologies, and no
/// jitter for exact delays.
struct TopologyConfig {
  std::size_t lan_size = 50;            ///< hosts per LAN
  double latency_jitter = 0.1;          ///< ± fraction applied per message
};

/// Static-plus-growable host topology.  Hosts fill LANs sequentially in
/// arrival order (`lan = host_index / lan_size`): each LAN fills to
/// capacity before the next opens, so churn joins land in the newest LAN —
/// cohort arrivals share a site, which is what makes LAN-level partitions
/// spatially correlated.  (The topology never learns about departures, so
/// alive populations per LAN can drift below lan_size; "balancing" against
/// liveness is not possible at this layer and is deliberately not
/// attempted — the sequential rule is pinned by the golden trajectories.)
class Topology {
 public:
  Topology(TopologyConfig config, Rng rng);

  /// Register a host and return its id.
  NodeId add_host();
  /// Register `n` hosts.
  void add_hosts(std::size_t n);

  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::size_t lan_of(NodeId id) const;
  /// Number of LAN groups opened so far (the last one may be partial).
  [[nodiscard]] std::size_t lan_count() const {
    return lan_bandwidth_mbps_.size();
  }
  [[nodiscard]] bool same_lan(NodeId a, NodeId b) const;

  /// Effective bandwidth between two hosts in Mbps.
  [[nodiscard]] double bandwidth_mbps(NodeId a, NodeId b) const;
  /// WAN access bandwidth of one host in Mbps (Table I per-node draw).
  [[nodiscard]] double wan_bandwidth_mbps(NodeId id) const;

  /// One-way propagation latency between two hosts (no jitter applied).
  [[nodiscard]] SimTime base_latency(NodeId a, NodeId b) const;

  /// Full one-way transfer delay for a message of `bytes` between `a` and
  /// `b`, with deterministic jitter drawn from `jitter_rng`.
  [[nodiscard]] SimTime transfer_delay(NodeId a, NodeId b, std::size_t bytes,
                                       Rng& jitter_rng) const;

 private:
  struct Host {
    std::size_t lan;
    double wan_bandwidth_mbps;
  };

  TopologyConfig config_;
  Rng rng_;
  std::vector<Host> hosts_;
  std::vector<double> lan_bandwidth_mbps_;  // per LAN
};

}  // namespace soc::net
