// KHDN-CAN baseline (§IV.A): K-Hop DHT-Neighbor range query over CAN.
// When a state message reaches its duty node, the duty node further spreads
// copies to its negative CAN neighbors within K hops; a query routes to the
// duty node of the demand vector and scans that node plus its K-hop
// positive neighborhood for qualified records.  The paper positions this as
// RT-CAN tailored to the SOC environment.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/can/router.hpp"
#include "src/can/space.hpp"
#include "src/common/dense_node_map.hpp"
#include "src/common/stats.hpp"
#include "src/index/record.hpp"
#include "src/net/message_bus.hpp"
#include "src/sim/simulator.hpp"

namespace soc::khdn {

struct KhdnConfig {
  std::size_t k_hops = 2;             ///< spreading/scan radius K
  SimTime record_ttl = seconds(600);
  SimTime state_update_period = seconds(400);
  SimTime query_timeout = seconds(90);
  std::size_t route_ttl = 512;
  std::size_t state_msg_bytes = 200;
  std::size_t query_msg_bytes = 128;
  std::size_t notice_msg_bytes = 160;
  double periodic_jitter = 0.1;
};

class KhdnSystem {
 public:
  using AvailabilityProvider =
      std::function<std::optional<index::Record>(NodeId)>;
  using Callback = std::function<void(std::vector<Discovered>)>;

  KhdnSystem(sim::Simulator& sim, net::MessageBus& bus, can::CanSpace& space,
             KhdnConfig config, Rng rng);

  void set_availability_provider(AvailabilityProvider p) {
    provider_ = std::move(p);
  }

  /// Hook record re-homing into the CanSpace listener.
  void attach_to_space();

  void add_node(NodeId id);
  void remove_node(NodeId id);
  [[nodiscard]] bool tracks(NodeId id) const { return caches_.contains(id); }
  /// Storage density of the duty-cache map (slot_span/size).
  [[nodiscard]] double span_ratio() const { return caches_.span_ratio(); }

  /// Bytes claimed by the duty caches (the dense map plus every
  /// RecordStore's arrays; attribution-profiler hook).
  [[nodiscard]] std::size_t mem_bytes() const {
    std::size_t b = caches_.mem_bytes();
    for (const auto& [id, cache] : caches_) {
      (void)id;
      b += cache.mem_bytes();
    }
    return b;
  }

  /// Extract `id`'s duty cache ahead of a partition teardown (the caller
  /// runs the normal departure path next, which then re-homes nothing).
  [[nodiscard]] index::RecordStore park_node(NodeId id);
  /// Re-enter `id` (already re-joined to the CanSpace) with its parked
  /// stale cache: expired records are pruned, records outside the new zone
  /// are re-routed to their current duty nodes as plain state updates (no
  /// K-hop re-spread — reconciliation is unicast), and the periodic
  /// publisher restarts.
  void restore_node(NodeId id, index::RecordStore cache);

  /// Note: materializes an empty cache for an untracked id (join path);
  /// oracles must stick to tracked_ids().
  [[nodiscard]] index::RecordStore& cache(NodeId id);

  /// Ids with a materialized duty cache, ascending (fuzz/diagnostics).
  [[nodiscard]] std::vector<NodeId> tracked_ids() const;

  /// Membership-consistency oracle (sim_fuzz): duty caches exist exactly
  /// for the CAN member set.  Empty string when consistent.
  [[nodiscard]] std::string check_membership_consistency() const;

  /// Publish `id`'s availability now (also periodic): route to the duty
  /// node, then K-hop negative spread.
  void publish_now(NodeId id);

  /// Query: route to the duty node of `target`, scan it and its K-hop
  /// positive neighborhood.
  void query(NodeId requester, const ResourceVector& demand,
             const can::Point& target, std::size_t want, Callback cb);

 private:
  struct Pending {
    NodeId requester;
    ResourceVector demand;
    std::size_t want;
    std::vector<Discovered> results;
    std::unordered_set<NodeId> seen_providers;
    std::unordered_set<NodeId> visited;
    std::size_t outstanding = 0;
    sim::EventHandle timeout;
    Callback cb;
  };

  void start_periodic(NodeId id);
  void spread(NodeId at, const index::Record& record, std::size_t hops_left);
  void scan_visit(std::uint64_t qid, NodeId at, std::size_t hops_left);
  void finish(std::uint64_t qid);

  sim::Simulator& sim_;
  net::MessageBus& bus_;
  can::CanSpace& space_;
  KhdnConfig config_;
  Rng rng_;
  AvailabilityProvider provider_;
  DenseNodeMap<index::RecordStore> caches_;  ///< dense by NodeId
  /// Scratch for allocation-free directional-neighbor filtering.
  std::vector<NodeId> dir_scratch_;
  /// Scratch for allocation-free qualified-record harvests.
  std::vector<index::Record> record_scratch_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_qid_ = 1;
};

}  // namespace soc::khdn
