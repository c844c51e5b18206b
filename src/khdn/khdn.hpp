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
#include <vector>

#include "src/can/router.hpp"
#include "src/can/space.hpp"
#include "src/common/dense_node_map.hpp"
#include "src/common/protocol_params.hpp"
#include "src/index/record.hpp"
#include "src/net/message_bus.hpp"
#include "src/query/pending.hpp"
#include "src/sim/simulator.hpp"

namespace soc::khdn {

/// The spreading and scan radius K of the §IV.A comparison.
inline constexpr std::size_t kHops = 2;

class KhdnSystem {
 public:
  using AvailabilityProvider =
      std::function<std::optional<index::Record>(NodeId)>;
  using Callback = query::PendingQueries::Callback;
  /// What core::CanAdapter hands the constructor: K.
  using Config = std::size_t;
  /// A partitioned-out member's state: its duty cache.
  using ParkedNode = index::RecordStore;

  /// Installs the CanSpace rehome listener, so records re-home on zone
  /// changes.
  KhdnSystem(sim::Simulator& sim, net::MessageBus& bus, can::CanSpace& space,
             std::size_t k_hops, Rng rng);
  KhdnSystem(const KhdnSystem&) = delete;
  KhdnSystem& operator=(const KhdnSystem&) = delete;

  void set_availability_provider(AvailabilityProvider p) {
    provider_ = std::move(p);
  }

  void add_node(NodeId id);
  void remove_node(NodeId id);
  [[nodiscard]] bool tracks(NodeId id) const { return nodes_.contains(id); }
  /// Storage density of the node map (slot_span/size).
  [[nodiscard]] double span_ratio() const { return nodes_.span_ratio(); }

  /// Bytes claimed by the duty caches (the dense map plus every
  /// RecordStore's arrays; attribution-profiler hook).
  [[nodiscard]] std::size_t mem_bytes() const {
    std::size_t b = nodes_.mem_bytes();
    for (const auto& [id, node] : nodes_) {
      (void)id;
      b += node.cache.mem_bytes();
    }
    return b;
  }

  /// Extract `id`'s duty cache ahead of a partition teardown (the caller
  /// runs the normal departure path next, which hands no record to the
  /// takeover node).
  [[nodiscard]] index::RecordStore park_node(NodeId id);
  /// Re-enter `id` (already re-joined to the CanSpace) with its parked
  /// stale cache: index::reconcile_parked() re-routes the records outside
  /// the new zone as plain state updates (no K-hop re-spread —
  /// reconciliation is unicast), and the periodic publisher restarts.
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
  /// A member's state: its duty cache, and the number start_periodic()
  /// gave its publisher, which retires once the node's record holds
  /// another (the node left or rejoined).
  struct Node {
    index::RecordStore cache;
    std::uint32_t incarnation = 0;
  };

  void start_periodic(NodeId id);
  void spread(NodeId at, const index::Record& record, std::size_t hops_left);
  void scan_visit(std::uint64_t qid, NodeId at, std::size_t hops_left);

  sim::Simulator& sim_;
  net::MessageBus& bus_;
  can::CanSpace& space_;
  std::size_t k_hops_;
  Rng rng_;
  AvailabilityProvider provider_;
  DenseNodeMap<Node> nodes_;  ///< dense by NodeId
  std::uint32_t incarnations_ = 0;  ///< numbers handed out so far
  /// Scratch for allocation-free directional-neighbor filtering.
  std::vector<NodeId> dir_scratch_;
  /// Scratch for allocation-free qualified-record harvests.
  std::vector<index::Record> record_scratch_;
  query::PendingQueries queries_;
  can::GreedyRouter<> router_;
};

}  // namespace soc::khdn
