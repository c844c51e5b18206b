// Newscast gossip baseline (§IV.A): an unstructured P2P protocol where each
// node keeps a partial view bounded to ~log2(n) entries and periodically
// exchanges views with a random peer, merging by freshness.  Queries scan
// the local view and forward to random view members for a bounded number of
// hops.  The paper tunes the fan-out so its traffic matches PID-CAN's.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/dense_node_map.hpp"
#include "src/common/resource_vector.hpp"
#include "src/common/rng.hpp"
#include "src/net/message_bus.hpp"
#include "src/query/pending.hpp"
#include "src/sim/simulator.hpp"

namespace soc::gossip {

struct ViewEntry {
  NodeId id;
  ResourceVector availability;
  SimTime heard_at = 0;
};

class NewscastSystem {
 public:
  using AvailabilityProvider =
      std::function<std::optional<ResourceVector>(NodeId)>;
  using Callback = query::PendingQueries::Callback;

  /// Views hold at most `view_size` entries (the experiment uses
  /// ≈ log2(n)).
  NewscastSystem(sim::Simulator& sim, net::MessageBus& bus,
                 std::size_t view_size, Rng rng);

  void set_availability_provider(AvailabilityProvider p) {
    provider_ = std::move(p);
  }

  /// Join with a few bootstrap contacts seeding the view.
  void add_node(NodeId id, const std::vector<NodeId>& bootstrap);
  void remove_node(NodeId id);
  [[nodiscard]] bool tracks(NodeId id) const { return nodes_.contains(id); }
  /// Storage density of the node map (slot_span/size).
  [[nodiscard]] double span_ratio() const { return nodes_.span_ratio(); }

  /// Bytes claimed by the gossip views (the dense map plus every view's
  /// entry array; attribution-profiler hook).
  [[nodiscard]] std::size_t mem_bytes() const {
    std::size_t b = nodes_.mem_bytes();
    for (const auto& [id, node] : nodes_) {
      (void)id;
      b += node.view.capacity() * sizeof(ViewEntry);
    }
    return b;
  }

  /// Extract `id`'s view ahead of a partition teardown.
  [[nodiscard]] std::vector<ViewEntry> park_node(NodeId id);
  /// Re-enter `id` with its parked *stale* view: the entries it heard
  /// before the cut become its re-entry contacts, and the periodic gossip
  /// exchange (merge by freshness) reconciles from there.
  void restore_node(NodeId id, std::vector<ViewEntry> view);

  /// One proactive exchange round for `id` (also runs periodically).
  void gossip_now(NodeId id);

  /// Query: scan the local view, then forward along random view members.
  void query(NodeId requester, const ResourceVector& demand,
             std::size_t want, Callback cb);

  [[nodiscard]] const std::vector<ViewEntry>& view_of(NodeId id) const;
  [[nodiscard]] const query::QueryStats& stats() const {
    return queries_.stats();
  }

 private:
  /// A member's state: its view, and the number start_periodic() gave its
  /// exchange process, which retires once the node's record holds another
  /// (the node left or rejoined).
  struct Node {
    std::vector<ViewEntry> view;
    std::uint32_t incarnation = 0;
  };

  /// `id`'s view, or nullptr for an untracked node.
  [[nodiscard]] std::vector<ViewEntry>* find_view(NodeId id) {
    Node* node = nodes_.find(id);
    return node == nullptr ? nullptr : &node->view;
  }
  /// Merge incoming entries into a view: freshest per node, newest first,
  /// truncated to view_size.
  void merge_view(NodeId owner, const std::vector<ViewEntry>& incoming);
  void start_periodic(NodeId id);
  std::vector<ViewEntry> snapshot_with_self(NodeId id);
  void query_hop(std::uint64_t qid, NodeId at, std::size_t ttl);

  sim::Simulator& sim_;
  net::MessageBus& bus_;
  std::size_t view_size_;
  Rng rng_;
  AvailabilityProvider provider_;
  DenseNodeMap<Node> nodes_;  ///< dense by NodeId
  std::uint32_t incarnations_ = 0;  ///< numbers handed out so far
  query::PendingQueries queries_;
};

}  // namespace soc::gossip
