// Newscast gossip baseline (§IV.A): an unstructured P2P protocol where each
// node keeps a partial view bounded to ~log2(n) entries and periodically
// exchanges views with a random peer, merging by freshness.  Queries scan
// the local view and forward to random view members for a bounded number of
// hops.  The paper tunes the fan-out so its traffic matches PID-CAN's.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/dense_node_map.hpp"
#include "src/common/resource_vector.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/net/message_bus.hpp"
#include "src/sim/simulator.hpp"

namespace soc::gossip {

struct ViewEntry {
  NodeId id;
  ResourceVector availability;
  SimTime heard_at = 0;
};

struct NewscastConfig {
  std::size_t view_size = 11;          ///< ≈ log2(n); set per experiment
  /// Exchange cadence.  The paper equalizes the three §IV.A protocols'
  /// traffic; at PID-CAN's default maintenance rates that lands Newscast
  /// near one exchange per minute.
  SimTime gossip_period = seconds(60);
  SimTime entry_ttl = seconds(600);    ///< same freshness bound as records
  std::size_t query_forward_ttl = 6;   ///< random-forward hops per query
  SimTime query_timeout = seconds(90);
  std::size_t view_msg_bytes = 600;
  std::size_t query_msg_bytes = 128;
  double periodic_jitter = 0.1;
};

class NewscastSystem {
 public:
  using AvailabilityProvider =
      std::function<std::optional<ResourceVector>(NodeId)>;
  using Callback = std::function<void(std::vector<Discovered>)>;

  NewscastSystem(sim::Simulator& sim, net::MessageBus& bus,
                 NewscastConfig config, Rng rng);

  void set_availability_provider(AvailabilityProvider p) {
    provider_ = std::move(p);
  }

  /// Join with a few bootstrap contacts seeding the view.
  void add_node(NodeId id, const std::vector<NodeId>& bootstrap);
  void remove_node(NodeId id);
  [[nodiscard]] bool tracks(NodeId id) const { return views_.contains(id); }
  /// Storage density of the view map (slot_span/size).
  [[nodiscard]] double span_ratio() const { return views_.span_ratio(); }

  /// Bytes claimed by the gossip views (the dense map plus every view's
  /// entry array; attribution-profiler hook).
  [[nodiscard]] std::size_t mem_bytes() const {
    std::size_t b = views_.mem_bytes();
    for (const auto& [id, view] : views_) {
      (void)id;
      b += view.capacity() * sizeof(ViewEntry);
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
  [[nodiscard]] const NewscastConfig& config() const { return config_; }

  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t satisfied = 0;
    std::uint64_t failed = 0;
    RunningStats delay_seconds;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    NodeId requester;
    ResourceVector demand;
    std::size_t want;
    std::vector<Discovered> results;
    std::unordered_set<NodeId> seen;
    sim::EventHandle timeout;
    Callback cb;
    SimTime submitted_at;
  };

  /// Merge incoming entries into a view: freshest per node, newest first,
  /// truncated to view_size.
  void merge_view(NodeId owner, const std::vector<ViewEntry>& incoming);
  void start_periodic(NodeId id);
  std::vector<ViewEntry> snapshot_with_self(NodeId id);
  void finish(std::uint64_t qid);
  void query_hop(std::uint64_t qid, NodeId at, std::size_t ttl);

  sim::Simulator& sim_;
  net::MessageBus& bus_;
  NewscastConfig config_;
  Rng rng_;
  AvailabilityProvider provider_;
  DenseNodeMap<std::vector<ViewEntry>> views_;  ///< dense by NodeId
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_qid_ = 1;
  Stats stats_;
};

}  // namespace soc::gossip
