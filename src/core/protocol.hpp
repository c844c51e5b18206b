// The resource-discovery protocol interface the Self-Organizing Cloud node
// layer programs against.  Implementations: PID-CAN (SID/HID × SoS × VD),
// Newscast gossip, and KHDN-CAN.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/resource_vector.hpp"
#include "src/common/types.hpp"
#include "src/obs/profiler.hpp"

namespace soc::core {

/// Stale-record debt: how much of the protocol's cached discovery state
/// points at providers that can no longer serve.  `dead_provider` counts
/// live (unexpired) records/entries naming a dead or unreachable provider;
/// `misplaced` counts records filed at a node that no longer owns their
/// location (zone ownership moved, e.g. across a partition+heal).
struct StaleDebt {
  std::uint64_t dead_provider = 0;
  std::uint64_t misplaced = 0;
  [[nodiscard]] std::uint64_t total() const {
    return dead_provider + misplaced;
  }
};

class DiscoveryProtocol {
 public:
  using AvailabilityFn =
      std::function<std::optional<ResourceVector>(NodeId)>;
  using QueryCallback = std::function<void(std::vector<Discovered>)>;

  virtual ~DiscoveryProtocol() = default;

  /// Wire the live-availability source (the node layer's PSM schedulers).
  virtual void set_availability_source(AvailabilityFn fn) = 0;

  /// A host joined the system (already present in the network topology).
  virtual void on_join(NodeId id) = 0;
  /// A host departed; its protocol state must be torn down.
  virtual void on_leave(NodeId id) = 0;

  /// `id` was cut off by a network partition: it leaves the overlay like a
  /// departure, but its host is still up, so implementations park its
  /// protocol state (duty cache, indexes, views) for a later on_rejoin.
  /// Default: a plain on_leave — no state survives, rejoin is fresh.
  virtual void on_partition_out(NodeId id) { on_leave(id); }
  /// The partition healed and `id` re-enters the overlay.  Implementations
  /// restore the parked *stale* state and reconcile it on the existing
  /// maintenance paths (re-routing records, pruning, periodic refresh) —
  /// not as a clean fresh join.  Default: a fresh on_join.
  virtual void on_rejoin(NodeId id) { on_join(id); }
  /// Ids whose partitioned-out state is currently parked, ascending (fuzz
  /// oracle: must equal the experiment's partitioned set).
  [[nodiscard]] virtual std::vector<NodeId> parked_ids() const { return {}; }

  /// Stale-record debt over all cached discovery state: `reachable(id)`
  /// says whether a provider is alive *and* on the requester-visible side
  /// of any partition.  Default: unknown (zeros).
  [[nodiscard]] virtual StaleDebt stale_debt(
      const std::function<bool(NodeId)>& /*reachable*/, SimTime /*now*/) const {
    return {};
  }

  /// Multi-dimensional range query: find up to `want` candidates whose
  /// advertised availability dominates `demand`.  The callback fires
  /// exactly once (possibly empty).
  virtual void query(NodeId requester, const ResourceVector& demand,
                     std::size_t want, QueryCallback cb) = 0;

  /// The host's availability just changed materially (a task was admitted
  /// or a dispatch was rejected): push a fresh state update immediately
  /// instead of waiting for the periodic cycle.  Default: no-op.
  virtual void republish(NodeId /*id*/) {}

  /// Diagnostics oracle: how many *currently cached* records anywhere in
  /// the system qualify for `demand` (i.e. what a perfect search could
  /// find).  Default: unknown (0).
  [[nodiscard]] virtual std::size_t discoverable(
      const ResourceVector& /*demand*/, SimTime /*now*/) const {
    return 0;
  }

  /// Max slot_span()/size() over the protocol's per-node state maps
  /// (CAN members, index state, gossip views, KHDN caches): 1.0 when
  /// storage is dense, grows with unreclaimed churn holes.  Reported into
  /// the BENCH schema as slot_span_ratio; DenseNodeMap compaction keeps
  /// it bounded by the compaction factor.  Default for protocols without
  /// per-node maps: dense.
  [[nodiscard]] virtual double max_slot_span_ratio() const { return 1.0; }

  /// Deposit the protocol's per-subsystem storage footprint into the
  /// attribution profiler's breakdown (bucket names like "can.space",
  /// "index.caches", "gossip.views").  Capacity-based accounting — what
  /// the subsystem has claimed from the allocator, which is what peak
  /// RSS sees.  Default: nothing to report.
  virtual void mem_breakdown(obs::MemBreakdown& /*out*/) const {}
};

}  // namespace soc::core
