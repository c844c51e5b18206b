// The CAN overlay lifecycle PID-CAN and KHDN-CAN share: join and leave with
// their maintenance-traffic bill, partition parking and heal-time rejoin,
// republish, and the slot-span and storage hooks.  The two protocols differ
// only in the per-node system that files records and answers queries
// (index::IndexSystem or khdn::KhdnSystem), the template argument of
// CanAdapter.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/can/space.hpp"
#include "src/core/protocol.hpp"
#include "src/index/record.hpp"
#include "src/net/message_bus.hpp"

namespace soc::core {

/// A CAN protocol as the invariant checker and the spatial-failure scenario
/// see it: the overlay, the capacity ceiling and the duty caches.
class CanProtocol : public DiscoveryProtocol {
 public:
  [[nodiscard]] can::CanSpace& space() { return space_; }
  [[nodiscard]] const ResourceVector& cmax() const { return cmax_; }

  /// Ids with a materialized duty cache, ascending.
  [[nodiscard]] virtual std::vector<NodeId> tracked_ids() const = 0;
  /// `id`'s duty cache; materializes an empty one for an untracked id, so
  /// oracles must stick to tracked_ids().
  [[nodiscard]] virtual index::RecordStore& cache(NodeId id) = 0;
  /// Membership-consistency oracle (sim_fuzz): per-node protocol state
  /// exists exactly for the CAN members.  Empty string when consistent.
  [[nodiscard]] virtual std::string check_membership_consistency() const = 0;

 protected:
  /// The overlay has one dimension per capacity component, plus
  /// `extra_dims` (the VD variant's virtual coordinate).
  CanProtocol(ResourceVector cmax, std::size_t extra_dims, Rng space_rng)
      : cmax_(std::move(cmax)), space_(cmax_.size() + extra_dims, space_rng) {}

  ResourceVector cmax_;
  can::CanSpace space_;
};

/// The lifecycle written once over `System`, which provides add_node,
/// remove_node, park_node/restore_node of its ParkedNode, publish_now,
/// tracked_ids, cache, check_membership_consistency, span_ratio and
/// mem_bytes.
template <class System>
class CanAdapter : public CanProtocol {
 public:
  void on_join(NodeId id) override;
  void on_leave(NodeId id) override;
  void on_partition_out(NodeId id) override;
  void on_rejoin(NodeId id) override;
  [[nodiscard]] std::vector<NodeId> parked_ids() const override;
  void republish(NodeId id) override {
    if (space_.contains(id)) system_.publish_now(id);
  }
  [[nodiscard]] double max_slot_span_ratio() const override {
    return std::max(space_.span_ratio(), system_.span_ratio());
  }
  void mem_breakdown(obs::MemBreakdown& out) const override;

  [[nodiscard]] std::vector<NodeId> tracked_ids() const override {
    return system_.tracked_ids();
  }
  [[nodiscard]] index::RecordStore& cache(NodeId id) override {
    return system_.cache(id);
  }
  [[nodiscard]] std::string check_membership_consistency() const override {
    return system_.check_membership_consistency();
  }

 protected:
  /// `join_route_msgs` is billed on every join and rejoin on top of one
  /// message per new neighbor; `mem_bucket` names the system's storage in
  /// the attribution profiler.
  CanAdapter(sim::Simulator& sim, net::MessageBus& bus, ResourceVector cmax,
             std::size_t extra_dims, Rng space_rng,
             typename System::Config config, Rng system_rng,
             std::size_t join_route_msgs, const char* mem_bucket)
      : CanProtocol(std::move(cmax), extra_dims, space_rng),
        system_(sim, bus, space_, config, system_rng), bus_(bus),
        join_route_msgs_(join_route_msgs), mem_bucket_(mem_bucket) {}

  System system_;

 private:
  /// Account `msgs` overlay-maintenance messages (sent-side only: the
  /// join/leave protocol itself is not simulated).
  void bill_maintenance(std::size_t msgs);
  /// Shared overlay teardown behind on_leave and on_partition_out.
  void leave_overlay(NodeId id);

  net::MessageBus& bus_;
  std::size_t join_route_msgs_;
  const char* mem_bucket_;
  /// Partitioned-out nodes' state, keyed ascending, awaiting rejoin.
  std::map<NodeId, typename System::ParkedNode> parked_;
};

}  // namespace soc::core
