// PID-CAN — the paper's contribution — as a DiscoveryProtocol.
//
// Composes the INSCAN overlay (CanSpace + IndexSystem) with the Alg. 3–5
// query engine.  The diffusion method (spreading = SID-CAN, hopping =
// HID-CAN), Slack-on-Submission (Eq. 3) and the virtual-dimension variant
// ([27]) are all options of this one class; the experiment factory maps the
// six protocol names of §IV.A onto option combinations.
#pragma once

#include <algorithm>
#include <map>

#include "src/core/protocol.hpp"
#include "src/index/inscan.hpp"
#include "src/query/query_engine.hpp"

namespace soc::core {

struct PidCanOptions {
  index::InscanConfig inscan;
  query::QueryConfig query;
  bool slack_on_submission = false;  ///< SoS: skew e → e' per Eq. (3)
  bool virtual_dimension = false;    ///< +1 CAN dimension to spread load
  std::size_t maintenance_msgs_per_join = 0;  ///< set from topology scale
};

class PidCanProtocol final : public DiscoveryProtocol {
 public:
  PidCanProtocol(sim::Simulator& sim, net::MessageBus& bus,
                 ResourceVector cmax, PidCanOptions options, Rng rng);

  void set_availability_source(AvailabilityFn fn) override;
  void on_join(NodeId id) override;
  void on_leave(NodeId id) override;
  void on_partition_out(NodeId id) override;
  void on_rejoin(NodeId id) override;
  [[nodiscard]] std::vector<NodeId> parked_ids() const override;
  [[nodiscard]] StaleDebt stale_debt(
      const std::function<bool(NodeId)>& reachable,
      SimTime now) const override;
  void query(NodeId requester, const ResourceVector& demand,
             std::size_t want, QueryCallback cb) override;
  void republish(NodeId id) override;
  [[nodiscard]] std::size_t discoverable(const ResourceVector& demand,
                                         SimTime now) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double max_slot_span_ratio() const override {
    return std::max(space_.span_ratio(), index_.span_ratio());
  }
  void mem_breakdown(obs::MemBreakdown& out) const override {
    out.add("can.space", space_.mem_bytes());
    out.add("index.state", index_.mem_bytes());
    std::size_t parked = 0;
    for (const auto& [id, p] : parked_) {
      (void)id;
      parked += p.cache.mem_bytes() + p.pi.mem_bytes() + p.table.mem_bytes();
    }
    out.add("core.parked", parked);
  }

  /// The CAN point a demand/availability vector files under (appends the
  /// virtual coordinate in the VD variant).
  [[nodiscard]] can::Point locate(const ResourceVector& v, Rng& rng) const;

  [[nodiscard]] can::CanSpace& space() { return space_; }
  [[nodiscard]] index::IndexSystem& index() { return index_; }
  [[nodiscard]] query::QueryEngine& engine() { return engine_; }
  [[nodiscard]] const ResourceVector& cmax() const { return cmax_; }

 private:
  /// Eq. (3): a componentwise-random vector with e ≼ e' ≼ c_max, the
  /// population's capacity ceiling (workload::NodeGenerator::cmax).
  [[nodiscard]] ResourceVector skew_demand(const ResourceVector& e);
  /// Shared overlay teardown (index, CAN zone, maintenance billing)
  /// behind on_leave and on_partition_out.
  void leave_overlay(NodeId id);

  ResourceVector cmax_;
  PidCanOptions options_;
  Rng rng_;
  std::size_t dims_;
  can::CanSpace space_;
  index::IndexSystem index_;
  query::QueryEngine engine_;
  net::MessageBus& bus_;
  /// Partitioned-out nodes' INSCAN state, keyed ascending, awaiting rejoin.
  std::map<NodeId, index::IndexSystem::ParkedNode> parked_;
};

}  // namespace soc::core
