// PID-CAN — the paper's contribution — as a DiscoveryProtocol.
//
// Composes the INSCAN overlay (CanSpace + IndexSystem) with the Alg. 3–5
// query engine.  The diffusion method (spreading = SID-CAN, hopping =
// HID-CAN), Slack-on-Submission (Eq. 3) and the virtual-dimension variant
// ([27]) are all options of this one class; the experiment factory maps the
// six protocol names of §IV.A onto option combinations.
#pragma once

#include "src/core/can_protocol.hpp"
#include "src/index/inscan.hpp"
#include "src/query/query_engine.hpp"

namespace soc::core {

struct PidCanOptions {
  index::InscanConfig inscan;
  bool slack_on_submission = false;  ///< SoS: skew e → e' per Eq. (3)
  bool virtual_dimension = false;    ///< +1 CAN dimension to spread load
  std::size_t maintenance_msgs_per_join = 0;  ///< set from topology scale
};

class PidCanProtocol final : public CanAdapter<index::IndexSystem> {
 public:
  PidCanProtocol(sim::Simulator& sim, net::MessageBus& bus,
                 ResourceVector cmax, PidCanOptions options, Rng rng);

  void set_availability_source(AvailabilityFn fn) override;
  [[nodiscard]] StaleDebt stale_debt(
      const std::function<bool(NodeId)>& reachable,
      SimTime now) const override;
  void query(NodeId requester, const ResourceVector& demand,
             std::size_t want, QueryCallback cb) override;
  [[nodiscard]] std::size_t discoverable(const ResourceVector& demand,
                                         SimTime now) const override;

  /// The CAN point a demand/availability vector files under (appends the
  /// virtual coordinate in the VD variant).
  [[nodiscard]] can::Point locate(const ResourceVector& v, Rng& rng) const;

  [[nodiscard]] query::QueryEngine& engine() { return engine_; }

 private:
  /// Eq. (3): a componentwise-random vector with e ≼ e' ≼ c_max, the
  /// population's capacity ceiling (workload::NodeGenerator::cmax).
  [[nodiscard]] ResourceVector skew_demand(const ResourceVector& e);

  PidCanOptions options_;
  Rng rng_;
  query::QueryEngine engine_;
};

}  // namespace soc::core
