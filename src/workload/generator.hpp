// Workload synthesis from Tables I and II of the paper: host capacity
// vectors and task demand vectors under the demand-ratio λ, task workloads
// sized for a 3000 s mean execution time, and Poisson arrivals with a
// 3000 s mean inter-arrival per node.
#pragma once

#include "src/common/rng.hpp"
#include "src/psm/task.hpp"

namespace soc::workload {

/// Heterogeneous node capacities (the scenario layer's capacity skew): each
/// generated capacity vector is scaled whole by weak_scale with probability
/// weak_fraction, by strong_scale with probability strong_fraction, else
/// left at Table I values.  Disabled (the default), it costs
/// NodeGenerator::generate() no RNG draw, so default trajectories are
/// unchanged.
struct CapacitySkew {
  double weak_fraction = 0.0;
  double weak_scale = 1.0;
  double strong_fraction = 0.0;
  double strong_scale = 1.0;

  [[nodiscard]] bool enabled() const {
    return weak_fraction > 0.0 || strong_fraction > 0.0;
  }
};

/// Table I host population.
class NodeGenerator {
 public:
  explicit NodeGenerator(CapacitySkew skew = {}) : skew_(skew) {}

  /// Draw one host capacity vector {CPU, I/O, net, disk, memory}.
  [[nodiscard]] ResourceVector generate(Rng& rng) const;

  /// The componentwise capacity ceiling c_max of the population; the paper
  /// aggregates it by gossip ([23]) — here it follows from Table I.
  [[nodiscard]] ResourceVector cmax() const;

 private:
  CapacitySkew skew_;
};

/// Table II task demands, scaled by the demand ratio λ, plus the
/// execution-time model.
class TaskGenerator {
 public:
  explicit TaskGenerator(double demand_ratio) : demand_ratio_(demand_ratio) {
    SOC_CHECK(demand_ratio > 0.0);
  }

  /// Draw one task submitted by `origin` at time `now`.
  [[nodiscard]] psm::TaskSpec generate(NodeId origin, std::uint32_t seq,
                                       SimTime now, Rng& rng) const;

 private:
  double demand_ratio_;  ///< λ ∈ {1, 0.5, 0.25} in the paper
};

/// Poisson task arrivals: the next submission delay for any node.
[[nodiscard]] SimTime next_arrival_delay(double mean_seconds, Rng& rng);

}  // namespace soc::workload
