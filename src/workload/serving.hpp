// Serving-style workload shaping (ROADMAP direction 5): closed-loop
// clients, Zipfian hot-key demand skew, and a diurnal arrival-rate curve.
// Everything here is strictly opt-in — a default ServingConfig drives no
// RNG forks and no code paths, so default experiment trajectories stay
// bit-identical to the pure open-loop Poisson model.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"

namespace soc::workload {

struct ServingConfig {
  /// Closed loop: each node runs this many clients, each holding at most
  /// one task in flight and thinking (exponential, `think_time_s` mean)
  /// between completion and the next submission.  0 = open-loop Poisson.
  std::size_t clients_per_node = 0;
  double think_time_s = 3000.0;

  /// Hot-key skew: task demand vectors are drawn from this many fixed
  /// "key" profiles with Zipf(1) popularity, instead of fresh Table II
  /// draws — hot keys hammer the same duty-node region.
  /// 0 = no skew.
  std::size_t zipf_keys = 0;

  /// Diurnal curve: arrival (and think) rates are modulated by
  /// 1 + amplitude * sin(2π t / 24 h), floored at 0.05.  amplitude 0 =
  /// flat load.
  double diurnal_amplitude = 0.0;

  [[nodiscard]] bool closed_loop() const { return clients_per_node > 0; }
  [[nodiscard]] bool skewed() const { return zipf_keys > 0; }
  [[nodiscard]] bool diurnal() const { return diurnal_amplitude > 0.0; }
  [[nodiscard]] bool enabled() const {
    return closed_loop() || skewed() || diurnal();
  }
};

/// Rate multiplier at simulated time `now` (1.0 whenever disabled).
[[nodiscard]] double diurnal_factor(const ServingConfig& config, SimTime now);

/// Inverse-CDF sampler over {0..n-1} with P(k) ∝ 1/(k+1).
class ZipfGenerator {
 public:
  explicit ZipfGenerator(std::size_t n);

  [[nodiscard]] std::size_t draw(Rng& rng) const;
  [[nodiscard]] std::size_t keys() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cumulative weights, cdf_.back() == total
};

/// Named serving presets for sweep axes / CLI: '+'-joined tokens out of
/// {off|open, closed, zipf, diurnal}, e.g. "closed+zipf".  "off" and
/// "open" are the disabled config; unknown tokens yield nullopt so sweep
/// specs fail loudly.
[[nodiscard]] std::optional<ServingConfig> serving_by_name(
    const std::string& name);

/// All names serving_by_name accepts (CLI help).
[[nodiscard]] std::string serving_names_help();

}  // namespace soc::workload
