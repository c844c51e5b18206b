// Small statistics helpers used by the metrics subsystem and the benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace soc {

/// Streaming mean/variance (Welford).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Jain's fairness index over a set of per-task efficiencies (Eq. (4) of
/// the paper): (Σe)² / (m · Σe²).  Returns 1.0 for an empty set (vacuously
/// fair) and is always within (0, 1].
double jain_fairness(std::span<const double> values);

/// Jain's index from pre-accumulated moments (n values summing to `sum`
/// with Σv² = `sum_sq`).  Streaming callers that fold values left-to-right
/// with `sum += v; sum_sq += v * v` get bit-identical results to
/// jain_fairness over the same sequence — the metrics series relies on
/// this to drop its per-event vectors.
double jain_from_moments(std::size_t n, double sum, double sum_sq);

/// Percentile of a copy of the data (p in [0,100], linear interpolation).
double percentile(std::vector<double> values, double p);

/// Median of a copy of the data (percentile 50).
double median(std::vector<double> values);

/// Two-sided 95% Student-t critical value for `dof` degrees of freedom
/// (table for 1..30, the large-sample normal limit above; dof 0 returns 0).
double student_t95(std::size_t dof);

/// Half-width of the 95% confidence interval of the mean of `n` samples
/// with sample standard deviation `stddev`: t_{0.975, n-1} * s / sqrt(n).
/// Returns 0 for n < 2 (a single repeat has no interval) — the sweep
/// merger's per-config CI across repeat seeds.
double mean_ci95_halfwidth(std::size_t n, double stddev);

}  // namespace soc
