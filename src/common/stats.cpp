#include "src/common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"

namespace soc {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double jain_fairness(std::span<const double> values) {
  double sum = 0.0, sum_sq = 0.0;
  for (const double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  return jain_from_moments(values.size(), sum, sum_sq);
}

double jain_from_moments(std::size_t n, double sum, double sum_sq) {
  if (n == 0) return 1.0;
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

double percentile(std::vector<double> values, double p) {
  SOC_CHECK(!values.empty());
  SOC_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double student_t95(std::size_t dof) {
  // Two-sided 95% critical values, dof 1..30; the normal limit beyond.
  static constexpr double kTable[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (dof == 0) return 0.0;
  if (dof <= 30) return kTable[dof - 1];
  return 1.960;
}

double mean_ci95_halfwidth(std::size_t n, double stddev) {
  if (n < 2) return 0.0;
  return student_t95(n - 1) * stddev / std::sqrt(static_cast<double>(n));
}

}  // namespace soc
