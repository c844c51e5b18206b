#include "src/workload/serving.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"

namespace soc::workload {

namespace {
/// One day; the curve starts at its rising midpoint (phase 0).
constexpr double kDiurnalPeriodHours = 24.0;
/// Popularity exponent of the hot keys.
constexpr double kZipfExponent = 1.0;
}  // namespace

double diurnal_factor(const ServingConfig& config, SimTime now) {
  if (!config.diurnal()) return 1.0;
  const double phase = to_hours(now) / kDiurnalPeriodHours;
  const double f = 1.0 + config.diurnal_amplitude *
                             std::sin(2.0 * 3.14159265358979323846 * phase);
  return std::max(f, 0.05);
}

ZipfGenerator::ZipfGenerator(std::size_t n) {
  SOC_CHECK(n > 0);
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf_.push_back(total);
  }
}

std::size_t ZipfGenerator::draw(Rng& rng) const {
  const double u = rng.uniform() * cdf_.back();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::optional<ServingConfig> serving_by_name(const std::string& name) {
  ServingConfig out;
  std::size_t start = 0;
  while (start <= name.size()) {
    const std::size_t sep = std::min(name.find('+', start), name.size());
    const std::string token = name.substr(start, sep - start);
    if (token == "off" || token == "open") {
      // the disabled baseline; composing it with knobs is fine
    } else if (token == "closed") {
      out.clients_per_node = 4;
      out.think_time_s = 3000.0;
    } else if (token == "zipf") {
      out.zipf_keys = 64;
    } else if (token == "diurnal") {
      out.diurnal_amplitude = 0.6;
    } else {
      return std::nullopt;
    }
    start = sep + 1;
  }
  return out;
}

std::string serving_names_help() {
  return "off|open|closed|zipf|diurnal (joined with '+', e.g. closed+zipf)";
}

}  // namespace soc::workload
