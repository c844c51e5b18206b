#include "src/scenario/spec.hpp"

#include <algorithm>
#include <cstdio>

namespace soc::scenario {

double ScenarioSpec::churn_degree_at(SimTime t) const {
  double degree = 0.0;
  for (const ChurnPhase& p : phases) {
    if (p.start > t) break;
    degree = p.dynamic_degree;
  }
  return degree;
}

namespace {

template <typename... Args>
void append(std::string& out, const char* fmt, Args... args) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  out += buf;
}

}  // namespace

std::string ScenarioSpec::describe() const {
  if (!enabled()) return "scenario{off}";
  std::string out = "scenario{";
  for (const ChurnPhase& p : phases) {
    append(out, " phase(t=%.0fs dd=%.2f)", to_seconds(p.start),
           p.dynamic_degree);
  }
  for (const JoinBurst& b : bursts) {
    append(out, " burst(t=%.0fs n=%zu over=%.0fs)", to_seconds(b.at), b.joins,
           to_seconds(b.spread));
  }
  for (const MassFailure& f : failures) {
    append(out, " fail(t=%.0fs frac=%.2f %s)", to_seconds(f.at), f.fraction,
           f.spatial ? "spatial" : "cohort");
  }
  for (const Partition& p : partitions) {
    append(out, " part(t=%.0fs frac=%.2f heal=%.0fs)", to_seconds(p.at),
           p.fraction, to_seconds(p.duration));
  }
  if (skew.enabled()) {
    append(out, " skew(weak=%.2fx%.2f strong=%.2fx%.2f)", skew.weak_fraction,
           skew.weak_scale, skew.strong_fraction, skew.strong_scale);
  }
  out += " }";
  return out;
}

ScenarioSpec random_spec(Rng& rng, SimTime horizon) {
  ScenarioSpec spec;
  const double h = to_seconds(horizon);

  // Phased churn: 0–3 phases with rates spanning calm to heavy (Fig. 8's
  // dynamic degree tops out at 1.0; we go a bit past it to stress
  // departure-heavy maintenance).
  if (rng.chance(0.7)) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 3));
    SimTime at = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ChurnPhase p;
      p.start = at;
      p.dynamic_degree = rng.chance(0.3) ? 0.0 : rng.uniform(0.05, 1.2);
      spec.phases.push_back(p);
      at += seconds(rng.uniform(0.2, 0.5) * h);
    }
  }

  // Flash crowds: up to 2 bursts, each adding 25–100% of the base
  // population over a short window.
  if (rng.chance(0.5)) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 2));
    for (std::size_t i = 0; i < n; ++i) {
      JoinBurst b;
      b.at = seconds(rng.uniform(0.1, 0.8) * h);
      b.joins = static_cast<std::size_t>(rng.uniform_int(8, 32));
      b.spread = seconds(rng.uniform(10.0, std::max(20.0, 0.1 * h)));
      spec.bursts.push_back(b);
    }
    std::sort(spec.bursts.begin(), spec.bursts.end(),
              [](const JoinBurst& a, const JoinBurst& b) { return a.at < b.at; });
  }

  // Mass failures / partitions: up to 2, killing 10–45% of the population.
  if (rng.chance(0.5)) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 2));
    for (std::size_t i = 0; i < n; ++i) {
      MassFailure f;
      f.at = seconds(rng.uniform(0.2, 0.9) * h);
      f.fraction = rng.uniform(0.1, 0.45);
      f.spatial = rng.chance(0.5);
      spec.failures.push_back(f);
    }
    std::sort(
        spec.failures.begin(), spec.failures.end(),
        [](const MassFailure& a, const MassFailure& b) { return a.at < b.at; });
  }

  // Capacity skew: heterogeneous populations (weak edge boxes + a few fat
  // servers) exercise best-fit selection and SoS under contention.
  if (rng.chance(0.4)) {
    spec.skew.weak_fraction = rng.uniform(0.1, 0.5);
    spec.skew.weak_scale = rng.uniform(0.3, 0.8);
    spec.skew.strong_fraction = rng.uniform(0.05, 0.2);
    spec.skew.strong_scale = rng.uniform(1.5, 3.0);
  }

  // Network partitions: up to 2, each cutting 10–45% of the population
  // along LAN boundaries for 10–35% of the run, then healing.  Appended
  // *after* all pre-existing draws so a given seed still produces the same
  // churn/burst/failure/skew schedule it did before partitions existed.
  if (rng.chance(0.4)) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 2));
    for (std::size_t i = 0; i < n; ++i) {
      Partition p;
      p.at = seconds(rng.uniform(0.15, 0.6) * h);
      p.fraction = rng.uniform(0.1, 0.45);
      p.duration = seconds(rng.uniform(0.1, 0.35) * h);
      spec.partitions.push_back(p);
    }
    std::sort(
        spec.partitions.begin(), spec.partitions.end(),
        [](const Partition& a, const Partition& b) { return a.at < b.at; });
  }

  return spec;
}

}  // namespace soc::scenario
