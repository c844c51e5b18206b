#include "src/scenario/engine.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/can/space.hpp"
#include "src/core/can_protocol.hpp"

namespace soc::scenario {

ScenarioEngine::ScenarioEngine(core::Experiment& ex, ScenarioSpec spec)
    : ex_(ex), spec_(std::move(spec)),
      rng_(ex.simulator().rng().fork("scenario")) {}

void ScenarioEngine::install() {
  schedule_phase_churn();
  schedule_bursts();
  schedule_failures();
  schedule_partitions();
}

// ---------------------------------------------------------------------------
// Phased churn: the built-in Poisson churn machinery, but with a rate that
// follows the spec's phase schedule.  Each tick draws the next gap from the
// rate in force when it is scheduled (a gap spanning a phase boundary keeps
// the old rate — the approximation error is one inter-event gap).

void ScenarioEngine::schedule_phase_churn() {
  if (!spec_.phases.empty()) churn_tick();
}

void ScenarioEngine::churn_tick() {
  sim::Simulator& sim = ex_.simulator();
  const SimTime now = sim.now();
  const SimTime horizon = ex_.config().duration;
  const double degree = spec_.churn_degree_at(now);

  if (degree <= 0.0) {
    // Calm phase: sleep until the next phase that churns at all.
    for (const ChurnPhase& p : spec_.phases) {
      if (p.start > now && p.dynamic_degree > 0.0 && p.start <= horizon) {
        sim.schedule_at(p.start, [this] { churn_tick(); });
        return;
      }
    }
    return;  // no churning phase ahead: the chain retires
  }

  const double events_per_s = degree *
                              static_cast<double>(ex_.config().nodes) /
                              core::kChurnWindowS;
  const SimTime delay =
      std::max<SimTime>(seconds(rng_.exponential(1.0 / events_per_s)), 1);
  if (now + delay > horizon) return;
  sim.schedule_after(delay, [this] {
    if (ex_.alive_nodes() > 2) ex_.scenario_depart(ex_.random_alive(rng_));
    ex_.scenario_join();
    ++counters_.churn_events;
    churn_tick();
  });
}

// ---------------------------------------------------------------------------
// Flash crowds: each burst's joins land uniformly over [at, at + spread].

void ScenarioEngine::schedule_bursts() {
  sim::Simulator& sim = ex_.simulator();
  const SimTime horizon = ex_.config().duration;
  for (const JoinBurst& b : spec_.bursts) {
    for (std::size_t j = 0; j < b.joins; ++j) {
      const SimTime at =
          b.at + (b.spread > 0
                      ? seconds(rng_.uniform(0.0, to_seconds(b.spread)))
                      : 0);
      if (at > horizon) continue;
      sim.schedule_at(std::max<SimTime>(at, 1), [this] {
        ex_.scenario_join();
        ++counters_.burst_joins;
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Mass failures

void ScenarioEngine::schedule_failures() {
  sim::Simulator& sim = ex_.simulator();
  const SimTime horizon = ex_.config().duration;
  for (const MassFailure& f : spec_.failures) {
    if (f.at > horizon) continue;
    sim.schedule_at(std::max<SimTime>(f.at, 1),
                    [this, f] { mass_failure(f); });
  }
}

void ScenarioEngine::mass_failure(const MassFailure& f) {
  const std::vector<NodeId> alive = ex_.alive_ids();
  if (alive.size() <= 3) return;
  std::size_t k = static_cast<std::size_t>(
      f.fraction * static_cast<double>(alive.size()));
  k = std::min(k, alive.size() - 3);  // never collapse the overlay entirely
  if (k == 0) return;

  std::vector<NodeId> victims;
  if (f.spatial) victims = spatial_victims(k);
  if (victims.empty()) {
    // Cohort kill: a contiguous id range of the (ascending) alive list —
    // nodes that joined around the same time fail together.
    const std::size_t start = rng_.pick_index(alive.size() - k + 1);
    victims.assign(alive.begin() + static_cast<std::ptrdiff_t>(start),
                   alive.begin() + static_cast<std::ptrdiff_t>(start + k));
  }
  for (const NodeId v : victims) {
    ex_.scenario_depart(v);
    ++counters_.failure_kills;
  }
}

// ---------------------------------------------------------------------------
// Partitions with heal

void ScenarioEngine::schedule_partitions() {
  sim::Simulator& sim = ex_.simulator();
  const SimTime horizon = ex_.config().duration;
  for (const Partition& p : spec_.partitions) {
    if (p.at > horizon) continue;
    sim.schedule_at(std::max<SimTime>(p.at, 1),
                    [this, p] { start_partition(p); });
  }
}

void ScenarioEngine::start_partition(const Partition& p) {
  if (ex_.partition_active()) {
    // Overlapping partitions do not compose (one cut set at the bus);
    // count the skip so fuzz-failure context shows the schedule collision.
    ++counters_.partitions_skipped;
    return;
  }
  // The epicenter LAN is a random draw; the experiment grows the cut from
  // there along consecutive (wrapping) LAN groups.
  const std::size_t start_lan = rng_.pick_index(ex_.lan_count());
  if (!ex_.scenario_partition(p.fraction, start_lan)) {
    ++counters_.partitions_skipped;
    return;
  }
  ++counters_.partitions_started;
  counters_.partition_detached += ex_.partitioned_ids().size();
  const SimTime heal_at = p.at + p.duration;
  if (heal_at <= ex_.config().duration) {
    ex_.simulator().schedule_at(heal_at, [this] {
      ex_.scenario_heal();
      ++counters_.heals;
    });
  }
  // A partition outliving the horizon never heals inside the run: the
  // run-end invariants then check the partitioned steady state instead.
}

std::vector<NodeId> ScenarioEngine::spatial_victims(std::size_t k) {
  auto* overlay = dynamic_cast<core::CanProtocol*>(&ex_.protocol());
  if (overlay == nullptr || overlay->space().size() == 0) return {};
  can::CanSpace* space = &overlay->space();

  // Epicenter of the regional outage; victims are the k members whose zone
  // centers lie closest to it (deterministic tie-break on id).
  can::Point epicenter(space->dims());
  for (std::size_t d = 0; d < space->dims(); ++d) {
    epicenter[d] = rng_.uniform();
  }
  std::vector<std::pair<double, NodeId>> ranked;
  for (const NodeId id : space->member_ids()) {
    if (!ex_.host_alive(id)) continue;
    const can::Point c = space->zone_of(id).center();
    double d2 = 0.0;
    for (std::size_t d = 0; d < space->dims(); ++d) {
      const double gap = c[d] - epicenter[d];
      d2 += gap * gap;
    }
    ranked.emplace_back(d2, id);
  }
  if (ranked.empty()) return {};
  k = std::min(k, ranked.size());
  std::sort(ranked.begin(), ranked.end());
  std::vector<NodeId> victims;
  victims.reserve(k);
  for (std::size_t i = 0; i < k; ++i) victims.push_back(ranked[i].second);
  return victims;
}

}  // namespace soc::scenario
