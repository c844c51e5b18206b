// Scenario specifications: composable workload/churn models beyond the
// paper's steady Poisson churn.
//
// A ScenarioSpec is pure data — a phased churn schedule plus point events
// (flash-crowd join bursts, correlated mass failures / partitions) and a
// population capacity skew — that the ScenarioEngine (engine.hpp) replays
// against a running Experiment.  Specs are strictly opt-in: a
// default-constructed spec is disabled and an Experiment carrying one is
// bit-identical to one without (the engine is never constructed, no RNG
// stream is forked, the node generator draws the same sequence).
//
// Every spec prints as a compact one-line string (describe()) so an
// invariant violation found by the sim_fuzz harness can name the exact
// scenario alongside the seed that regenerates it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"
#include "src/workload/generator.hpp"

namespace soc::scenario {

/// One segment of the phased churn schedule: from `start` until the next
/// phase (or the end of the run), node churn runs at `dynamic_degree` —
/// the same Fig. 8 unit as ExperimentConfig::churn_dynamic_degree, i.e.
/// that fraction of the population departs (and is replaced) per churn
/// window.  Engine churn composes with (adds to) any baseline churn the
/// experiment itself is configured with.
struct ChurnPhase {
  SimTime start = 0;
  double dynamic_degree = 0.0;
};

/// Flash crowd: `joins` fresh hosts arrive spread uniformly over
/// [at, at + spread].
struct JoinBurst {
  SimTime at = 0;
  std::size_t joins = 0;
  SimTime spread = 0;
};

/// Correlated mass failure: at time `at`, `fraction` of the alive
/// population departs simultaneously with no replacement joins.  When
/// `spatial` is set and the protocol runs on a CAN space, the victims are
/// the members whose zones lie closest to a random point — a partition-like
/// loss of one contiguous region of the coordinate space; otherwise victims
/// are a contiguous id range (correlated by join cohort).
struct MassFailure {
  SimTime at = 0;
  double fraction = 0.0;
  bool spatial = false;
};

/// Network partition with heal: at time `at`, whole LAN groups covering
/// ≈ `fraction` of the alive population are cut off at the bus (cross-cut
/// messages resolve as `partitioned`, hosts stay up, protocol state is
/// parked via on_partition_out); after `duration` the cut heals and
/// survivors rejoin with their stale parked state.  Overlapping partitions
/// do not compose: a partition firing while one is active is skipped.
struct Partition {
  SimTime at = 0;
  double fraction = 0.0;
  SimTime duration = 0;
};

struct ScenarioSpec {
  std::vector<ChurnPhase> phases;    ///< sorted by start
  std::vector<JoinBurst> bursts;     ///< sorted by at
  std::vector<MassFailure> failures; ///< sorted by at
  std::vector<Partition> partitions; ///< sorted by at
  /// Wired into the experiment's NodeGenerator, so it shapes the initial
  /// population and every later scenario/churn join alike.
  workload::CapacitySkew skew;

  [[nodiscard]] bool enabled() const {
    return !phases.empty() || !bursts.empty() || !failures.empty() ||
           !partitions.empty() || skew.enabled();
  }

  /// Churn degree in force at time `t` (0 before the first phase).
  [[nodiscard]] double churn_degree_at(SimTime t) const;

  /// Compact one-line spec, parse-stable across runs — printed next to the
  /// seed on any sim_fuzz invariant violation for one-command replay.
  [[nodiscard]] std::string describe() const;
};

/// Draw a randomized scenario over [0, horizon] — the sim_fuzz schedule
/// generator.  Deterministic in `rng`; every feature (phases, bursts,
/// failures, skew) appears with independent probability so single-feature
/// and composed schedules both occur.
[[nodiscard]] ScenarioSpec random_spec(Rng& rng, SimTime horizon);

}  // namespace soc::scenario
