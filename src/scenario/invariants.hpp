// Global simulation invariants, checked between events by the sim_fuzz
// harness (and usable from any test that drives an Experiment step by
// step).
//
// The checked invariant set:
//   1. Experiment accounting — alive counter, DenseNodeMap occupancy and
//      in-flight placements agree (dense-storage handle sanity).
//   2. Event queue — heap order holds, the top entry is live, every live
//      (odd-generation) slot is referenced by exactly one heap entry, and
//      cancelled entries stay within the tombstone bound.
//   3. Message conservation — per MsgType, sent == delivered + lost +
//      in-flight, and the bus's in-flight counter equals the per-type
//      in-flight total.
//   4. CAN tessellation — member zones tile the unit cube exactly
//      (Σ volume ≈ 1 plus the full O(n²) overlap/adjacency/symmetry
//      verifier) for every protocol that runs on a CanSpace.
//   5. Overlay membership — CAN members are exactly the alive hosts; the
//      index layer's NodeStates are exactly the CAN members (a ghost
//      NodeState for a departed node — the PR-3 probe-walk bug — fails
//      here), and last-locations are filed only for tracked nodes.
//   6. Record stores — every duty cache is NodeId-sorted and
//      duplicate-free, and its query results match a from-scratch map
//      oracle rebuilt from the cache contents.
//
// Checks are strictly read-only: they never draw from any experiment RNG
// stream and never schedule events, so checking at an interval cannot
// perturb the trajectory being checked (the caller passes its own RNG for
// oracle demand sampling).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/experiment.hpp"

namespace soc::scenario {

struct InvariantReport {
  std::vector<std::string> violations;
  std::uint64_t assertions = 0;  ///< individual conditions evaluated

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// Run every invariant against the experiment's current state.  `rng` is
/// the *caller's* stream (used only to sample oracle query demands) — the
/// experiment's own RNG streams are never touched.
[[nodiscard]] InvariantReport check_invariants(core::Experiment& ex,
                                               Rng& rng);

}  // namespace soc::scenario
