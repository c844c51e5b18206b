// SweepSpec: the full-factorial experiment grid (protocol × λ × node count
// × scenario × repeat seed) behind the paper's figures, as pure data — the
// execution layer above a single Experiment.
//
// The spec enumerates SweepCells.  Everything about a cell is derived from
// its *content*, never from enumeration order:
//   * cell key     — canonical string naming the coordinates;
//   * seed         — splitmix64 of (base_seed, fnv1a(key)), so an
//                    experiment draws the identical RNG stream whether it
//                    runs in-process, in 1 worker, or in 16;
//   * shard id     — fnv1a(key) mod shards_total (src/sweep/shard.hpp).
// Reordering the spec's axis vectors therefore changes nothing about what
// any shard computes — the property the sweep determinism tests pin.
//
// A spec round-trips through CLI flags (from_args/to_args): the
// orchestrator respawns workers with to_args(), and a manifest's
// describe() string names the sweep for resume-time validation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/cli.hpp"
#include "src/common/fnv.hpp"
#include "src/core/experiment.hpp"

namespace soc::sweep {

/// One fully-addressed point of the grid: the built ExperimentConfig plus
/// the canonical names the sharder/merger key on.
struct SweepCell {
  std::string key;    ///< unique: group + "/r<repeat>"
  std::string group;  ///< stats-grouping cell (coordinates minus repeat)
  core::ExperimentConfig config;  ///< config.seed already content-derived
};

struct SweepSpec {
  std::vector<core::ProtocolKind> protocols{core::ProtocolKind::kHidCan};
  std::vector<double> lambdas{0.5};
  std::vector<std::size_t> node_counts{384};
  /// Scenario axis, by preset name ("none", "flash", "quake", "phased",
  /// "partition" — see scenario_by_name).  Named presets keep cells addressable from a
  /// worker command line; arbitrary ScenarioSpecs stay a library-level
  /// Experiment feature.
  std::vector<std::string> scenarios{"none"};
  /// Churn axis (Fig. 8's dynamic degree): one cell per value.
  std::vector<double> churns{0.0};
  /// Named config-modifier axis ("base", "delta4", "fanout2", "sel-nearest",
  /// "spread-cascade", "checkpoint", … — see apply_variant).  Like
  /// scenarios, names keep cells addressable from a worker command line;
  /// the ablation grids are spanned by this axis.
  std::vector<std::string> variants{"base"};
  /// Serving-workload axis, by preset name ("off"/"open", "closed",
  /// "zipf", "diurnal", '+'-composed — see workload::serving_by_name).
  /// The "off" default keeps cell keys and the spec fingerprint identical
  /// to pre-serving sweeps (no suffix, no sv=[] in describe()), so old
  /// manifests and shard files stay resumable.
  std::vector<std::string> servings{"off"};
  std::size_t repeats = 1;       ///< seeds per grid cell
  std::uint64_t base_seed = 1;   ///< mixed into every cell seed
  double hours = 6.0;            ///< simulated duration per experiment

  /// Parse from CLI flags (--protocols, --lambdas, --node-counts,
  /// --scenarios, --churns, --variants, --servings, --repeats, --base-seed,
  /// --hours).
  /// Unknown protocol/scenario/variant names return nullopt and print to
  /// stderr.  Flags absent from the command line fall back to `defaults` —
  /// how `--preset` grids stay overridable by explicit flags.
  [[nodiscard]] static std::optional<SweepSpec> from_args(
      const CliArgs& args, const SweepSpec& defaults);
  [[nodiscard]] static std::optional<SweepSpec> from_args(const CliArgs& args) {
    return from_args(args, SweepSpec{});
  }

  /// The spec as the equivalent CLI flags — how the orchestrator tells a
  /// worker process what sweep it belongs to.
  [[nodiscard]] std::vector<std::string> to_args() const;

  /// Compact one-line canonical description; equal specs (after axis
  /// sorting/dedup in normalized()) produce equal strings.
  [[nodiscard]] std::string describe() const;

  /// fnv1a(describe()) — stamped into every shard result and the manifest
  /// so resume and merge refuse to mix artifacts of different sweeps.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Canonical axis order: protocols by enum value, numeric axes
  /// ascending, scenarios lexicographic; duplicates removed.  Enumeration
  /// then yields cells sorted by key construction — and because every
  /// cell property is content-derived, a spec that arrives in a different
  /// axis order still produces the identical sweep.
  [[nodiscard]] SweepSpec normalized() const;

  /// All cells of the normalized grid.
  [[nodiscard]] std::vector<SweepCell> enumerate() const;

  [[nodiscard]] std::size_t cell_count() const {
    return protocols.size() * lambdas.size() * node_counts.size() *
           scenarios.size() * churns.size() * variants.size() *
           servings.size() * repeats;
  }
};

/// Apply a named config modifier — the ablation axis:
///   base            — no-op (the paper's defaults);
///   delta<N>        — want_results = N (first-k result count δ);
///   fanout<N>       — index_fanout_L = N (diffusion fan-out L);
///   sel-random / sel-nearest / sel-uniform — NINode selection policy;
///   spread-strict / spread-cascade — SID spreading-scope reading;
///   detached / tasks-lost / checkpoint — churn task policy.
/// Returns false (config untouched) for unknown names — sweep specs must
/// fail loudly, a shard silently running the wrong config would merge
/// wrong numbers.
[[nodiscard]] bool apply_variant(const std::string& name,
                                 core::ExperimentConfig& config);

/// A named figure/table/ablation grid: the paper's headline artifacts as
/// SweepSpec defaults, so `sweep_run --preset fig6` reproduces Fig. 6
/// through the sharded/resumable path.  `spec` carries the scaled default
/// grid (384 nodes, 6 simulated hours — pass --node-counts 2000 --hours 24
/// for paper scale; any explicit flag overrides its axis).  Presets whose
/// artifact is an hour-by-hour curve (Figs. 4–8) set `render_series` so
/// the merge step prints the figure tables.
struct SweepPreset {
  const char* name;
  const char* what;  ///< one-line description (CLI help)
  SweepSpec spec;
  bool render_series = false;
};

/// All presets, in paper order: fig4..fig8, table3, ablation-*.
[[nodiscard]] const std::vector<SweepPreset>& sweep_presets();

/// Preset by name; nullptr for unknown names (callers print the list).
[[nodiscard]] const SweepPreset* preset_by_name(const std::string& name);

/// Resolve a scenario preset against a cell's duration and population:
///   none   — disabled spec;
///   flash  — join burst of nodes/4 at 25% of the run over a 10% window;
///   quake  — spatial mass failure of 25% of the population at mid-run;
///   phased — churn phases 0 → 0.5 → 0.1 at 0% / 33% / 66% of the run;
///   partition — 30% spatial (LAN-boundary) cut at 35% of the run, healing
///   at 65% (stale-record-debt comparison).
/// nullopt for unknown names.
[[nodiscard]] std::optional<scenario::ScenarioSpec> scenario_by_name(
    const std::string& name, SimTime duration, std::size_t nodes);

}  // namespace soc::sweep
