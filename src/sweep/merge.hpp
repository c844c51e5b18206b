// Merge per-shard results into one combined sweep report.
//
// The merged report is BENCH-schema JSON (bench/compare_core.hpp parses
// it; bench_compare can diff two merged reports of the same spec, and
// --check-counts=1 then acts as a whole-grid trajectory tripwire): one
// "experiments" entry per config *group* (the grid cell, repeats
// collapsed) with summed deterministic counts plus mean/median/95%-CI
// statistics across the repeat seeds.
//
// Byte-determinism: cells are sorted by key before any accumulation, all
// statistics are computed in that fixed order from values that round-trip
// the shard files bit-exactly, and nothing wall-clock-dependent is
// emitted ("wall_seconds" and the rate fields are fixed at 0) — so the
// merged bytes are identical no matter how many workers produced the
// shards, in which order they finished, or on which machine the merge
// ran.  Merging is idempotent: re-merging the same shard files rewrites
// the identical file.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/sweep/runner.hpp"

namespace soc::sweep {

/// One hour of a group's figure curve: per-metric means across the repeat
/// seeds that recorded a sample at this hour index.  `repeats` counts the
/// cells that actually had the sample — short (ragged) series are NOT
/// padded with zeros; renderers mark sparse points instead (a padded 0.0
/// would silently drag a figure's tail toward the floor).
struct GroupSeriesPoint {
  double hour = 0.0;
  std::size_t repeats = 0;  ///< cells contributing this hour index
  double t_ratio_mean = 0.0;
  double f_ratio_mean = 0.0;
  double fairness_mean = 1.0;
};

/// Statistics of one config group across its repeat seeds.
struct GroupStats {
  std::string group;
  std::size_t repeats = 0;
  double t_ratio_mean = 0.0, t_ratio_median = 0.0, t_ratio_ci95 = 0.0;
  double f_ratio_mean = 0.0, f_ratio_median = 0.0, f_ratio_ci95 = 0.0;
  double fairness_mean = 1.0, fairness_ci95 = 0.0;
  double msgs_per_node_mean = 0.0;
  double avg_query_delay_s_mean = 0.0;
  std::uint64_t generated = 0, finished = 0, failed = 0;  ///< summed
  std::uint64_t events = 0, messages = 0;                 ///< summed
  std::uint64_t messages_partitioned = 0;                 ///< summed
  /// Stale-record debt at run end, summed over repeats.
  std::uint64_t stale_dead_provider = 0, stale_misplaced = 0;
  /// Worst per-node map density across repeats (max, not mean: one
  /// degenerate run is exactly what the metric exists to surface).
  double slot_span_ratio_max = 1.0;
  /// Per-query latency, folded bucket-wise across the group's repeats.
  /// Bucket counts are exact integer sums, so the fold is associative and
  /// commutative — the merged histogram (and every percentile read off it)
  /// is identical no matter how the cells were sharded or ordered.
  metrics::LatencyHistogram latency_first_result;
  metrics::LatencyHistogram latency_finish;
  /// 95% CI half-width of the per-repeat p99 (tail spread across seeds;
  /// 0 with a single repeat, and 0 when no repeat recorded a query).
  double latency_first_p99_ci95 = 0.0;
  double latency_finish_p99_ci95 = 0.0;
  /// Hour-by-hour curve (the figure shape), indexed by sample position.
  std::vector<GroupSeriesPoint> series;
  /// Registry metrics, per-name mean over the group's repeats, sorted by
  /// name (deterministic bytes regardless of shard layout).
  std::vector<obs::MetricSample> metrics_mean;
};

struct MergedReport {
  std::uint64_t spec_fingerprint = 0;
  std::size_t shards_total = 0;
  std::vector<CellResult> cells;   ///< all cells, sorted by key
  std::vector<GroupStats> groups;  ///< sorted by first-cell key order
};

/// Read every shard file of the sweep and fold.  Fails (with a message in
/// `err`) when any shard is missing/invalid — a partial merge would
/// silently under-report the grid.
[[nodiscard]] std::optional<MergedReport> merge_shards(
    const std::string& dir, const SweepSpec& spec, std::size_t shards_total,
    std::string* err);

/// The BENCH-style merged report (see file comment), written atomically.
bool write_merged_report(const std::string& path, const SweepSpec& spec,
                         const MergedReport& report);

/// Human summary table (stdout): one row per group, mean ± CI.
void print_merged_table(const MergedReport& report);

/// Figure tables (stdout): one table per metric (T-Ratio, F-Ratio,
/// fairness), rows = simulated hour, columns = config groups (labels
/// shortened by dropping key components shared by every group).  Hour
/// indices a group never sampled print "-"; points where only some of a
/// group's repeats reached that hour are marked with "*" — ragged series
/// are surfaced, never zero-padded.
void print_series_tables(const MergedReport& report);

}  // namespace soc::sweep
