// Shard execution: run one shard's experiments (worker), and the local
// orchestrator that spawns N worker processes, tracks completion through
// the manifest + per-shard result files, and resumes after a crash by
// re-running only the shards without a valid result.
//
// Determinism contract: a CellResult's metric fields depend only on the
// cell's ExperimentConfig (run_experiment is deterministic in its config,
// and every cell's seed is content-derived) — wall_seconds is the single
// nondeterministic field, and the merger keeps it out of the merged
// report.  Hence the same spec merges byte-identically whether its shards
// ran in this process, in 1 worker, or in 16.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/metrics/latency_histogram.hpp"
#include "src/metrics/task_metrics.hpp"
#include "src/obs/registry.hpp"
#include "src/sweep/shard.hpp"

namespace soc::sweep {

/// Deterministic per-experiment results (plus wall-clock, which the merged
/// report excludes).
struct CellResult {
  std::string key;
  std::string group;
  std::uint64_t seed = 0;
  double t_ratio = 0.0;
  double f_ratio = 0.0;
  double fairness = 1.0;
  double msgs_per_node = 0.0;
  double avg_query_delay_s = 0.0;
  std::uint64_t generated = 0;
  std::uint64_t finished = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t messages_partitioned = 0;
  std::uint64_t stale_dead_provider = 0;
  std::uint64_t stale_misplaced = 0;
  /// Worst per-node map density at run end (deterministic; ≥ 1.0).
  double slot_span_ratio = 1.0;
  double wall_seconds = 0.0;  ///< nondeterministic; never merged
  /// Hour-by-hour samples (the paper figures' plotted shape), carried
  /// through the shard files so the merged report can render Figs. 4–8
  /// without re-running anything.
  std::vector<metrics::SeriesSample> series;
  /// Per-query latency histograms (submit→first qualified result,
  /// submit→finish), carried through shard files in the sparse
  /// LatencyHistogram::encode() form so the merger can fold repeats
  /// bucket-wise (exact integer sums — merge order never matters).
  metrics::LatencyHistogram latency_first_result;
  metrics::LatencyHistogram latency_finish;
  /// Registry snapshot, deterministic samples only (wall-clock and RSS
  /// gauges stay out — the merged report must be byte-identical however
  /// the shards ran).  Stored as {"k","v"} pairs in the shard file.
  std::vector<obs::MetricSample> metrics;
};

struct ShardResult {
  std::uint64_t spec_fingerprint = 0;
  std::size_t shard_id = 0;
  std::size_t shards_total = 0;
  std::vector<CellResult> cells;  ///< in shard cell order (sorted by key)
};

/// Execute every experiment of one shard in-process, in shard cell order.
[[nodiscard]] ShardResult run_shard(const Shard& shard,
                                    std::uint64_t spec_fingerprint,
                                    std::size_t shards_total);

/// Atomically write <dir>/shard-<id>.json.
bool write_shard_result(const std::string& dir, const ShardResult& result);

/// Parse a shard result file; nullopt when absent, malformed (the file is
/// read whole through src/common/json, so a truncated file is refused),
/// or missing any field the writer writes.
[[nodiscard]] std::optional<ShardResult> read_shard_result(
    const std::string& path);

/// Does a parsed result match the sweep fingerprint + shard geometry +
/// expected cell count/keys?  The validity half of shard_complete, split
/// out so callers that need the parsed cells (the merger) validate the
/// same parse they consume instead of reading the file twice.
[[nodiscard]] bool shard_result_valid(const ShardResult& result,
                                      const Shard& shard,
                                      std::uint64_t spec_fingerprint,
                                      std::size_t shards_total);

/// A shard is complete iff its result file exists, parses, and passes
/// shard_result_valid.
[[nodiscard]] bool shard_complete(const std::string& dir, const Shard& shard,
                                  std::uint64_t spec_fingerprint,
                                  std::size_t shards_total);

/// Shard ids still lacking a valid result file — the resume set.
[[nodiscard]] std::vector<std::size_t> pending_shards(
    const std::string& dir, const std::vector<Shard>& shards,
    std::uint64_t spec_fingerprint);

struct OrchestrateOptions {
  std::string dir;            ///< result/manifest directory (must exist)
  std::size_t workers = 2;    ///< concurrent worker processes
  std::string worker_binary;  ///< sweep_run path; empty = run in-process
};

struct OrchestrateOutcome {
  std::size_t ran = 0;      ///< shards executed this invocation
  std::size_t skipped = 0;  ///< shards already complete (resume)
  std::size_t failed = 0;   ///< shards whose worker died or wrote garbage
  [[nodiscard]] bool ok() const { return failed == 0; }
};

/// Run the sweep: partition, skip complete shards, execute the rest.
/// With a worker_binary, pending shards fan out over `workers` concurrent
/// worker processes (`sweep_run --mode=worker --shard=K ...`); otherwise
/// they run sequentially in-process — the single-process reference path
/// the determinism tests compare against.  Empty shards are completed
/// inline (their result file is written directly; no process spawn).
/// The manifest is rewritten atomically after every state change, and an
/// orchestrator killed at any point can simply be re-run: complete shards
/// are recognized by their result files and skipped.  Refuses to reuse a
/// directory whose manifest names a different sweep.
[[nodiscard]] std::optional<OrchestrateOutcome> orchestrate(
    const SweepSpec& spec, std::size_t shards_total,
    const OrchestrateOptions& options);

}  // namespace soc::sweep
