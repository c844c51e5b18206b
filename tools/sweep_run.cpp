// sweep_run — the sweep orchestration CLI (src/sweep/): multi-process
// experiment sweeps with deterministic shards, crash-resume, and a merged
// BENCH-style report.
//
//   sweep_run [--mode=orchestrate] --dir D --shards N --workers W <spec>
//   sweep_run --mode=local        --dir D --shards N            <spec>
//   sweep_run --mode=worker       --dir D --shards N --shard K  <spec>
//   sweep_run --mode=plan         --dir D --shards N            <spec>
//   sweep_run --mode=merge        --dir D --shards N [--merged P] <spec>
//
// --trace=PATH (worker and local modes) records every experiment's
// query/task spans into one Chrome trace-event file, one lane per sweep
// cell; tracing is a pure observer, so shard bytes are unchanged.
//
// <spec> (the grid; every flag takes a comma-separated list):
//   --preset fig6                            (a paper figure/table/ablation
//                                            grid as spec defaults; any
//                                            explicit flag overrides its
//                                            axis — see --preset=list)
//   --protocols HID-CAN,Newscast,KHDN-CAN   --lambdas 0.3,0.5
//   --node-counts 96,384                    --scenarios none,flash
//   --churns 0.0,0.5                        --variants base,delta4
//   --servings off,closed+zipf              (serving-workload presets:
//                                            off|open|closed|zipf|diurnal,
//                                            '+'-composable — see `--preset
//                                            serving`; every cell carries
//                                            per-query latency percentiles
//                                            in the merged report)
//   --repeats 3 --base-seed 1 --hours 6
//
// The paper's figures reproduce through the presets: `sweep_run --preset
// fig4 --dir out/fig4` (likewise fig5..fig8, table3, ablation-*) runs the
// figure's grid sharded + resumable and prints its hour-by-hour tables
// after the merge.  --series=0/1 forces the figure tables off/on.
//
// Modes:
//   orchestrate  spawn W concurrent worker processes for the shards that
//                lack a valid result file (resume-aware), then merge.
//                Re-running after a crash re-runs only unfinished shards.
//   local        same pipeline, all shards in this process (the
//                single-process reference the determinism tests diff
//                against; also the no-fork fallback).
//   worker       execute one shard and write <dir>/shard-K.json
//                atomically — run these by hand on other machines, then
//                `--mode=merge` where the files land.
//   plan         write the manifest and print each shard's worker command
//                line without running anything.
//   merge        fold all shard files into the merged report
//                (default <dir>/SWEEP_merged.json) + summary table.
//
// The merged report is byte-identical for a given spec regardless of
// worker count or shard completion order; bench_compare accepts it
// (--check-counts=1 diffs of two merged reports gate the whole grid's
// trajectory).
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/obs/trace.hpp"
#include "src/sweep/merge.hpp"
#include "src/sweep/runner.hpp"

namespace {

using namespace soc;

/// mkdir -p (each component; EEXIST is fine).
bool mkdir_p(const std::string& path) {
  std::string cur;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!cur.empty() && cur != ".") {
        if (mkdir(cur.c_str(), 0777) != 0 && errno != EEXIST) return false;
      }
    }
    if (i < path.size()) cur += path[i];
  }
  return true;
}

/// This binary's path, for respawning workers.
std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

int run_merge(const std::string& dir, const sweep::SweepSpec& spec,
              std::size_t shards_total, const std::string& merged_path,
              bool render_series) {
  std::string err;
  const auto report = sweep::merge_shards(dir, spec, shards_total, &err);
  if (!report.has_value()) {
    std::fprintf(stderr, "sweep_run: merge failed: %s\n", err.c_str());
    return 1;
  }
  if (!sweep::write_merged_report(merged_path, spec, *report)) {
    std::fprintf(stderr, "sweep_run: cannot write %s\n", merged_path.c_str());
    return 1;
  }
  sweep::print_merged_table(*report);
  if (render_series) sweep::print_series_tables(*report);
  std::printf("\nwrote %s\n", merged_path.c_str());
  return 0;
}

void list_presets() {
  std::fprintf(stderr, "sweep_run: available presets:\n");
  for (const sweep::SweepPreset& p : sweep::sweep_presets()) {
    std::fprintf(stderr, "  %-20s %s\n", p.name, p.what);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string mode = args.get("mode", "orchestrate");
  const std::string dir = args.get("dir", "sweep-out");
  const auto shards_total =
      static_cast<std::size_t>(args.get_int("shards", 8));
  if (shards_total == 0) {
    std::fprintf(stderr, "sweep_run: --shards must be >= 1\n");
    return 2;
  }
  // A preset seeds the spec defaults; explicit axis flags still override.
  const std::string preset_name = args.get("preset", "");
  const sweep::SweepPreset* preset = nullptr;
  if (preset_name == "list") {
    list_presets();
    return 0;
  }
  if (!preset_name.empty()) {
    preset = sweep::preset_by_name(preset_name);
    if (preset == nullptr) {
      std::fprintf(stderr, "sweep_run: unknown --preset '%s'\n",
                   preset_name.c_str());
      list_presets();
      return 2;
    }
  }
  const auto spec_opt =
      preset != nullptr
          ? sweep::SweepSpec::from_args(args, preset->spec)
          : sweep::SweepSpec::from_args(args);
  if (!spec_opt.has_value()) return 2;
  const sweep::SweepSpec spec = *spec_opt;
  // Figure presets print their hour-by-hour tables after the merge;
  // --series overrides in either direction.
  const bool render_series =
      args.get_int("series", preset != nullptr && preset->render_series ? 1
                                                                        : 0)
      != 0;
  const std::string merged_path =
      args.get("merged", dir + "/SWEEP_merged.json");
  const std::string trace_path = args.get("trace", "");
  const std::int64_t shard_id = args.get_int("shard", -1);
  const auto workers = static_cast<std::size_t>(args.get_int("workers", 2));
  args.exit_on_errors();
  if (!mkdir_p(dir)) {
    std::fprintf(stderr, "sweep_run: cannot create %s\n", dir.c_str());
    return 2;
  }

  // Every mode that reads or writes shard artifacts must agree with
  // whatever sweep already lives in --dir.
  if (!sweep::dir_matches_sweep(dir, spec.fingerprint(), shards_total)) {
    return 2;
  }

  obs::Tracer tracer;

  if (mode == "worker") {
    if (shard_id < 0 || static_cast<std::size_t>(shard_id) >= shards_total) {
      std::fprintf(stderr, "sweep_run: worker mode needs --shard in [0,%zu)\n",
                   shards_total);
      return 2;
    }
    const auto shards = sweep::partition(spec, shards_total);
    const sweep::Shard& shard = shards[static_cast<std::size_t>(shard_id)];
    if (!trace_path.empty()) obs::install_tracer(&tracer);
    const sweep::ShardResult result =
        sweep::run_shard(shard, spec.fingerprint(), shards_total);
    if (!trace_path.empty()) {
      obs::install_tracer(nullptr);
      if (!tracer.export_json(trace_path)) {
        std::fprintf(stderr, "sweep_run: cannot write %s\n",
                     trace_path.c_str());
        return 1;
      }
      std::printf("wrote %s (%zu trace events)\n", trace_path.c_str(),
                  tracer.event_count());
    }
    if (!sweep::write_shard_result(dir, result)) {
      std::fprintf(stderr, "sweep_run: cannot write %s\n",
                   sweep::shard_path(dir, shard.id).c_str());
      return 1;
    }
    std::printf("shard %lld: %zu experiment(s) -> %s\n",
                static_cast<long long>(shard_id), result.cells.size(),
                sweep::shard_path(dir, shard.id).c_str());
    return 0;
  }

  if (mode == "merge") {
    return run_merge(dir, spec, shards_total, merged_path, render_series);
  }

  if (mode == "plan") {
    const auto shards = sweep::partition(spec, shards_total);
    sweep::Manifest manifest;
    manifest.spec_fingerprint = spec.fingerprint();
    manifest.spec = spec.describe();
    manifest.shards_total = shards_total;
    std::string spec_flags;
    for (const std::string& a : spec.to_args()) spec_flags += " " + a;
    std::printf("# %s\n# %zu cells over %zu shards; per-shard worker "
                "commands:\n",
                manifest.spec.c_str(), spec.cell_count(), shards_total);
    for (const auto& shard : shards) {
      const bool done = sweep::shard_complete(dir, shard,
                                              manifest.spec_fingerprint,
                                              shards_total);
      manifest.shards.push_back(
          {shard.id, shard.cells.size(), done ? "done" : "pending"});
      std::printf("%s sweep_run --mode=worker --dir=%s --shards=%zu "
                  "--shard=%zu%s\n",
                  done ? "# done:" : "", dir.c_str(), shards_total, shard.id,
                  spec_flags.c_str());
    }
    if (!sweep::write_manifest(dir, manifest)) {
      std::fprintf(stderr, "sweep_run: cannot write manifest in %s\n",
                   dir.c_str());
      return 1;
    }
    std::printf("wrote %s\n", sweep::manifest_path(dir).c_str());
    return 0;
  }

  if (mode == "orchestrate" || mode == "local") {
    if (!trace_path.empty()) {
      if (mode == "orchestrate") {
        // Worker processes each need their own trace file; use
        // --mode=worker --trace=... per shard (see --mode=plan).
        std::fprintf(stderr,
                     "sweep_run: --trace needs --mode=local or "
                     "--mode=worker (one file per process)\n");
        return 2;
      }
      obs::install_tracer(&tracer);
    }
    sweep::OrchestrateOptions options;
    options.dir = dir;
    options.workers = workers;
    if (mode == "orchestrate") options.worker_binary = self_exe(argv[0]);
    const auto outcome = sweep::orchestrate(spec, shards_total, options);
    if (!trace_path.empty()) {
      obs::install_tracer(nullptr);
      if (!tracer.export_json(trace_path)) {
        std::fprintf(stderr, "sweep_run: cannot write %s\n",
                     trace_path.c_str());
        return 1;
      }
      std::printf("wrote %s (%zu trace events)\n", trace_path.c_str(),
                  tracer.event_count());
    }
    if (!outcome.has_value()) return 2;
    std::printf("shards: %zu ran, %zu resumed as done, %zu failed\n",
                outcome->ran, outcome->skipped, outcome->failed);
    if (!outcome->ok()) return 1;
    return run_merge(dir, spec, shards_total, merged_path, render_series);
  }

  std::fprintf(stderr,
               "sweep_run: unknown --mode '%s' "
               "(orchestrate|local|worker|plan|merge)\n",
               mode.c_str());
  return 2;
}
