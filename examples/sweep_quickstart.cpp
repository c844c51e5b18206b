// Sweep quickstart: the library-level view of src/sweep/ — build a
// SweepSpec grid, partition it into deterministic shards, run them
// in-process, and fold the shard results into the merged report with
// per-config statistics across repeat seeds.
//
//   ./example_sweep_quickstart [--nodes 48] [--hours 0.25] [--repeats 2]
//
// The same sweep scales out without code changes: `sweep_run` runs each
// shard in its own worker process (or prints per-shard commands for other
// machines with --mode=plan), and the merged report comes out
// byte-identical to this in-process run — cell seeds and shard ids derive
// from cell content, never from who executed them.  Try it:
//
//   sweep_run --mode=orchestrate --workers=4 --dir /tmp/sweep-demo
//       --shards 8 --protocols HID-CAN,Newscast --lambdas 0.3,0.5
//       --node-counts 48 --repeats 2 --hours 0.25
#include <cstdio>
#include <filesystem>

#include "src/sweep/io.hpp"
#include "src/sweep/merge.hpp"
#include "src/sweep/runner.hpp"

using namespace soc;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);

  sweep::SweepSpec spec;
  spec.protocols = {core::ProtocolKind::kHidCan,
                    core::ProtocolKind::kNewscast};
  spec.lambdas = {0.3, 0.5};
  spec.node_counts = {
      static_cast<std::size_t>(args.get_int("nodes", 48))};
  spec.scenarios = {"none", "flash"};
  spec.repeats = static_cast<std::size_t>(args.get_int("repeats", 2));
  spec.hours = args.get_double("hours", 0.25);
  spec.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  args.exit_on_errors();

  const std::size_t shards_total = 4;
  std::printf("# sweep quickstart: %s\n", spec.describe().c_str());
  std::printf("# %zu cells across %zu shards, in-process\n\n",
              spec.cell_count(), shards_total);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "soc_sweep_quickstart")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // The orchestrator with no worker binary runs every shard right here;
  // point options.worker_binary at sweep_run to fan out instead.
  sweep::OrchestrateOptions options;
  options.dir = dir;
  const auto outcome = sweep::orchestrate(spec, shards_total, options);
  if (!outcome.has_value() || !outcome->ok()) {
    std::fprintf(stderr, "sweep failed\n");
    return 1;
  }
  std::printf("shards: %zu ran, %zu already done, %zu failed\n",
              outcome->ran, outcome->skipped, outcome->failed);

  std::string err;
  const auto report = sweep::merge_shards(dir, spec, shards_total, &err);
  if (!report.has_value()) {
    std::fprintf(stderr, "merge failed: %s\n", err.c_str());
    return 1;
  }
  sweep::print_merged_table(*report);

  const std::string merged = dir + "/SWEEP_merged.json";
  if (!sweep::write_merged_report(merged, spec, *report)) {
    std::fprintf(stderr, "cannot write %s\n", merged.c_str());
    return 1;
  }
  std::printf("\nmerged report: %s (bench_compare-readable)\n",
              merged.c_str());
  return 0;
}
