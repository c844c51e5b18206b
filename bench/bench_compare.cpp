// Mechanical perf-regression gate over BENCH_*.json perf-trajectory files
// (the schema bench_common.hpp's write_perf_json emits).  The comparison
// logic lives in bench/compare_core.hpp (unit-tested); this file is the
// CLI.
//
//   ./bench_compare [--threshold 0.10] [--check-counts=1] old.json new.json
//   ./bench_compare --trend=N [--threshold 0.10] [--check-counts=1]
//                   hist1.json hist2.json ... new.json
//
// (Flag values use the = form when a positional operand follows, matching
// CliArgs's "--name value" consumption rule.)
//
// Single-baseline mode compares the hot-path rates (events/sec,
// messages/sec) of every experiment present in both files and exits
// non-zero when the new file is more than `threshold` slower on any of
// them.  Trend mode gates against the per-experiment *median* of the last
// N history files instead — one noisy baseline cannot move a median, so
// the threshold can sit tighter without flaking (run it once several PRs
// of baseline history exist).  Wall-clock rates only make sense on one
// machine under one config, so the tool refuses to compare files whose
// nodes/hours differ.
//
// --check-counts additionally fails when the event/message *counts* drift
// for the same config+seed — a determinism tripwire: an engine refactor
// that changes counts changed the simulated trajectory, not just its
// speed.  In trend mode counts compare against the most recent history
// file (counts are exact; medians are not meaningful for them).
//
// The checked-in bench/BENCH_baseline.json is the perf-history anchor; the
// bench_compare ctest target re-runs bench_report at the baseline's config
// and diffs against it with a tolerant threshold (CI machines are noisy —
// the gate is for order-of-magnitude regressions, the README table is for
// the curated trajectory).
#include <cstdio>
#include <cstring>

#include "bench/compare_core.hpp"
#include "src/common/cli.hpp"

namespace {

std::optional<soc::bench::PerfReport> parse_report_file(
    const std::string& path) {
  const auto text = soc::json::read_file(path);
  if (!text.has_value()) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::string err;
  auto r = soc::bench::parse_report_text(*text, &err);
  if (!r.has_value()) {
    std::fprintf(stderr, "bench_compare: %s in %s\n", err.c_str(),
                 path.c_str());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // Positional operands (the report files) are whatever does not look like
  // a flag; flags go through CliArgs.
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      // Skip the flag's value form "--name value".
      const bool has_eq = std::strchr(argv[i], '=') != nullptr;
      const bool next_is_value =
          !has_eq && i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
      if (next_is_value) ++i;
      continue;
    }
    files.emplace_back(argv[i]);
  }
  const soc::CliArgs args(argc, argv);
  const double threshold = args.get_double("threshold", 0.10);
  const bool check_counts = args.get_bool("check-counts", false);
  const auto trend = static_cast<std::size_t>(args.get_int("trend", 0));
  args.exit_on_errors();

  if ((trend == 0 && files.size() != 2) || (trend > 0 && files.size() < 2)) {
    std::fprintf(
        stderr,
        "usage: bench_compare [--threshold 0.10] [--check-counts=1] "
        "old.json new.json\n"
        "       bench_compare --trend=N [...] hist1.json ... new.json\n");
    return 2;
  }

  std::vector<soc::bench::PerfReport> reports;
  for (const std::string& f : files) {
    const auto r = parse_report_file(f);
    if (!r.has_value()) return 2;
    reports.push_back(*r);
  }
  const soc::bench::PerfReport fresh = reports.back();
  reports.pop_back();

  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].nodes != fresh.nodes || reports[i].hours != fresh.hours) {
      std::fprintf(stderr,
                   "bench_compare: config mismatch (%s: nodes=%.0f "
                   "hours=%.2f, new: nodes=%.0f hours=%.2f) — rates are not "
                   "comparable\n",
                   files[i].c_str(), reports[i].nodes, reports[i].hours,
                   fresh.nodes, fresh.hours);
      return 2;
    }
  }

  const soc::bench::PerfReport base =
      trend > 0 ? soc::bench::median_baseline(reports, trend) : reports[0];
  const bool same_seed = base.seed == fresh.seed;

  if (trend > 0) {
    std::printf("# bench_compare --trend=%zu over %zu history file(s) -> %s "
                "(threshold %.0f%%)\n",
                trend, reports.size(), files.back().c_str(),
                threshold * 100.0);
  } else {
    std::printf("# bench_compare %s -> %s (threshold %.0f%%)\n",
                files[0].c_str(), files.back().c_str(), threshold * 100.0);
  }

  const soc::bench::CompareOutcome out = soc::bench::compare_reports(
      base, fresh, threshold, same_seed, check_counts);

  if (out.regressions > 0) {
    std::fprintf(stderr, "bench_compare: %d regression(s) beyond %.0f%%\n",
                 out.regressions, threshold * 100.0);
    return 1;
  }
  if (check_counts && out.count_drifts > 0) {
    std::fprintf(stderr,
                 "bench_compare: %d same-seed count drift(s) — determinism "
                 "tripwire\n",
                 out.count_drifts);
    return 1;
  }
  std::printf("bench_compare: OK\n");
  return 0;
}
