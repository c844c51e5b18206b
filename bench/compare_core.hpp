// Core of the bench_compare gate, factored out of the binary so the trend
// logic is unit-testable (tests/bench_compare_trend_test.cpp) and the CLI
// in bench_compare.cpp stays a thin wrapper.
//
// Two gating modes over BENCH_*.json perf-trajectory reports:
//   * single-baseline: new rates vs one old report, threshold-gated — the
//     original gate;
//   * trend (--trend=N): new rates vs the per-experiment *median* of the
//     last N history reports.  One noisy baseline run (a machine hiccup in
//     either direction) cannot move a median anchored by N-1 sane runs,
//     so the threshold can sit tighter without flaking — the ROADMAP
//     trend-gating item.
//
// Count-drift checking (the determinism tripwire) always compares against
// the *most recent* same-seed history report: counts are exact, medians
// are not meaningful for them.
//
// Besides bench_report's BENCH_*.json, this parser also accepts the sweep
// subsystem's merged reports (src/sweep/merge.hpp): a merged sweep report
// is BENCH-schema with "bench": "sweep", one experiment block per config
// group ("name" = the group key, e.g. "HID-CAN/l0.50/n64"), summed
// same-seed counts in "events"/"messages", and zeroed wall-clock rates —
// merged reports are byte-deterministic across machines and worker counts,
// so rates are meaningless there but the count tripwire is exact.  Extra
// per-group keys (t_ratio_mean, f_ratio_ci95, ...) are simply ignored
// here.  Comparing two merged reports of the same spec with
// --check-counts=1 is a whole-grid trajectory gate.
//
// Both kinds are read through the src/common/json codec: a report is
// parsed whole, so a truncated or malformed file is refused outright
// instead of gating on whatever fields happened to precede the damage.
#pragma once

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/common/json.hpp"

namespace soc::bench {

/// The fields the gate reads from one experiment block.
struct PerfExperiment {
  std::string name;
  double events = 0.0;
  double events_per_sec = 0.0;
  double messages = 0.0;
  double messages_per_sec = 0.0;
};

struct PerfReport {
  double nodes = 0.0;
  double hours = 0.0;
  double seed = 0.0;
  /// Printed, never gated; 0.0 for merged sweep reports, which have no
  /// process to measure, and for reports that predate the field.
  double peak_rss_bytes_per_node = 0.0;
  std::vector<PerfExperiment> experiments;
};

/// Parse one BENCH_*.json or merged sweep report body.  Returns nullopt
/// (and sets `err`) when the document is malformed, lacks a field the gate
/// reads, or holds no experiment.
inline std::optional<PerfReport> parse_report_text(const std::string& text,
                                                   std::string* err) {
  const auto fail = [err](const char* why) {
    if (err != nullptr) *err = why;
    return std::nullopt;
  };
  const auto doc = json::parse(text);
  if (!doc.has_value()) return fail("malformed JSON");
  json::Fields f(*doc);
  PerfReport r;
  r.nodes = f.f64("nodes");
  r.hours = f.f64("hours");
  r.seed = f.f64("seed");
  if (const json::Value* rss = doc->find("peak_rss_bytes_per_node")) {
    r.peak_rss_bytes_per_node = rss->f64().value_or(0.0);
  }
  for (const json::Value& v : f.array("experiments")) {
    json::Fields e(v);
    r.experiments.push_back(
        PerfExperiment{e.str("name"), e.f64("events"), e.f64("events_per_sec"),
                       e.f64("messages"), e.f64("messages_per_sec")});
    if (!e.ok()) return fail("experiment lacks a field the gate reads");
  }
  if (!f.ok()) return fail("report lacks a field the gate reads");
  if (r.experiments.empty()) return fail("no experiments found");
  return r;
}

inline const PerfExperiment* find_experiment(const PerfReport& r,
                                             const std::string& name) {
  for (const auto& e : r.experiments) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

inline double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Collapse the last `last_n` history reports into one baseline: for every
/// experiment of the most recent report, the rate fields become the median
/// over the history reports that contain that experiment; counts (and the
/// config/seed header) are taken from the most recent report verbatim, so
/// the count-drift tripwire still compares exact same-seed integers.
inline PerfReport median_baseline(const std::vector<PerfReport>& history,
                                  std::size_t last_n) {
  const std::size_t n = std::min(last_n, history.size());
  const PerfReport& newest = history.back();
  PerfReport base = newest;
  for (PerfExperiment& e : base.experiments) {
    std::vector<double> ev_rates;
    std::vector<double> msg_rates;
    for (std::size_t i = history.size() - n; i < history.size(); ++i) {
      if (const PerfExperiment* h = find_experiment(history[i], e.name)) {
        ev_rates.push_back(h->events_per_sec);
        msg_rates.push_back(h->messages_per_sec);
      }
    }
    if (!ev_rates.empty()) {
      e.events_per_sec = median_of(ev_rates);
      e.messages_per_sec = median_of(msg_rates);
    }
  }
  return base;
}

struct CompareOutcome {
  int regressions = 0;
  int count_drifts = 0;
};

/// Rate + count comparison of `fresh` against `base`, printing the table
/// to stdout (the bench_compare CLI output).  `same_seed` gates the count
/// tripwire; `check_counts` only selects the drift note's styling (the
/// caller decides whether drifts fail the run).
inline CompareOutcome compare_reports(const PerfReport& base,
                                      const PerfReport& fresh,
                                      double threshold, bool same_seed,
                                      bool check_counts = false) {
  CompareOutcome out;
  std::printf("%-14s %14s %14s %8s %14s %14s %8s\n", "config", "old-ev/s",
              "new-ev/s", "ratio", "old-msg/s", "new-msg/s", "ratio");
  // A baseline experiment missing from the new report is the most extreme
  // regression of all (the benchmark vanished) — never pass it silently.
  for (const PerfExperiment& e_old : base.experiments) {
    if (find_experiment(fresh, e_old.name) == nullptr) {
      std::printf("%-14s MISSING from new report  << REGRESSION\n",
                  e_old.name.c_str());
      ++out.regressions;
    }
  }
  for (const PerfExperiment& e_new : fresh.experiments) {
    const PerfExperiment* e_old = find_experiment(base, e_new.name);
    if (e_old == nullptr) {
      std::printf("%-14s (new; no baseline)\n", e_new.name.c_str());
      continue;
    }
    const double ev_ratio = e_old->events_per_sec > 0.0
                                ? e_new.events_per_sec / e_old->events_per_sec
                                : 1.0;
    const double msg_ratio =
        e_old->messages_per_sec > 0.0
            ? e_new.messages_per_sec / e_old->messages_per_sec
            : 1.0;
    const bool regressed =
        ev_ratio < 1.0 - threshold || msg_ratio < 1.0 - threshold;
    std::printf("%-14s %14.0f %14.0f %7.2fx %14.0f %14.0f %7.2fx%s\n",
                e_new.name.c_str(), e_old->events_per_sec,
                e_new.events_per_sec, ev_ratio, e_old->messages_per_sec,
                e_new.messages_per_sec, msg_ratio,
                regressed ? "  << REGRESSION" : "");
    if (regressed) ++out.regressions;
    if (same_seed &&
        (e_old->events != e_new.events || e_old->messages != e_new.messages)) {
      ++out.count_drifts;
      std::printf(
          "%-14s note: same-seed counts drifted (events %.0f -> %.0f, "
          "messages %.0f -> %.0f)%s\n",
          "", e_old->events, e_new.events, e_old->messages, e_new.messages,
          check_counts ? "  << DRIFT" : " — trajectory changed");
    }
  }
  // Memory-layout fields are informational only (0.0 / 1.0 when a report
  // predates them) — printed for the eyeball, never counted as regressions.
  if (base.peak_rss_bytes_per_node > 0.0 ||
      fresh.peak_rss_bytes_per_node > 0.0) {
    std::printf("peak RSS/node: old %.0f B, new %.0f B\n",
                base.peak_rss_bytes_per_node, fresh.peak_rss_bytes_per_node);
  }
  return out;
}

}  // namespace soc::bench
