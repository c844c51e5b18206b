// Shared infrastructure for the perf benches: option parsing, timed
// experiment runs, and the BENCH_*.json perf-trajectory report.
//
// The paper's figure/table grids no longer live here — they are SweepSpec
// presets (`sweep_run --preset fig4` … — see src/sweep/spec.hpp), which
// run sharded, resumable, and byte-deterministic instead of via an
// in-process thread pool.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/cli.hpp"
#include "src/core/experiment.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/registry.hpp"

namespace soc::bench {

struct BenchOptions {
  std::size_t nodes = 384;        ///< scaled default; --full → 2000
  double hours = 6.0;             ///< scaled default; --full → 24
  std::uint64_t seed = 1;
  bool full = false;
  std::string json_path;          ///< --json <path>: emit a BENCH_*.json

  static BenchOptions parse(const CliArgs& args) {
    BenchOptions o;
    o.full = args.get_bool("full", false);
    o.nodes = static_cast<std::size_t>(
        args.get_int("nodes", o.full ? 2000 : 384));
    o.hours = args.get_double("hours", o.full ? 24.0 : 6.0);
    o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    o.json_path = args.get("json", "");
    return o;
  }

  [[nodiscard]] core::ExperimentConfig base_config() const {
    core::ExperimentConfig c;
    c.nodes = nodes;
    c.duration = seconds(hours * 3600.0);
    c.sample_step = seconds(3600);
    c.seed = seed;
    return c;
  }

  void print_header(const char* what) const {
    std::printf("# %s\n", what);
    std::printf("# nodes=%zu duration=%.1fh seed=%llu%s\n", nodes, hours,
                static_cast<unsigned long long>(seed),
                full ? " (paper scale)" : " (scaled; pass --full for paper scale)");
  }
};

// ---------------------------------------------------------------------------
// Perf-trajectory JSON (--json <path>).
//
// Every bench can emit a machine-readable BENCH_*.json so successive PRs
// have a perf baseline to beat.  Schema (one object per file):
//   {
//     "bench": "<name>",            // e.g. "hotpath"
//     "nodes": 384, "hours": 6.0, "seed": 1, "full": false,
//     "peak_rss_bytes": 123456789,  // getrusage high-water mark
//     "peak_rss_bytes_per_node": 321412.0,  // per configured node
//     "experiments": [
//       { "name": "HID-CAN", "wall_seconds": 1.23,
//         "events": 1000, "events_per_sec": 813.0,
//         "messages": 500, "messages_per_sec": 406.5,
//         "t_ratio": 0.9, "f_ratio": 0.05, "msgs_per_node": 120.0,
//         "messages_partitioned": 0,
//         "stale_dead_provider": 0, "stale_misplaced": 0,
//         "slot_span_ratio": 1.0,   // per-node map density (≥ 1.0)
//         "latency": {              // per-query tail latency (seconds)
//           "first_result": { "n": 100, "mean_s": 1.0, "p50_s": 0.8,
//                             "p95_s": 2.0, "p99_s": 3.0, "p999_s": 4.0 },
//           "finish": { ... } },
//         "traffic": [
//           { "type": "state-update", "sent": 10, "delivered": 9,
//             "lost": 1, "partitioned": 0 } ],
//         "metrics": [ { "k": "bus.state-update.sent", "v": 10 } ] }
//     ]
//   }
//
// Written through the src/common/json codec (doubles in shortest
// round-trip form).  bench_compare diffs two such files and exits
// non-zero on regressions beyond a threshold (see
// bench/bench_compare.cpp).
// ---------------------------------------------------------------------------

/// One timed experiment run for the JSON report.
struct PerfSample {
  double wall_seconds = 0.0;
  core::ExperimentResults results;
};

/// Resident-set high-water mark of this process, in bytes.
inline std::uint64_t peak_rss_bytes() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(u.ru_maxrss);  // macOS reports bytes
#else
  return static_cast<std::uint64_t>(u.ru_maxrss) * 1024;  // Linux: KiB
#endif
}

/// Run one config under a wall-clock timer and record the hot-path rates.
/// With a TimeProfiler, each delivered message's handler is additionally
/// timed into the profiler's per-MsgType bucket (pure observer on the
/// trajectory, but it costs a clock pair per delivery — keep it off for
/// the rate figures the trajectory gate compares).
inline PerfSample timed_run(const core::ExperimentConfig& config,
                            obs::TimeProfiler* profiler = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  core::Experiment exp(config);
  exp.setup();
  if (profiler != nullptr) exp.bus().set_time_profiler(profiler);
  exp.run();
  core::ExperimentResults r = exp.results();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return PerfSample{dt.count(), std::move(r)};
}

/// Emit the perf-trajectory JSON; returns false (with a warning) on I/O
/// failure so benches keep printing their tables regardless.
inline bool write_perf_json(const std::string& path, const char* bench_name,
                            const BenchOptions& opt,
                            const std::vector<PerfSample>& samples) {
  if (path.empty()) return true;
  json::Array experiments;
  for (const PerfSample& s : samples) {
    const core::ExperimentResults& r = s.results;
    const double wall = s.wall_seconds > 0.0 ? s.wall_seconds : 1e-9;
    json::Array traffic;
    for (const auto& t : r.traffic_by_type) {
      traffic.push_back(json::Object{
          {"type", t.type}, {"sent", t.sent}, {"delivered", t.delivered},
          {"lost", t.lost}, {"partitioned", t.partitioned}});
    }
    json::Array pairs;
    for (const obs::MetricSample& m : r.metrics) {
      pairs.push_back(json::Object{{"k", m.name}, {"v", m.value}});
    }
    experiments.push_back(json::Object{
        {"name", r.protocol}, {"wall_seconds", s.wall_seconds},
        {"events", r.events_executed},
        {"events_per_sec", static_cast<double>(r.events_executed) / wall},
        {"messages", r.total_messages},
        {"messages_per_sec", static_cast<double>(r.total_messages) / wall},
        {"t_ratio", r.t_ratio}, {"f_ratio", r.f_ratio},
        {"msgs_per_node", r.msg_cost_per_node},
        {"messages_partitioned", r.messages_partitioned},
        {"stale_dead_provider", r.stale_records_dead_provider},
        {"stale_misplaced", r.stale_records_misplaced},
        {"slot_span_ratio", r.slot_span_ratio},
        {"latency",
         json::Object{{"first_result", r.latency_first_result.summary_json()},
                      {"finish", r.latency_finish.summary_json()}}},
        {"traffic", std::move(traffic)},
        {"metrics", std::move(pairs)}});
  }
  const std::uint64_t rss = peak_rss_bytes();
  const json::Object doc{
      {"bench", bench_name}, {"nodes", opt.nodes}, {"hours", opt.hours},
      {"seed", opt.seed}, {"full", opt.full}, {"peak_rss_bytes", rss},
      {"peak_rss_bytes_per_node",
       static_cast<double>(rss) /
           static_cast<double>(std::max<std::size_t>(opt.nodes, 1))},
      {"experiments", std::move(experiments)}};
  if (!json::save(path, doc)) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace soc::bench
