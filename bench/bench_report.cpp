// Hot-path perf report: times full experiment runs (the trips through
// EventQueue and MessageBus that dominate every figure bench) and emits the
// BENCH_hotpath.json perf trajectory consumed by future PRs.
//
//   ./bench_report [--nodes N] [--hours H] [--seed S] [--full]
//                  [--json BENCH_hotpath.json] [--trace trace.json]
//                  [--profile-handlers]
//
// --trace records every experiment's query/task lifecycle spans into one
// Chrome trace-event file (open in Perfetto), one process lane per
// protocol.  Tracing is a pure observer: the table and JSON above are
// byte-identical with or without it.
//
// --profile-handlers attaches the obs::TimeProfiler to each experiment's
// MessageBus and prints a per-MsgType handler wall-time table (count,
// total ms, mean/p99 ns, share) — where simulated work spends real time.
// It costs a clock pair per delivered message, so leave it off when the
// wall-clock rates themselves are the measurement.
//
// Experiments run sequentially — one at a time, single-threaded — so each
// wall-clock figure measures the simulator alone, not pool scheduling.
#include "bench/bench_common.hpp"
#include "src/obs/trace.hpp"

using namespace soc;
using namespace soc::bench;
using core::ProtocolKind;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  BenchOptions opt = BenchOptions::parse(args);
  if (opt.json_path.empty()) opt.json_path = "BENCH_hotpath.json";
  const std::string trace_path = args.get("trace", "");
  const bool profile_handlers = args.get_bool("profile-handlers", false);
  args.exit_on_errors();
  opt.print_header("Hot-path perf report (events/sec, messages/sec)");

  const std::vector<ProtocolKind> protocols{
      ProtocolKind::kHidCan, ProtocolKind::kNewscast, ProtocolKind::kKhdnCan};

  obs::Tracer tracer;
  if (!trace_path.empty()) obs::install_tracer(&tracer);

  std::vector<PerfSample> samples;
  std::printf("\n%-14s %10s %14s %14s %14s %14s\n", "config", "wall-s",
              "events", "events/s", "messages", "msgs/s");
  std::uint32_t lane = 0;
  for (const ProtocolKind p : protocols) {
    core::ExperimentConfig c = opt.base_config();
    c.protocol = p;
    if (!trace_path.empty()) tracer.set_lane(lane++, core::protocol_name(p));
    obs::TimeProfiler profiler(static_cast<std::size_t>(net::MsgType::kCount));
    const PerfSample s =
        timed_run(c, profile_handlers ? &profiler : nullptr);
    const core::ExperimentResults& r = s.results;
    const double wall = s.wall_seconds > 0.0 ? s.wall_seconds : 1e-9;
    std::printf("%-14s %10.3f %14llu %14.0f %14llu %14.0f\n",
                r.protocol.c_str(), s.wall_seconds,
                static_cast<unsigned long long>(r.events_executed),
                static_cast<double>(r.events_executed) / wall,
                static_cast<unsigned long long>(r.total_messages),
                static_cast<double>(r.total_messages) / wall);
    samples.push_back(s);
    if (profile_handlers) {
      // Wall time per handler type: where the events/sec above is spent.
      std::uint64_t grand_total_ns = 0;
      for (std::size_t k = 0; k < profiler.keys(); ++k) {
        grand_total_ns += profiler.bucket(k).sum_us();  // ns samples
      }
      std::printf("  %-16s %12s %10s %10s %10s %7s\n", "handler", "count",
                  "total-ms", "mean-ns", "p99-ns", "share");
      for (std::size_t k = 0; k < profiler.keys(); ++k) {
        const metrics::LatencyHistogram& h = profiler.bucket(k);
        if (h.total() == 0) continue;
        std::printf("  %-16s %12llu %10.1f %10.0f %10.0f %6.1f%%\n",
                    std::string(net::msg_type_name(
                                    static_cast<net::MsgType>(k)))
                        .c_str(),
                    static_cast<unsigned long long>(h.total()),
                    static_cast<double>(h.sum_us()) / 1e6,
                    static_cast<double>(h.sum_us()) /
                        static_cast<double>(h.total()),
                    h.percentile_s(99.0) * 1e6,  // ns samples: *1e6, not 1e9
                    grand_total_ns > 0
                        ? 100.0 * static_cast<double>(h.sum_us()) /
                              static_cast<double>(grand_total_ns)
                        : 0.0);
      }
    }
  }
  // Phase-boundary RSS (registry gauges sampled inside each experiment):
  // the single getrusage high-water mark below cannot say *when* memory
  // peaked; these two samples bracket the join ramp vs the churn phase.
  std::printf("\n%-14s %16s %16s\n", "config", "rss-post-join", "rss-post-churn");
  for (const PerfSample& s : samples) {
    double post_join = 0.0, post_churn = 0.0;
    for (const auto& m : s.results.metrics) {
      if (m.name == "rss.post_join.bytes") post_join = m.value;
      if (m.name == "rss.post_churn.bytes") post_churn = m.value;
    }
    std::printf("%-14s %12.1f MiB %12.1f MiB\n", s.results.protocol.c_str(),
                post_join / (1024.0 * 1024.0), post_churn / (1024.0 * 1024.0));
  }
  std::printf("\npeak RSS: %.1f MiB\n",
              static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));

  if (!write_perf_json(opt.json_path, "hotpath", opt, samples)) return 1;
  std::printf("wrote %s\n", opt.json_path.c_str());
  if (!trace_path.empty()) {
    obs::install_tracer(nullptr);
    if (!tracer.export_json(trace_path)) {
      std::fprintf(stderr, "warning: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu trace events)\n", trace_path.c_str(),
                tracer.event_count());
  }
  return 0;
}
