// Scale lane: prove the compacted memory layout at large populations on
// one machine.
//
//   ./bench_scale [--nodes N] [--hours H] [--seed S] [--churn D]
//                 [--protocol NAME] [--json BENCH_scale.json]
//                 [--verify-identical]
//
// One join/churn/query experiment at scale (defaults: 100k nodes, a short
// sim window, HID-CAN).  Emits the BENCH schema with the two memory-layout
// fields this lane exists to track: peak_rss_bytes_per_node (the
// bytes-per-node budget) and slot_span_ratio (worst per-node map density —
// bounded by DenseNodeMap compaction, see src/common/dense_node_map.hpp).
//
// --verify-identical runs the identical config twice in-process and fails
// unless both runs produce bit-identical results
// (ExperimentResults::fingerprint: counters, double bits, the series,
// per-MsgType traffic, both latency histograms and the deterministic
// registry samples) — the determinism half of the scale acceptance
// criterion.  The 1M-node invocation is in README "Scaling"; the ctest
// `scale` label runs the 100k smoke (see CMakeLists.txt).
#include <cinttypes>

#include "bench/bench_common.hpp"

using namespace soc;
using namespace soc::bench;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  BenchOptions opt;  // scale-lane defaults, not BenchOptions::parse's
  opt.nodes = static_cast<std::size_t>(args.get_int("nodes", 100000));
  opt.hours = args.get_double("hours", 0.05);
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.json_path = args.get("json", "BENCH_scale.json");
  const double churn = args.get_double("churn", 0.05);
  const std::string proto_name = args.get("protocol", "HID-CAN");
  const bool verify_identical = args.get_bool("verify-identical", false);
  args.exit_on_errors();

  const auto protocol = core::protocol_from_name(proto_name);
  if (!protocol.has_value()) {
    std::fprintf(stderr, "bench_scale: unknown protocol '%s'\n",
                 proto_name.c_str());
    return 2;
  }

  std::printf("# Scale lane: %zu nodes, %.3fh, churn %.3f, %s, seed %llu\n",
              opt.nodes, opt.hours, churn, proto_name.c_str(),
              static_cast<unsigned long long>(opt.seed));

  core::ExperimentConfig c = opt.base_config();
  c.protocol = *protocol;
  c.churn_dynamic_degree = churn;

  const PerfSample s = timed_run(c);
  const core::ExperimentResults& r1 = s.results;
  const double wall = s.wall_seconds > 0.0 ? s.wall_seconds : 1e-9;
  const std::uint64_t rss = peak_rss_bytes();
  std::printf("%-14s %10.1fs %12llu ev %10.0f ev/s %12llu msg\n",
              r1.protocol.c_str(), s.wall_seconds,
              static_cast<unsigned long long>(r1.events_executed),
              static_cast<double>(r1.events_executed) / wall,
              static_cast<unsigned long long>(r1.total_messages));
  std::printf("peak RSS: %.1f MiB  (%.0f bytes/node)\n",
              static_cast<double>(rss) / (1024.0 * 1024.0),
              static_cast<double>(rss) / static_cast<double>(c.nodes));
  std::printf("slot_span_ratio: %.3f\n", r1.slot_span_ratio);

  // Attribution-profiler breakdown: per-subsystem bytes/node from the
  // registry's capacity accounting (mem.<bucket>.bytes), against the
  // process-level peak-RSS figure above.  The coverage ratio says how much
  // of the real footprint the hooks explain — allocator slack, binary and
  // stack make up the remainder.
  std::printf("\n%-24s %14s %12s\n", "subsystem", "bytes", "bytes/node");
  double accounted = 0.0;
  for (const auto& m : r1.metrics) {
    if (m.name.rfind("mem.", 0) != 0 || m.name == "mem.slot_span_ratio" ||
        m.name == "mem.total.bytes") {
      continue;
    }
    // mem.<bucket>.bytes -> <bucket>
    const std::string bucket = m.name.substr(4, m.name.size() - 4 - 6);
    std::printf("%-24s %14.0f %12.1f\n", bucket.c_str(), m.value,
                m.value / static_cast<double>(c.nodes));
    accounted += m.value;
  }
  std::printf("%-24s %14.0f %12.1f  (%.0f%% of peak RSS)\n", "total",
              accounted, accounted / static_cast<double>(c.nodes),
              100.0 * accounted / static_cast<double>(rss));
  // The phase-boundary RSS gauges separate the two halves of the gap:
  // against the post-join RSS (before churn) the capacity hooks explain
  // nearly everything; the extra RSS the churn phase adds is glibc
  // free-list slack from departed nodes' freed state — held by the
  // allocator, attributable to no subsystem, and itself a bytes/node
  // lever (pooling per-node protocol state would reclaim it).
  for (const auto& m : r1.metrics) {
    if (m.name == "rss.post_join.bytes" && m.value > 0.0) {
      std::printf("coverage vs post-join RSS: %.0f%%  (churn adds %.1f MiB "
                  "allocator slack, %.0f bytes/node)\n",
                  100.0 * accounted / m.value,
                  (static_cast<double>(rss) - m.value) / (1024.0 * 1024.0),
                  (static_cast<double>(rss) - m.value) /
                      static_cast<double>(c.nodes));
    }
  }

  int rc = 0;
  if (verify_identical) {
    // Re-run the identical config and compare full result fingerprints.
    // The second run shares this process's heap on purpose: bit-identity
    // must hold against allocator/address-layout differences, not be an
    // artifact of a fresh address space.
    const core::ExperimentResults r2 = core::run_experiment(c);
    const std::uint64_t f1 = r1.fingerprint();
    const std::uint64_t f2 = r2.fingerprint();
    if (f1 == f2) {
      std::printf("verify-identical: OK (fingerprint %016" PRIx64 ")\n", f1);
    } else {
      std::fprintf(stderr,
                   "verify-identical: FAILED (%016" PRIx64 " != %016" PRIx64
                   ") — same-seed trajectory diverged\n",
                   f1, f2);
      rc = 1;
    }
  }

  if (!write_perf_json(opt.json_path, "scale", opt, {s})) return 1;
  std::printf("wrote %s\n", opt.json_path.c_str());
  return rc;
}
