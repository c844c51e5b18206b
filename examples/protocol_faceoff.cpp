// Protocol face-off: run every discovery protocol on the same workload
// (same seed, same population) and print a side-by-side comparison — the
// quickest way to see the paper's headline claim (HID-CAN is the stable
// all-round winner) on your own machine.  For multi-core runs of the full
// figure grids, use `sweep_run --preset fig5` (sharded across worker
// processes) instead.
//
//   ./example_protocol_faceoff [--nodes 384] [--lambda 0.5] [--hours 6]
#include <cstdio>

#include "src/common/cli.hpp"
#include "src/core/experiment.hpp"

int main(int argc, char** argv) {
  using namespace soc;
  const CliArgs args(argc, argv);
  const auto nodes = static_cast<std::size_t>(args.get_int("nodes", 384));
  const double lambda = args.get_double("lambda", 0.5);
  const double hours = args.get_double("hours", 6.0);

  const std::vector<core::ProtocolKind> kinds{
      core::ProtocolKind::kHidCan,    core::ProtocolKind::kSidCan,
      core::ProtocolKind::kHidCanSos, core::ProtocolKind::kSidCanSos,
      core::ProtocolKind::kSidCanVd,  core::ProtocolKind::kNewscast,
      core::ProtocolKind::kKhdnCan};

  std::printf("Face-off: %zu nodes, lambda=%.2f, %.1f simulated hours\n\n",
              nodes, lambda, hours);

  std::vector<core::ExperimentResults> results(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    core::ExperimentConfig c;
    c.protocol = kinds[i];
    c.nodes = nodes;
    c.demand_ratio = lambda;
    c.duration = seconds(hours * 3600.0);
    c.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    results[i] = core::run_experiment(c);
  }

  std::printf("%-14s %8s %8s %9s %12s %12s %13s\n", "protocol", "T-Ratio",
              "F-Ratio", "fairness", "msgs/node", "query-delay",
              "dispatch-try");
  for (const auto& r : results) {
    std::printf("%-14s %8.3f %8.3f %9.3f %12.0f %11.2fs %13.2f\n",
                r.protocol.c_str(), r.t_ratio, r.f_ratio, r.fairness,
                r.msg_cost_per_node, r.avg_query_delay_s,
                r.avg_dispatch_attempts);
  }

  // Rank by throughput, then by failed-task ratio.
  std::size_t best = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].t_ratio > results[best].t_ratio) best = i;
  }
  std::printf("\nwinner on throughput: %s (T-Ratio %.3f, F-Ratio %.3f)\n",
              results[best].protocol.c_str(), results[best].t_ratio,
              results[best].f_ratio);
  return 0;
}
