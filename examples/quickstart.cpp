// Quickstart: run a small Self-Organizing Cloud with the HID-CAN discovery
// protocol and print the paper's headline metrics.
//
//   ./example_quickstart [--nodes 256] [--lambda 0.5] [--hours 6]
//                        [--protocol hid-can|sid-can|hid-can+sos|sid-can+sos|
//                                    sid-can+vd|newscast|khdn-can]
//                        [--seed 1]
#include <cstdio>
#include <string>

#include "src/common/cli.hpp"
#include "src/core/experiment.hpp"

int main(int argc, char** argv) {
  const soc::CliArgs args(argc, argv);

  soc::core::ExperimentConfig config;
  const std::string name = args.get("protocol", "hid-can");
  config.nodes = static_cast<std::size_t>(args.get_int("nodes", 256));
  config.demand_ratio = args.get_double("lambda", 0.5);
  config.duration = soc::seconds(args.get_double("hours", 6.0) * 3600.0);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  args.exit_on_errors();
  const auto protocol = soc::core::protocol_from_name(name);
  if (!protocol.has_value()) {
    std::fprintf(stderr, "example_quickstart: unknown protocol '%s'\n",
                 name.c_str());
    return 2;
  }
  config.protocol = *protocol;

  std::printf("Self-Organizing Cloud quickstart\n");
  std::printf("  protocol=%s nodes=%zu lambda=%.2f duration=%.1fh seed=%llu\n\n",
              soc::core::protocol_name(config.protocol).c_str(), config.nodes,
              config.demand_ratio, soc::to_hours(config.duration),
              static_cast<unsigned long long>(config.seed));

  const soc::core::ExperimentResults r = soc::core::run_experiment(config);

  std::printf("hour  T-Ratio  F-Ratio  fairness  generated finished failed\n");
  for (const auto& s : r.series) {
    std::printf("%4.0f  %7.3f  %7.3f  %8.3f  %9llu %8llu %6llu\n", s.hour,
                s.t_ratio, s.f_ratio, s.fairness,
                static_cast<unsigned long long>(s.generated),
                static_cast<unsigned long long>(s.finished),
                static_cast<unsigned long long>(s.failed));
  }
  std::printf("\nfinal: T-Ratio=%.3f F-Ratio=%.3f fairness=%.3f\n", r.t_ratio,
              r.f_ratio, r.fairness);
  std::printf("traffic: %llu messages total, %.0f per node; "
              "avg query delay %.2fs; avg dispatch attempts %.2f\n",
              static_cast<unsigned long long>(r.total_messages),
              r.msg_cost_per_node, r.avg_query_delay_s,
              r.avg_dispatch_attempts);
  std::printf("simulated events: %llu\n",
              static_cast<unsigned long long>(r.events_executed));
  return 0;
}
