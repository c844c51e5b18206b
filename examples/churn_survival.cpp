// Churn survival: drive HID-CAN through increasingly hostile node-churning
// (the Fig. 8 scenario) and watch the discovery quality degrade — then
// verify the overlay structurally survived (each node one valid zone,
// symmetric neighbor tables) via the CanSpace invariant checker.
//
//   ./example_churn_survival [--nodes 256] [--hours 4]
#include <cstdio>

#include "src/common/cli.hpp"
#include "src/core/experiment.hpp"
#include "src/core/pidcan_protocol.hpp"

int main(int argc, char** argv) {
  using namespace soc;
  const CliArgs args(argc, argv);
  const auto nodes = static_cast<std::size_t>(args.get_int("nodes", 256));
  const double hours = args.get_double("hours", 4.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  args.exit_on_errors();

  std::printf("HID-CAN under churn (%zu nodes, lambda=0.5, %.1fh)\n\n", nodes,
              hours);
  std::printf("%-10s %8s %8s %9s %11s %9s %16s\n", "churn", "T-Ratio",
              "F-Ratio", "fairness", "msgs/node", "alive", "overlay-valid");

  for (const double degree : {0.0, 0.25, 0.5, 0.75, 0.95}) {
    core::ExperimentConfig c;
    c.protocol = core::ProtocolKind::kHidCan;
    c.nodes = nodes;
    c.demand_ratio = 0.5;
    c.duration = seconds(hours * 3600.0);
    c.churn_dynamic_degree = degree;
    c.seed = seed;

    core::Experiment ex(c);
    ex.setup();
    ex.run();
    const auto r = ex.results();

    // Structural check: after hours of churn, the CAN space must still
    // tile the unit cube with one zone per live node and exact neighbor
    // tables.
    auto& pid = dynamic_cast<core::PidCanProtocol&>(ex.protocol());
    const bool valid = pid.space().verify_invariants();

    char churn_label[16];
    std::snprintf(churn_label, sizeof churn_label, "%.0f%%", degree * 100.0);
    std::printf("%-10s %8.3f %8.3f %9.3f %11.0f %9zu %16s\n", churn_label,
                r.t_ratio, r.f_ratio, r.fairness, r.msg_cost_per_node,
                ex.alive_nodes(), valid ? "yes" : "NO (bug!)");
  }
  std::printf("\nRunning tasks keep executing when their host leaves the\n"
              "overlay (the paper defers execution fault-tolerance to future\n"
              "work); churn only perturbs discovery state.\n");
  return 0;
}
