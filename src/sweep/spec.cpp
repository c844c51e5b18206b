#include "src/sweep/spec.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "src/common/assert.hpp"
#include "src/common/rng.hpp"
#include "src/workload/serving.hpp"

namespace soc::sweep {

namespace {

template <typename... Args>
std::string fmt(const char* f, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, args...);
  return buf;
}

}  // namespace

namespace {

std::string join_strings(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ',';
    out += parts[i];
  }
  return out;
}

std::string join_doubles(const std::vector<double>& vals) {
  std::string out;
  for (const double v : vals) out += fmt("%s%.6g", out.empty() ? "" : ",", v);
  return out;
}

std::string join_sizes(const std::vector<std::size_t>& vals) {
  std::string out;
  for (const std::size_t v : vals) {
    out += fmt("%s%zu", out.empty() ? "" : ",", v);
  }
  return out;
}

std::vector<std::string> protocol_names(
    const std::vector<core::ProtocolKind>& protocols) {
  std::vector<std::string> names;
  names.reserve(protocols.size());
  for (const core::ProtocolKind p : protocols) {
    names.push_back(core::protocol_name(p));
  }
  return names;
}

}  // namespace

std::optional<SweepSpec> SweepSpec::from_args(const CliArgs& args,
                                              const SweepSpec& defaults) {
  SweepSpec spec;
  spec.protocols.clear();
  for (const std::string& name : args.get_list(
           "protocols", join_strings(protocol_names(defaults.protocols)))) {
    const auto kind = core::protocol_from_name(name);
    if (!kind.has_value()) {
      std::fprintf(stderr, "sweep: unknown protocol '%s'\n", name.c_str());
      return std::nullopt;
    }
    spec.protocols.push_back(*kind);
  }
  const auto lambdas =
      args.get_double_list("lambdas", join_doubles(defaults.lambdas));
  const auto node_counts =
      args.get_size_list("node-counts", join_sizes(defaults.node_counts));
  const auto churns =
      args.get_double_list("churns", join_doubles(defaults.churns));
  if (!lambdas.has_value() || !node_counts.has_value() || !churns.has_value()) {
    return std::nullopt;
  }
  spec.lambdas = *lambdas;
  spec.node_counts = *node_counts;
  spec.churns = *churns;
  spec.scenarios =
      args.get_list("scenarios", join_strings(defaults.scenarios));
  for (const std::string& s : spec.scenarios) {
    if (!scenario_by_name(s, seconds(3600.0), 64).has_value()) {
      std::fprintf(stderr, "sweep: unknown scenario preset '%s'\n", s.c_str());
      return std::nullopt;
    }
  }
  spec.variants = args.get_list("variants", join_strings(defaults.variants));
  for (const std::string& v : spec.variants) {
    core::ExperimentConfig probe;
    if (!apply_variant(v, probe)) {
      std::fprintf(stderr, "sweep: unknown variant '%s'\n", v.c_str());
      return std::nullopt;
    }
  }
  spec.servings = args.get_list("servings", join_strings(defaults.servings));
  for (const std::string& s : spec.servings) {
    if (!workload::serving_by_name(s).has_value()) {
      std::fprintf(stderr, "sweep: unknown serving preset '%s' (expected %s)\n",
                   s.c_str(), workload::serving_names_help().c_str());
      return std::nullopt;
    }
  }
  spec.repeats = static_cast<std::size_t>(
      args.get_int("repeats", static_cast<std::int64_t>(defaults.repeats)));
  spec.base_seed = static_cast<std::uint64_t>(args.get_int(
      "base-seed", static_cast<std::int64_t>(defaults.base_seed)));
  spec.hours = args.get_double("hours", defaults.hours);
  if (spec.protocols.empty() || spec.lambdas.empty() ||
      spec.node_counts.empty() || spec.scenarios.empty() ||
      spec.churns.empty() || spec.variants.empty() || spec.servings.empty() ||
      spec.repeats == 0) {
    std::fprintf(stderr, "sweep: every grid axis needs at least one value\n");
    return std::nullopt;
  }
  return spec.normalized();
}

std::vector<std::string> SweepSpec::to_args() const {
  const SweepSpec n = normalized();
  return {
      "--protocols=" + join_strings(protocol_names(n.protocols)),
      "--lambdas=" + join_doubles(n.lambdas),
      "--node-counts=" + join_sizes(n.node_counts),
      "--scenarios=" + join_strings(n.scenarios),
      "--churns=" + join_doubles(n.churns),
      "--variants=" + join_strings(n.variants),
      "--servings=" + join_strings(n.servings),
      fmt("--repeats=%zu", n.repeats),
      fmt("--base-seed=%llu", static_cast<unsigned long long>(n.base_seed)),
      fmt("--hours=%.6g", n.hours),
  };
}

SweepSpec SweepSpec::normalized() const {
  SweepSpec n = *this;
  const auto dedup_sort = [](auto& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  std::sort(n.protocols.begin(), n.protocols.end(),
            [](core::ProtocolKind a, core::ProtocolKind b) {
              return static_cast<int>(a) < static_cast<int>(b);
            });
  n.protocols.erase(std::unique(n.protocols.begin(), n.protocols.end()),
                    n.protocols.end());
  dedup_sort(n.lambdas);
  dedup_sort(n.node_counts);
  dedup_sort(n.scenarios);
  dedup_sort(n.churns);
  dedup_sort(n.variants);
  dedup_sort(n.servings);
  return n;
}

std::string SweepSpec::describe() const {
  const SweepSpec n = normalized();
  std::string out;
  const auto axis = [&out](const char* label, const std::string& values) {
    out += label;
    out += values;
  };
  axis("sweep{p=[", join_strings(protocol_names(n.protocols)));
  axis("] l=[", join_doubles(n.lambdas));
  axis("] n=[", join_sizes(n.node_counts));
  axis("] sc=[", join_strings(n.scenarios));
  axis("] c=[", join_doubles(n.churns));
  axis("] v=[", join_strings(n.variants));
  // The plain-"off" default is elided so pre-serving specs keep their
  // describe() string — and hence their fingerprint and cell keys.
  if (n.servings != std::vector<std::string>{"off"}) {
    axis("] sv=[", join_strings(n.servings));
  }
  out += fmt("] r=%zu seed=%llu h=%.6g}", n.repeats,
             static_cast<unsigned long long>(n.base_seed), n.hours);
  return out;
}

std::uint64_t SweepSpec::fingerprint() const { return fnv1a(describe()); }

std::vector<SweepCell> SweepSpec::enumerate() const {
  const SweepSpec n = normalized();
  std::vector<SweepCell> cells;
  cells.reserve(n.cell_count());
  for (const core::ProtocolKind proto : n.protocols) {
    for (const double lambda : n.lambdas) {
      for (const std::size_t nodes : n.node_counts) {
        for (const std::string& sc : n.scenarios) {
          for (const double churn : n.churns) {
            for (const std::string& variant : n.variants) {
              for (const std::string& sv : n.servings) {
                // Keys keep their pre-serving shape for "off" cells so
                // existing shard artifacts and pinned seeds stay valid.
                std::string group = fmt(
                    "%s/l%.6g/n%zu/%s/c%.6g/%s",
                    core::protocol_name(proto).c_str(), lambda, nodes,
                    sc.c_str(), churn, variant.c_str());
                if (sv != "off") group += "/" + sv;
                for (std::size_t r = 0; r < n.repeats; ++r) {
                  SweepCell cell;
                  cell.group = group;
                  cell.key = fmt("%s/r%zu", group.c_str(), r);

                  core::ExperimentConfig c;
                  c.protocol = proto;
                  c.nodes = nodes;
                  c.demand_ratio = lambda;
                  c.duration = seconds(n.hours * 3600.0);
                  c.sample_step = seconds(3600);
                  c.churn_dynamic_degree = churn;
                  SOC_CHECK_MSG(apply_variant(variant, c), "unknown variant");
                  const auto serving = workload::serving_by_name(sv);
                  SOC_CHECK_MSG(serving.has_value(), "unknown serving preset");
                  c.serving = *serving;
                  // Content-derived seed: identical for this cell no matter
                  // which process (or how many) runs the sweep; one
                  // splitmix64 step decorrelates neighboring cells.  Guard
                  // against 0 — some RNG seedings treat it specially.
                  const std::uint64_t seed =
                      SplitMix64(n.base_seed ^ fnv1a(cell.key)).next();
                  c.seed = seed != 0 ? seed : 0x5eed5eed5eed5eedull;
                  const auto scenario = scenario_by_name(sc, c.duration, nodes);
                  SOC_CHECK_MSG(scenario.has_value(), "unknown scenario preset");
                  c.scenario = *scenario;
                  cell.config = std::move(c);
                  cells.push_back(std::move(cell));
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

bool apply_variant(const std::string& name, core::ExperimentConfig& config) {
  if (name == "base") return true;
  // delta<N> / fanout<N>: a numeric suffix keeps the axis extensible past
  // the paper's {1,2,4,8} / {1..4} grids without new names.
  const auto numeric_suffix =
      [&](const char* prefix) -> std::optional<std::size_t> {
    const std::size_t len = std::strlen(prefix);
    if (name.rfind(prefix, 0) != 0 || name.size() == len) return std::nullopt;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(name.c_str() + len, &end, 10);
    if (end != name.c_str() + name.size() || v == 0) return std::nullopt;
    return static_cast<std::size_t>(v);
  };
  if (const auto delta = numeric_suffix("delta")) {
    config.want_results = *delta;
    return true;
  }
  if (const auto fanout = numeric_suffix("fanout")) {
    config.index_fanout_L = *fanout;
    return true;
  }
  if (name == "sel-random") {
    config.select_policy = index::IndexSelectPolicy::kRandomPowerLevel;
    return true;
  }
  if (name == "sel-nearest") {
    config.select_policy = index::IndexSelectPolicy::kNearestOnly;
    return true;
  }
  if (name == "sel-uniform") {
    config.select_policy = index::IndexSelectPolicy::kUniformEntry;
    return true;
  }
  if (name == "spread-strict") {
    config.spreading_scope = index::SpreadingScope::kSenderTracks;
    return true;
  }
  if (name == "spread-cascade") {
    config.spreading_scope = index::SpreadingScope::kCascade;
    return true;
  }
  if (name == "detached") {
    config.churn_task_policy = core::ChurnTaskPolicy::kDetachedExecution;
    return true;
  }
  if (name == "tasks-lost") {
    config.churn_task_policy = core::ChurnTaskPolicy::kTasksLost;
    return true;
  }
  if (name == "checkpoint") {
    config.churn_task_policy = core::ChurnTaskPolicy::kCheckpointRestart;
    return true;
  }
  return false;
}

const std::vector<SweepPreset>& sweep_presets() {
  using core::ProtocolKind;
  // The six protocols of Figs. 5–7, in the figures' legend order.
  static const std::vector<ProtocolKind> kSixProtocols{
      ProtocolKind::kSidCan,    ProtocolKind::kHidCan,
      ProtocolKind::kSidCanSos, ProtocolKind::kHidCanSos,
      ProtocolKind::kSidCanVd,  ProtocolKind::kNewscast};
  static const std::vector<SweepPreset> kPresets = [] {
    std::vector<SweepPreset> out;
    const auto add = [&out](const char* name, const char* what,
                            bool render_series,
                            const std::function<void(SweepSpec&)>& shape) {
      SweepPreset p;
      p.name = name;
      p.what = what;
      p.render_series = render_series;
      shape(p.spec);  // everything not set keeps the SweepSpec defaults
      out.push_back(std::move(p));
    };
    add("fig4", "T-Ratio under wide (0.84) vs narrow (0.25) query ranges",
        true, [](SweepSpec& s) {
          s.protocols = {ProtocolKind::kNewscast, ProtocolKind::kSidCan,
                         ProtocolKind::kKhdnCan};
          s.lambdas = {0.25, 0.84};
        });
    add("fig5", "six-protocol comparison at demand ratio 1.0", true,
        [](SweepSpec& s) {
          s.protocols = kSixProtocols;
          s.lambdas = {1.0};
        });
    add("fig6", "six-protocol comparison at demand ratio 0.5", true,
        [](SweepSpec& s) {
          s.protocols = kSixProtocols;
          s.lambdas = {0.5};
        });
    add("fig7", "six-protocol comparison at demand ratio 0.25", true,
        [](SweepSpec& s) {
          s.protocols = kSixProtocols;
          s.lambdas = {0.25};
        });
    add("fig8", "HID-CAN under node-churn dynamic degree 0..0.95", true,
        [](SweepSpec& s) {
          s.churns = {0.0, 0.25, 0.5, 0.75, 0.95};
        });
    add("table3", "HID-CAN scalability across populations", false,
        [](SweepSpec& s) {
          s.node_counts = {250, 500, 750, 1000, 1250, 1500};
        });
    add("ablation-fanout", "A1: index diffusion fan-out L in 1..4", false,
        [](SweepSpec& s) {
          s.variants = {"fanout1", "fanout2", "fanout3", "fanout4"};
        });
    add("ablation-selection", "A2: NINode selection policy", false,
        [](SweepSpec& s) {
          s.variants = {"sel-random", "sel-nearest", "sel-uniform"};
        });
    add("ablation-delta", "A3: first-k result count delta in {1,2,4,8}",
        false, [](SweepSpec& s) {
          s.variants = {"delta1", "delta2", "delta4", "delta8"};
        });
    add("ablation-checkpoint",
        "A4: churn task policies at 50% and 95% churn", false,
        [](SweepSpec& s) {
          s.churns = {0.5, 0.95};
          s.variants = {"detached", "tasks-lost", "checkpoint"};
        });
    add("serving",
        "serving workloads: open vs closed loop, hot-key skew, tail latency",
        false, [](SweepSpec& s) {
          s.protocols = {ProtocolKind::kHidCan, ProtocolKind::kNewscast,
                         ProtocolKind::kKhdnCan};
          s.lambdas = {0.25, 1.0};
          s.servings = {"open", "zipf", "closed", "closed+zipf"};
        });
    add("ablation-spreading",
        "A5: SID spreading-scope readings vs HID at two demand ratios",
        false, [](SweepSpec& s) {
          s.protocols = {ProtocolKind::kSidCan, ProtocolKind::kHidCan};
          s.lambdas = {0.25, 0.5};
          s.variants = {"spread-strict", "spread-cascade"};
        });
    return out;
  }();
  return kPresets;
}

const SweepPreset* preset_by_name(const std::string& name) {
  for (const SweepPreset& p : sweep_presets()) {
    if (name == p.name) return &p;
  }
  return nullptr;
}

std::optional<scenario::ScenarioSpec> scenario_by_name(const std::string& name,
                                                       SimTime duration,
                                                       std::size_t nodes) {
  scenario::ScenarioSpec spec;
  if (name == "none") return spec;
  const double d = to_seconds(duration);
  if (name == "flash") {
    spec.bursts.push_back(scenario::JoinBurst{
        seconds(0.25 * d), std::max<std::size_t>(1, nodes / 4),
        seconds(0.10 * d)});
    return spec;
  }
  if (name == "quake") {
    spec.failures.push_back(
        scenario::MassFailure{seconds(0.5 * d), 0.25, /*spatial=*/true});
    return spec;
  }
  if (name == "phased") {
    spec.phases.push_back(scenario::ChurnPhase{0, 0.0});
    spec.phases.push_back(scenario::ChurnPhase{seconds(d / 3.0), 0.5});
    spec.phases.push_back(scenario::ChurnPhase{seconds(2.0 * d / 3.0), 0.1});
    return spec;
  }
  if (name == "partition") {
    // 30% of the population cut off along LAN boundaries at 35% of the
    // run, healing at 65% — the protocols then spend the last third
    // digesting stale rejoined state (the stale-record-debt comparison).
    spec.partitions.push_back(
        scenario::Partition{seconds(0.35 * d), 0.30, seconds(0.30 * d)});
    return spec;
  }
  return std::nullopt;
}

}  // namespace soc::sweep
