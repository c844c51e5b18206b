// sim_fuzz — randomized scenario schedules with interval invariant checks.
//
// Each schedule draws a random experiment configuration (protocol, scale,
// duration, demand ratio, churn policy, link faults, serving workload) plus
// a random ScenarioSpec (phased churn, flash-crowd bursts, correlated mass
// failures, capacity skew, partitions), runs it stepwise, and asserts the
// global invariant set of src/scenario/invariants.hpp at a configurable
// simulated-time interval.
//
// Everything derives from one base seed: schedule k uses
// Rng(seed).fork("sim-fuzz").fork(k), so
//
//   sim_fuzz --seed S --only K
//
// replays schedule K bit-identically no matter how many schedules the
// failing run executed (the per-schedule trajectory fingerprint printed
// with --verbose is the proof).  On a violation the harness prints the
// schedule's config, its scenario spec, the simulated time, every violated
// invariant, and the exact replay command, then exits 1.
//
//   sim_fuzz [--schedules 50] [--seed 1] [--only K] [--check-every-s 300]
//            [--trace-on-failure]
//
// --trace-on-failure: when a schedule violates an invariant, replay it
// bit-identically with the obs tracer installed and dump the failing
// trajectory's Chrome trace (sim_fuzz_trace_<seed>_<k>.json, next to the
// replay command) — the span timeline up to the violation, openable in
// Perfetto.
//            [--nodes-lo 24] [--nodes-hi 48] [--max-seconds 0] [--verbose]
//
// --max-seconds bounds *wall-clock* time: the harness stops launching new
// schedules once the budget is spent (the schedule in flight finishes its
// run).  The budget never feeds schedule derivation — schedule k draws the
// identical config whether or not a budget is set, so a violation found
// under a time budget replays with the usual `--seed S --only K`.
//
// The default ctest entry runs 300 schedules (about a second); the
// `nightly` ctest configuration runs a wall-clock-bounded budget (see
// CMakeLists / ci.sh).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/common/cli.hpp"
#include "src/core/experiment.hpp"
#include "src/obs/trace.hpp"
#include "src/scenario/invariants.hpp"
#include "src/scenario/spec.hpp"
#include "src/workload/serving.hpp"

namespace {

using namespace soc;

struct FuzzOptions {
  std::uint64_t schedules = 50;
  std::uint64_t seed = 1;
  std::int64_t only = -1;  ///< replay one schedule index
  double check_every_s = 300.0;
  std::size_t nodes_lo = 24;
  std::size_t nodes_hi = 48;
  double max_seconds = 0.0;  ///< wall-clock budget; 0 = unbounded
  bool verbose = false;
  bool trace_on_failure = false;  ///< dump the failing schedule's trace
  /// Internal: this run IS the tracing replay — suppress the violation
  /// report (already printed) and do not recurse.
  bool tracing_replay = false;
};

const char* policy_name(core::ChurnTaskPolicy p) {
  switch (p) {
    case core::ChurnTaskPolicy::kDetachedExecution:
      return "detached";
    case core::ChurnTaskPolicy::kTasksLost:
      return "tasks-lost";
    case core::ChurnTaskPolicy::kCheckpointRestart:
      return "checkpoint";
  }
  return "?";
}

/// Draw one schedule's experiment config.  CAN-based protocols dominate
/// the mix — they carry the tessellation/index invariants — but the
/// gossip baseline stays in rotation for the engine-level checks.
core::ExperimentConfig random_config(Rng& rng, const FuzzOptions& opt) {
  static constexpr core::ProtocolKind kMix[] = {
      core::ProtocolKind::kHidCan,    core::ProtocolKind::kSidCan,
      core::ProtocolKind::kHidCanSos, core::ProtocolKind::kSidCanVd,
      core::ProtocolKind::kKhdnCan,   core::ProtocolKind::kHidCan,
      core::ProtocolKind::kSidCan,    core::ProtocolKind::kNewscast,
  };
  core::ExperimentConfig cfg;
  cfg.protocol = kMix[rng.pick_index(std::size(kMix))];
  cfg.nodes = opt.nodes_lo +
              rng.pick_index(opt.nodes_hi - opt.nodes_lo + 1);
  cfg.duration = seconds(rng.uniform(1200.0, 2700.0));
  cfg.sample_step = seconds(600);
  cfg.demand_ratio = rng.pick(std::vector<double>{0.25, 0.5, 1.0});
  cfg.want_results = static_cast<std::size_t>(rng.uniform_int(1, 2));
  cfg.churn_dynamic_degree = rng.chance(0.5) ? rng.uniform(0.05, 0.4) : 0.0;
  const double policy_roll = rng.uniform();
  cfg.churn_task_policy =
      policy_roll < 0.5    ? core::ChurnTaskPolicy::kDetachedExecution
      : policy_roll < 0.75 ? core::ChurnTaskPolicy::kTasksLost
                           : core::ChurnTaskPolicy::kCheckpointRestart;
  cfg.seed = rng.next_u64();
  cfg.scenario = scenario::random_spec(rng, cfg.duration);
  // Link-fault draw appended after every pre-existing draw so schedules
  // that never reach it (the chance fails) share their prefix stream with
  // older harness versions.  ~35% of schedules run under correlated
  // loss/reorder/duplication/straggler faults.
  if (rng.chance(0.35)) {
    net::LinkFaultConfig& lf = cfg.link_faults;
    lf.enabled = true;
    lf.lan.p_enter_bad = rng.uniform(0.005, 0.05);
    lf.lan.p_exit_bad = rng.uniform(0.2, 0.6);
    lf.lan.loss_good = rng.uniform(0.0, 0.01);
    lf.lan.loss_bad = rng.uniform(0.1, 0.5);
    lf.wan.p_enter_bad = rng.uniform(0.01, 0.08);
    lf.wan.p_exit_bad = rng.uniform(0.1, 0.5);
    lf.wan.loss_good = rng.uniform(0.0, 0.02);
    lf.wan.loss_bad = rng.uniform(0.2, 0.7);
    lf.reorder_probability = rng.uniform(0.0, 0.1);
    lf.reorder_extra_delay_s = rng.uniform(0.05, 0.5);
    lf.duplicate_probability = rng.uniform(0.0, 0.05);
    lf.straggler_fraction = rng.uniform(0.0, 0.15);
    lf.straggler_multiplier = rng.uniform(1.5, 4.0);
  }
  // Serving draw on a named fork, so every draw above is unchanged and a
  // schedule that draws no serving config stays byte-identical.  About a
  // third of schedules run closed-loop clients, Zipf keys, a diurnal curve
  // or a combination of them.
  Rng serving_rng = rng.fork("serving");
  if (serving_rng.chance(1.0 / 3.0)) {
    static constexpr const char* kServing[] = {
        "closed",         "zipf",         "diurnal",
        "closed+zipf",    "closed+diurnal", "zipf+diurnal",
        "closed+zipf+diurnal"};
    cfg.serving = *workload::serving_by_name(
        kServing[serving_rng.pick_index(std::size(kServing))]);
  }
  return cfg;
}

/// The serving preset a config runs, in serving_by_name's tokens.
std::string serving_name(const workload::ServingConfig& s) {
  std::string out;
  for (const auto& [on, token] : {std::pair{s.closed_loop(), "closed"},
                                  std::pair{s.skewed(), "zipf"},
                                  std::pair{s.diurnal(), "diurnal"}}) {
    if (!on) continue;
    if (!out.empty()) out += '+';
    out += token;
  }
  return out.empty() ? "off" : out;
}

std::string config_line(const core::ExperimentConfig& cfg) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "protocol=%s nodes=%zu duration=%.0fs lambda=%.2f "
                "base-churn=%.2f policy=%s faults=%s serving=%s seed=%llu",
                core::protocol_name(cfg.protocol).c_str(), cfg.nodes,
                to_seconds(cfg.duration), cfg.demand_ratio,
                cfg.churn_dynamic_degree, policy_name(cfg.churn_task_policy),
                cfg.link_faults.enabled ? "on" : "off",
                serving_name(cfg.serving).c_str(),
                static_cast<unsigned long long>(cfg.seed));
  return buf;
}

struct ScheduleOutcome {
  bool ok = true;
  std::uint64_t assertions = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t fingerprint = 0;
};

ScheduleOutcome run_schedule(std::uint64_t k, const FuzzOptions& opt) {
  Rng rng = Rng(opt.seed).fork("sim-fuzz").fork(k);
  const core::ExperimentConfig cfg = random_config(rng, opt);
  Rng check_rng = rng.fork("invariant-checks");

  core::Experiment ex(cfg);
  ex.setup();

  ScheduleOutcome out;
  const SimTime step = seconds(opt.check_every_s);
  for (SimTime t = step;; t += step) {
    const SimTime until = std::min(t, cfg.duration);
    ex.simulator().run_until(until);
    const scenario::InvariantReport report =
        scenario::check_invariants(ex, check_rng);
    out.assertions += report.assertions;
    ++out.checkpoints;
    if (!report.ok()) {
      if (opt.tracing_replay) {
        out.ok = false;
        return out;
      }
      std::printf("\nsim_fuzz: INVARIANT VIOLATION in schedule %llu\n",
                  static_cast<unsigned long long>(k));
      std::printf("  %s\n", config_line(cfg).c_str());
      std::printf("  %s\n", cfg.scenario.describe().c_str());
      std::printf("  at sim-time %.0fs (%llu alive)\n", to_seconds(until),
                  static_cast<unsigned long long>(ex.alive_nodes()));
      std::printf("%s", report.to_string().c_str());
      // Every option that feeds the schedule derivation or the check
      // cadence must appear here, or the replay draws a different
      // schedule than the one that failed.
      std::printf(
          "replay: sim_fuzz --seed %llu --only %llu --nodes-lo %zu "
          "--nodes-hi %zu --check-every-s %g\n",
          static_cast<unsigned long long>(opt.seed),
          static_cast<unsigned long long>(k), opt.nodes_lo, opt.nodes_hi,
          opt.check_every_s);
      if (opt.trace_on_failure) {
        // Bit-identical replay with the tracer installed: same seed chain,
        // same schedule, same violation — tracing is a pure observer.
        obs::Tracer tracer;
        obs::install_tracer(&tracer);
        FuzzOptions replay = opt;
        replay.tracing_replay = true;
        (void)run_schedule(k, replay);
        obs::install_tracer(nullptr);
        char path[96];
        std::snprintf(path, sizeof(path), "sim_fuzz_trace_%llu_%llu.json",
                      static_cast<unsigned long long>(opt.seed),
                      static_cast<unsigned long long>(k));
        if (tracer.export_json(path)) {
          std::printf("trace:  %s (%zu events)\n", path,
                      tracer.event_count());
        } else {
          std::printf("trace:  cannot write %s\n", path);
        }
      }
      out.ok = false;
      return out;
    }
    if (until == cfg.duration) break;
  }
  out.fingerprint = ex.results().fingerprint();
  if (opt.verbose) {
    std::printf("schedule %3llu  %-70s fp=%016llx\n",
                static_cast<unsigned long long>(k), config_line(cfg).c_str(),
                static_cast<unsigned long long>(out.fingerprint));
    std::printf("             %s\n", cfg.scenario.describe().c_str());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  FuzzOptions opt;
  opt.schedules =
      static_cast<std::uint64_t>(args.get_int("schedules", 50));
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.only = args.get_int("only", -1);
  opt.check_every_s = args.get_double("check-every-s", 300.0);
  opt.nodes_lo = static_cast<std::size_t>(args.get_int("nodes-lo", 24));
  opt.nodes_hi = static_cast<std::size_t>(args.get_int("nodes-hi", 48));
  opt.max_seconds = args.get_double("max-seconds", 0.0);
  opt.verbose = args.get_bool("verbose", false);
  opt.trace_on_failure = args.get_bool("trace-on-failure", false);
  args.exit_on_errors();
  if (opt.nodes_hi < opt.nodes_lo || opt.nodes_lo == 0 ||
      opt.check_every_s <= 0.0 || opt.max_seconds < 0.0) {
    std::fprintf(stderr, "sim_fuzz: bad option ranges\n");
    return 2;
  }

  std::uint64_t assertions = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t ran = 0;
  if (opt.only >= 0) {
    // Replay one schedule directly — valid for any index, including ones
    // beyond the default --schedules bound (a nightly-lane violation at
    // schedule 700 must replay without remembering the lane's budget).
    const ScheduleOutcome out =
        run_schedule(static_cast<std::uint64_t>(opt.only), opt);
    if (!out.ok) return 1;
    assertions = out.assertions;
    checkpoints = out.checkpoints;
    ran = 1;
  } else {
    const auto start = std::chrono::steady_clock::now();
    const auto budget_spent = [&] {
      if (opt.max_seconds <= 0.0) return false;
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      return elapsed.count() >= opt.max_seconds;
    };
    for (std::uint64_t k = 0; k < opt.schedules; ++k) {
      if (budget_spent()) {
        std::printf(
            "sim_fuzz: wall-clock budget (%.0fs) spent after %llu of %llu "
            "schedules\n",
            opt.max_seconds, static_cast<unsigned long long>(ran),
            static_cast<unsigned long long>(opt.schedules));
        break;
      }
      const ScheduleOutcome out = run_schedule(k, opt);
      if (!out.ok) return 1;
      assertions += out.assertions;
      checkpoints += out.checkpoints;
      ++ran;
    }
  }
  std::printf(
      "sim_fuzz: %llu schedule(s), %llu invariant checkpoints, %llu "
      "assertions, 0 violations (seed %llu)\n",
      static_cast<unsigned long long>(ran),
      static_cast<unsigned long long>(checkpoints),
      static_cast<unsigned long long>(assertions),
      static_cast<unsigned long long>(opt.seed));
  return 0;
}
