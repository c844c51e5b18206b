// perfbench — the repository benchmark: one workload per process, timed
// from outside the simulator.
//
//   perfbench --workload <name> --seed S --seconds T --trace 0|1
//             [--trace-out trace.json] [--work-dir DIR]
//
// Untraced mode (--trace 0) repeats the workload with the same seed until
// T host seconds have passed (at least kMinRepeats times) and reports the
// end-to-end metrics as medians over the repeats after the first, which
// warms the heap and caches.  The end-to-end times are CPU seconds scaled
// to the reference host's speed by a fixed kernel run in slices between
// parts of each repeat (see ReferenceKernel).  Traced mode (--trace 1)
// makes a few untraced repeats, then one traced repeat that drives
// Simulator::step() itself with an obs::TimeProfiler on the MessageBus, runs
// the two layer probes, and reports the per-layer metrics; the host-time
// span tree goes to --trace-out.
//
// Every repeat is checked: its results fingerprint must equal the first
// repeat's, and the first and the traced repeat must also pass the
// invariant checker (see check_experiment).
// The last stdout line is one JSON object:
//   {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}
//
// Layers are observed only through public calls (Experiment::setup/run/
// results, Simulator::step, MessageBus::set_time_profiler,
// Experiment::mem_breakdown via results().metrics, and the sweep:: API), so
// the benchmark measures the same code every other caller runs.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/span_trace.hpp"
#include "src/can/space.hpp"
#include "src/common/cli.hpp"
#include "src/common/stats.hpp"
#include "src/core/experiment.hpp"
#include "src/index/record.hpp"
#include "src/obs/profiler.hpp"
#include "src/scenario/invariants.hpp"
#include "src/sweep/io.hpp"
#include "src/sweep/merge.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/shard.hpp"
#include "src/sweep/spec.hpp"
#include "src/workload/serving.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace soc;
using perfbench::SpanTrace;

namespace {

using Clock = std::chrono::steady_clock;
using net::MsgType;

constexpr std::size_t kTypes = static_cast<std::size_t>(MsgType::kCount);
/// Repeat 1 is the warm-up, so three timed repeats at least.
constexpr std::size_t kMinRepeats = 4;
constexpr std::size_t kTracedMinRepeats = 2;
/// Spans of simulated time per run phase, with a reference slice between
/// each two (see experiment_repeat).
constexpr int kRunSlices = 12;
/// The full invariant checker includes an O(n²) CAN verifier; above this
/// population only the O(n) accounting and conservation checks run.
constexpr std::size_t kFullCheckMaxNodes = 2000;
constexpr SimTime kHour = seconds(3600);

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds of this (single-threaded) process.  Unlike wall time it
/// leaves out the time the guest scheduler or the hypervisor (steal) hands
/// the core to someone else.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Host speed reference.  Other tenants of a shared host slow its cores by
// 10–40% for minutes at a time (shared core resources, caches, memory
// bandwidth), which CPU time does not leave out.  This kernel, frozen here
// and independent of the simulator, is a small discrete-event simulation of
// its own: a binary-heap event queue of 64Ki events over 16 MiB of 64-byte
// records, each event one of four unpredictable record updates, some of
// them touching a second record.  It runs in ~7 ms slices between the parts
// of every repeat, so it sees the same slow-downs as the workload around
// it; each repeat's times are then scaled by kNominalSliceS / (its median
// slice).  The result reads as CPU seconds on the reference host (a quiet
// 2 GHz Sapphire Rapids Xeon vCPU), and a slow-down that hits both cancels.
// README.md ("Reference seconds") gives the measurements behind this design.
// ---------------------------------------------------------------------------

class ReferenceKernel {
 public:
  /// CPU seconds of one slice on the reference host when quiet (the 10th
  /// percentile of 920 repeat medians).
  static constexpr double kNominalSliceS = 0.0067;

  ReferenceKernel() : records_(kRecords) {
    heap_.reserve(kQueue);
    for (std::size_t i = 0; i < kQueue; ++i) {
      heap_.push_back({next() % 1'000'000, next() % kRecords});
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  /// Run one slice and return its CPU seconds.  The records are read once
  /// first, untimed, so the slice does not pay for whatever the workload
  /// evicted.  The simulation carries on from where the last slice stopped.
  double slice() {
    for (const Record& r : records_) sink_ += r.w[0];
    const double c0 = cpu_now();
    for (std::uint64_t op = 0; op < kEventsPerSlice; ++op) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const auto [at, id] = heap_.back();
      Record& r = records_[id];
      const std::uint64_t v = next();
      switch (v & 3) {
        case 0:
          r.w[0] += at;
          r.w[(v >> 8) & 7] ^= v;
          break;
        case 1:
          for (std::size_t d = 0; d < 4; ++d) r.w[d] = r.w[d] * 3 + (v >> d);
          break;
        case 2:
          if (r.w[1] > r.w[2]) {
            ++r.w[3];
          } else {
            --r.w[4];
          }
          break;
        default:
          records_[(v >> 20) % kRecords].w[5] += r.w[5];
          break;
      }
      heap_.back() = {at + 1 + (v >> 40) % 5000, (v >> 24) % kRecords};
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    return cpu_now() - c0;
  }

  /// Keeps the loop's results observable so it cannot be optimized away.
  [[nodiscard]] std::uint64_t sink() const {
    std::uint64_t s = sink_;
    for (const Record& r : records_) s += r.w[5];
    return s;
  }

 private:
  static constexpr std::size_t kRecords = std::size_t{1} << 18;  // 16 MiB
  static constexpr std::size_t kQueue = std::size_t{1} << 16;
  static constexpr std::uint64_t kEventsPerSlice = std::uint64_t{1} << 15;
  struct Record {
    std::array<std::uint64_t, 8> w{};
  };

  std::uint64_t next() {  // xorshift64
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  std::vector<Record> records_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> heap_;
  std::uint64_t x_ = 99991;
  std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads (why each exists: BENCHMARK.json and README.md).  Each is sized
// so one repeat takes 1–2.5 host seconds on a 2 GHz Xeon core, which puts
// 8–16 repeats into a 20 s run: a median of many short repeats rides out
// the bursts of a shared machine.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  /// Single-experiment workloads fill `experiment`; the figure workload
  /// fills `sweep` instead.
  std::function<std::optional<core::ExperimentConfig>(std::uint64_t)>
      experiment;
  std::function<std::optional<sweep::SweepSpec>(std::uint64_t)> sweep;
};

core::ExperimentConfig hid_config(std::size_t nodes, double hours,
                                  std::uint64_t seed) {
  core::ExperimentConfig c;
  c.protocol = core::ProtocolKind::kHidCan;
  c.nodes = nodes;
  c.duration = seconds(hours * 3600.0);
  c.sample_step = kHour;
  c.seed = seed;
  return c;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"paper-hid",
       [](std::uint64_t seed) -> std::optional<core::ExperimentConfig> {
         core::ExperimentConfig c = hid_config(2000, 2.0, seed);
         c.demand_ratio = 0.5;
         return c;
       },
       nullptr},
      {"serving-hot",
       [](std::uint64_t seed) -> std::optional<core::ExperimentConfig> {
         core::ExperimentConfig c = hid_config(1000, 1.0, seed);
         c.demand_ratio = 0.25;
         const auto serving = workload::serving_by_name("closed+zipf");
         if (!serving.has_value()) return std::nullopt;
         c.serving = *serving;
         c.serving.think_time_s = 600.0;
         return c;
       },
       nullptr},
      {"churn-faults",
       [](std::uint64_t seed) -> std::optional<core::ExperimentConfig> {
         core::ExperimentConfig c = hid_config(2000, 1.5, seed);
         c.churn_dynamic_degree = 0.5;
         c.churn_task_policy = core::ChurnTaskPolicy::kCheckpointRestart;
         const auto scenario =
             sweep::scenario_by_name("partition", c.duration, c.nodes);
         if (!scenario.has_value()) return std::nullopt;
         c.scenario = *scenario;
         c.link_faults.enabled = true;
         c.link_faults.wan = {0.01, 0.2, 0.001, 0.3};
         c.link_faults.lan = {0.005, 0.3, 0.0, 0.1};
         c.link_faults.reorder_probability = 0.05;
         c.link_faults.reorder_extra_delay_s = 0.5;
         c.link_faults.duplicate_probability = 0.01;
         c.link_faults.straggler_fraction = 0.05;
         c.link_faults.straggler_multiplier = 4.0;
         return c;
       },
       nullptr},
      {"scale-20k",
       [](std::uint64_t seed) -> std::optional<core::ExperimentConfig> {
         core::ExperimentConfig c = hid_config(20000, 0.01, seed);
         c.churn_dynamic_degree = 0.05;
         return c;
       },
       nullptr},
      {"figure-fig4",
       nullptr,
       [](std::uint64_t seed) -> std::optional<sweep::SweepSpec> {
         const sweep::SweepPreset* preset = sweep::preset_by_name("fig4");
         if (preset == nullptr) return std::nullopt;
         // The preset as shipped: 384 nodes, 6 simulated hours, 1 repeat.
         sweep::SweepSpec s = preset->spec;
         s.base_seed = seed;
         return s.normalized();
       }},
  };
  return all;
}

const Workload* workload_by_name(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Results fingerprint: FNV-1a over every deterministic field a report
// carries — scalar counters, raw double bits, the hourly series, per-MsgType
// traffic, both latency histograms bucket by bucket, and the deterministic
// registry samples.  Two runs of one config must agree on it exactly.
// ---------------------------------------------------------------------------

class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }
  void str(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
    u64(s.size());
  }
  void hist(const metrics::LatencyHistogram& h) {
    u64(h.total());
    u64(h.sum_us());
    for (std::size_t b = 0; b < metrics::LatencyHistogram::kBucketCount; ++b) {
      if (h.count(b) != 0) {
        u64(b);
        u64(h.count(b));
      }
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t results_fingerprint(const core::ExperimentResults& r) {
  Fnv f;
  f.str(r.protocol);
  for (const std::uint64_t v :
       {r.generated, r.finished, r.failed, r.total_messages,
        r.messages_delivered, r.messages_lost, r.messages_partitioned,
        r.events_executed, r.empty_query_results, r.dispatch_rejects,
        r.tasks_killed_by_churn, r.checkpoint_restarts,
        r.checkpoint_snapshots, r.stale_records_dead_provider,
        r.stale_records_misplaced}) {
    f.u64(v);
  }
  for (const double d :
       {r.t_ratio, r.f_ratio, r.fairness, r.msg_cost_per_node,
        r.avg_query_delay_s, r.avg_dispatch_attempts,
        r.wasted_work_rate_seconds, r.slot_span_ratio}) {
    f.f64(d);
  }
  for (const auto& s : r.series) {
    f.u64(s.generated);
    f.u64(s.finished);
    f.u64(s.failed);
    f.f64(s.t_ratio);
    f.f64(s.f_ratio);
    f.f64(s.fairness);
  }
  for (const auto& t : r.traffic_by_type) {
    f.str(t.type);
    f.u64(t.sent);
    f.u64(t.delivered);
    f.u64(t.lost);
    f.u64(t.partitioned);
  }
  f.hist(r.latency_first_result);
  f.hist(r.latency_finish);
  for (const auto& m : r.metrics) {
    if (!m.deterministic) continue;
    f.str(m.name);
    f.f64(m.value);
  }
  return f.value();
}

std::uint64_t bytes_fingerprint(const std::string& bytes) {
  Fnv f;
  f.str(bytes);
  return f.value();
}

// ---------------------------------------------------------------------------
// Correctness checks, run after the first and the traced repeat (excluded
// from wall_s).
// ---------------------------------------------------------------------------

/// Empty when the experiment's end state is consistent, else the violations.
std::string check_experiment(core::Experiment& ex, std::uint64_t seed) {
  if (ex.config().nodes <= kFullCheckMaxNodes) {
    Rng oracle_rng(seed ^ 0x9e3779b97f4a7c15ull);
    const scenario::InvariantReport report =
        scenario::check_invariants(ex, oracle_rng);
    return report.ok() ? "" : report.to_string();
  }
  // At scale: the O(n) subset of the checker — host accounting, event-queue
  // integrity and the per-MsgType conservation law.
  std::string out = ex.check_accounting();
  if (!ex.simulator().verify_queue_integrity()) {
    out += " event queue heap/slab integrity broken;";
  }
  const net::TrafficStats& stats = ex.bus().stats();
  for (std::size_t t = 0; t < kTypes; ++t) {
    const auto type = static_cast<MsgType>(t);
    if (stats.sent(type) != stats.delivered(type) + stats.lost(type) +
                                stats.partitioned(type) +
                                stats.in_flight(type) +
                                stats.synthetic(type)) {
      out += " " + std::string(net::msg_type_name(type)) +
             " conservation broken;";
    }
  }
  if (ex.bus().in_flight() != stats.total_in_flight()) {
    out += " bus slab occupancy != in-flight totals;";
  }
  return out;
}

// ---------------------------------------------------------------------------
// One repeat of a workload.
// ---------------------------------------------------------------------------

/// CPU times of one repeat, excluding the reference slices and the checks.
struct Repeat {
  double wall_s = 0.0;  ///< host wall time, slices and checks included
  double cpu_s = 0.0;   ///< construct + setup + run + results
  double setup_s = 0.0;  ///< construct + setup, summed over experiments
  double run_s = 0.0;    ///< run phase, summed over experiments
  std::vector<double> slices;  ///< reference slice CPU seconds
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  std::string failure;  ///< empty when every check passed

  /// Run a reference slice, unless this is the warm-up repeat (null).
  void slice(ReferenceKernel* ref) {
    if (ref != nullptr) slices.push_back(ref->slice());
  }

  /// Factor that turns this repeat's CPU seconds into reference seconds.
  [[nodiscard]] double scale() const {
    return ReferenceKernel::kNominalSliceS / median(slices);
  }
};

/// `check` runs the invariant checker on the end state.  Later repeats skip
/// it: their fingerprint must equal the checked first repeat's, and the
/// simulation is deterministic, so they end in the same state.
///
/// The run phase goes in kRunSlices equal spans of simulated time, with a
/// reference slice before set-up, between spans and after the last;
/// events never straddle a span boundary, so the results are those of one
/// Experiment::run().
Repeat experiment_repeat(const core::ExperimentConfig& config,
                         std::uint64_t seed, bool check,
                         ReferenceKernel* ref) {
  Repeat rep;
  const auto t0 = Clock::now();
  rep.slice(ref);
  double c = cpu_now();
  auto ex = std::make_unique<core::Experiment>(config);
  ex->setup();
  rep.setup_s = cpu_now() - c;
  sim::Simulator& sim = ex->simulator();
  for (int k = 1; k <= kRunSlices; ++k) {
    rep.slice(ref);
    c = cpu_now();
    sim.run_until(config.duration * k / kRunSlices);
    rep.run_s += cpu_now() - c;
  }
  rep.slice(ref);
  c = cpu_now();
  ex->run();  // every event is done; this closes the run phase
  const core::ExperimentResults r = ex->results();
  rep.cpu_s = rep.setup_s + rep.run_s + (cpu_now() - c);
  rep.events = r.events_executed;
  rep.fingerprint = results_fingerprint(r);
  if (check) rep.failure = check_experiment(*ex, seed);
  rep.wall_s = since(t0);
  return rep;
}

/// Host seconds in the sweep:: I/O calls of one pipeline pass.
struct SweepTimes {
  double write_s = 0.0;  ///< write_shard_result + write_merged_report
  double merge_s = 0.0;
  std::uint64_t bytes = 0;  ///< shard files plus the merged report
};

struct SweepPass {
  std::vector<sweep::CellResult> cells;
  std::string merged;  ///< SWEEP_merged.json bytes
  SweepTimes times;
  std::string failure;
};

/// partition → run_shard → write_shard_result → merge_shards →
/// write_merged_report, in-process, into a fresh `dir`.  `before_shard`,
/// if set, runs before each run_shard call.
SweepPass sweep_pipeline(const sweep::SweepSpec& spec, const std::string& dir,
                         SpanTrace* trace,
                         const std::function<void()>& before_shard = {}) {
  constexpr std::size_t kShards = 4;
  SweepPass pass;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    pass.failure = "cannot create " + dir;
    return pass;
  }
  const auto span = [trace](const std::string& name) {
    return trace != nullptr ? trace->begin(name) : 0;
  };
  const auto end = [trace](std::size_t h) {
    if (trace != nullptr) trace->end(h);
  };

  auto h = span("sweep.partition");
  const std::vector<sweep::Shard> shards = sweep::partition(spec, kShards);
  end(h);
  for (const sweep::Shard& shard : shards) {
    if (before_shard) before_shard();
    h = span("sweep.run_shard " + std::to_string(shard.id));
    const sweep::ShardResult result =
        sweep::run_shard(shard, spec.fingerprint(), kShards);
    end(h);
    auto t = Clock::now();
    h = span("sweep.write_shard_result " + std::to_string(shard.id));
    const bool ok = sweep::write_shard_result(dir, result);
    end(h);
    pass.times.write_s += since(t);
    if (!ok) {
      pass.failure = "write_shard_result failed";
      return pass;
    }
    pass.times.bytes += std::filesystem::file_size(
        sweep::shard_path(dir, shard.id), ec);
    pass.cells.insert(pass.cells.end(), result.cells.begin(),
                      result.cells.end());
  }
  auto t = Clock::now();
  h = span("sweep.merge_shards");
  std::string err;
  const auto report = sweep::merge_shards(dir, spec, kShards, &err);
  end(h);
  pass.times.merge_s = since(t);
  if (!report.has_value()) {
    pass.failure = "merge_shards: " + err;
    return pass;
  }
  const std::string merged_path = dir + "/SWEEP_merged.json";
  t = Clock::now();
  h = span("sweep.write_merged_report");
  const bool ok = sweep::write_merged_report(merged_path, spec, *report);
  end(h);
  pass.times.write_s += since(t);
  const auto bytes = sweep::read_file(merged_path);
  if (!ok || !bytes.has_value()) {
    pass.failure = "write_merged_report failed";
    return pass;
  }
  pass.merged = *bytes;
  pass.times.bytes += bytes->size();
  return pass;
}

/// run_shard builds its experiments internally, so set-up is timed by a
/// separate construct+setup pass over the same cells, and the run phase is
/// the whole pipeline (cell set-up, runs, shard and report I/O).  A
/// reference slice runs before the set-up pass, before each shard and
/// after the pipeline.
Repeat sweep_repeat(const sweep::SweepSpec& spec, const std::string& dir,
                    ReferenceKernel* ref) {
  Repeat rep;
  const auto t0 = Clock::now();
  rep.slice(ref);
  for (const sweep::SweepCell& cell : spec.enumerate()) {
    const double c = cpu_now();
    core::Experiment ex(cell.config);
    ex.setup();
    rep.setup_s += cpu_now() - c;
  }

  double slices_cpu_s = 0.0;
  const auto before_shard = [&] {
    const double c = cpu_now();
    rep.slice(ref);
    slices_cpu_s += cpu_now() - c;
  };
  const double c = cpu_now();
  const SweepPass pass = sweep_pipeline(spec, dir, nullptr, before_shard);
  rep.run_s = cpu_now() - c - slices_cpu_s;
  rep.cpu_s = rep.run_s;
  rep.slice(ref);
  rep.failure = pass.failure;
  for (const sweep::CellResult& cell : pass.cells) rep.events += cell.events;
  rep.fingerprint = bytes_fingerprint(pass.merged);
  rep.wall_s = since(t0);
  return rep;
}

// ---------------------------------------------------------------------------
// Traced repeat: the layers timed from outside.
// ---------------------------------------------------------------------------

/// A layer is the set of MsgTypes whose handlers belong to one module.
struct Layer {
  const char* name;
  std::vector<MsgType> types;
};

const Layer kIndex{
    "index",
    {MsgType::kStateUpdate, MsgType::kIndexDiffuse, MsgType::kIndexProbe}};
const Layer kQuery{"query",
                   {MsgType::kDutyQuery, MsgType::kIndexAgent,
                    MsgType::kIndexJump, MsgType::kFoundNotice}};
const Layer kPsm{"psm", {MsgType::kDispatch}};
const Layer kGossip{"gossip", {MsgType::kGossip}};
const Layer kKhdn{"khdn", {MsgType::kKhdnSpread}};
const std::array<const Layer*, 5> kLayers{&kIndex, &kQuery, &kPsm, &kGossip,
                                          &kKhdn};

/// Handler ns and call count per MsgType.
struct HandlerTotals {
  std::array<std::uint64_t, kTypes> ns{};
  std::array<std::uint64_t, kTypes> calls{};

  static HandlerTotals of(const obs::TimeProfiler& p) {
    HandlerTotals t;
    for (std::size_t k = 0; k < kTypes; ++k) {
      t.ns[k] = p.bucket(k).sum_us();  // the profiler records ns
      t.calls[k] = p.bucket(k).total();
    }
    return t;
  }
  void add(const HandlerTotals& o) {
    for (std::size_t k = 0; k < kTypes; ++k) {
      ns[k] += o.ns[k];
      calls[k] += o.calls[k];
    }
  }
  [[nodiscard]] std::uint64_t layer_ns(const Layer& l) const {
    std::uint64_t s = 0;
    for (const MsgType t : l.types) s += ns[static_cast<std::size_t>(t)];
    return s;
  }
  [[nodiscard]] std::uint64_t all_ns() const {
    std::uint64_t s = 0;
    for (const std::uint64_t v : ns) s += v;
    return s;
  }
};

/// Host-time profile of the traced repeat, summed over its experiments.
struct Profile {
  HandlerTotals handlers;
  double step_s = 0.0;
  double run_s = 0.0;
  double setup_s = 0.0;
  double results_s = 0.0;
  double check_s = 0.0;
  std::size_t max_pending = 0;
};

struct TracedExperiment {
  core::ExperimentResults results;
  std::string failure;
};

/// One experiment with every step() call timed and the handler profiler
/// attached; one span per simulated hour carries that hour's per-layer
/// self time.
TracedExperiment traced_experiment(const core::ExperimentConfig& config,
                                   std::uint64_t seed, SpanTrace& trace,
                                   Profile& prof) {
  TracedExperiment out;
  auto span = trace.begin("setup");
  auto t = Clock::now();
  auto ex = std::make_unique<core::Experiment>(config);
  ex->setup();
  prof.setup_s += since(t);
  trace.end(span);

  obs::TimeProfiler profiler(kTypes);
  ex->bus().set_time_profiler(&profiler);
  sim::Simulator& sim = ex->simulator();
  const auto run_span = trace.begin("run");
  const auto run_t0 = Clock::now();
  HandlerTotals before;
  int hour = 0;
  for (SimTime hour_end = 0; hour_end < config.duration;) {
    hour_end = std::min(hour_end + kHour, config.duration);
    const auto hour_span = trace.begin("hour " + std::to_string(hour++));
    std::uint64_t step_ns = 0;
    std::uint64_t steps = 0;
    std::size_t hour_max_pending = 0;
    while (true) {
      const auto a = Clock::now();
      if (!sim.step(hour_end)) break;
      step_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               a)
              .count());
      ++steps;
      hour_max_pending = std::max(hour_max_pending, sim.pending_events());
    }
    const HandlerTotals now = HandlerTotals::of(profiler);
    SpanTrace::Args args{
        {"events", static_cast<double>(steps)},
        {"step_ms", static_cast<double>(step_ns) / 1e6},
        {"max_pending", static_cast<double>(hour_max_pending)}};
    for (const Layer* l : kLayers) {
      args.emplace_back(
          std::string(l->name) + "_ms",
          static_cast<double>(now.layer_ns(*l) - before.layer_ns(*l)) / 1e6);
    }
    // Handlers outside every named layer (maintenance) count as "other"
    // along with the queue, timers and bus bookkeeping.
    const std::uint64_t all_handlers = now.all_ns() - before.all_ns();
    args.emplace_back("other_ms",
                      (static_cast<double>(step_ns) -
                       static_cast<double>(all_handlers)) / 1e6);
    trace.end(hour_span, std::move(args));
    before = now;
    prof.step_s += static_cast<double>(step_ns) / 1e9;
    prof.max_pending = std::max(prof.max_pending, hour_max_pending);
  }
  // Every event up to the horizon has run; run() only advances the clock
  // to it, exactly as an untraced run ends.
  ex->run();
  prof.run_s += since(run_t0);
  ex->bus().set_time_profiler(nullptr);
  trace.end(run_span);
  prof.handlers.add(HandlerTotals::of(profiler));

  span = trace.begin("results");
  t = Clock::now();
  out.results = ex->results();
  prof.results_s += since(t);
  trace.end(span);

  span = trace.begin("check");
  t = Clock::now();
  out.failure = check_experiment(*ex, seed);
  prof.check_s += since(t);
  trace.end(span);
  return out;
}

// ---------------------------------------------------------------------------
// Layer probes: the two per-call costs handler time cannot isolate.
// ---------------------------------------------------------------------------

/// Median over batches of ns per operation; `batch` returns its op count.
template <class F>
double median_ns_per_op(F&& batch) {
  constexpr int kBatches = 7;
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    const std::uint64_t ops = batch();
    per_op.push_back(since(t0) * 1e9 / static_cast<double>(ops));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

/// CanSpace::next_hop over 512 fixed greedy routes in a 4096-member space;
/// nullopt if a route fails to converge.
std::optional<double> probe_next_hop_ns(std::uint64_t seed) {
  constexpr std::size_t kMembers = 4096;
  constexpr std::size_t kRoutes = 512;
  constexpr int kPasses = 8;
  Rng rng(seed);
  can::CanSpace space(psm::kDims, rng.fork("probe-can-space"));
  for (std::uint32_t i = 0; i < kMembers; ++i) space.join(NodeId(i));
  Rng route_rng = rng.fork("probe-can-routes");
  std::vector<std::pair<NodeId, can::Point>> routes;
  for (std::size_t i = 0; i < kRoutes; ++i) {
    can::Point target(psm::kDims);
    for (std::size_t d = 0; d < psm::kDims; ++d) {
      target[d] = route_rng.uniform();
    }
    routes.emplace_back(space.random_member(route_rng), target);
  }
  bool converged = true;
  const double ns = median_ns_per_op([&] {
    std::uint64_t hops = 0;
    for (int p = 0; p < kPasses; ++p) {
      for (const auto& [from, target] : routes) {
        NodeId cur = from;
        for (std::size_t guard = 0;; ++guard) {
          const NodeId next = space.next_hop(cur, target);
          ++hops;
          if (next == cur) break;
          if (guard > kMembers) {
            converged = false;
            break;
          }
          cur = next;
        }
      }
    }
    return hops;
  });
  if (!converged) return std::nullopt;
  return ns;
}

/// RecordStore::qualified_into over a 2048-record store.
double probe_qualified_ns(std::uint64_t seed) {
  constexpr std::uint32_t kRecords = 2048;
  constexpr std::size_t kDemands = 256;
  constexpr int kPasses = 2;
  Rng rng = Rng(seed).fork("probe-record-store");
  index::RecordStore store;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    index::Record r;
    r.provider = NodeId(i);
    r.availability = ResourceVector(psm::kDims);
    r.location = can::Point(psm::kDims);
    for (std::size_t d = 0; d < psm::kDims; ++d) {
      r.availability[d] = rng.uniform();
      r.location[d] = r.availability[d];
    }
    r.expires_at = kHour;
    store.put(r);
  }
  std::vector<ResourceVector> demands;
  for (std::size_t i = 0; i < kDemands; ++i) {
    ResourceVector d(psm::kDims);
    for (std::size_t k = 0; k < psm::kDims; ++k) d[k] = rng.uniform(0.0, 0.6);
    demands.push_back(d);
  }
  std::vector<index::Record> out;
  std::uint64_t sink = 0;
  const double ns = median_ns_per_op([&] {
    for (int p = 0; p < kPasses; ++p) {
      for (const ResourceVector& d : demands) {
        store.qualified_into(d, /*now=*/0, out);
        sink += out.size();
      }
    }
    return static_cast<std::uint64_t>(kPasses) * kDemands;
  });
  // Keep the scans observable so they cannot be optimized away.
  if (sink == 0) std::fprintf(stderr, "# probe: no record ever qualified\n");
  return ns;
}

// ---------------------------------------------------------------------------
// Aggregation of deterministic results over a repeat's experiments.
// ---------------------------------------------------------------------------

struct Fold {
  std::uint64_t experiments = 0;
  std::uint64_t nodes = 0;
  std::uint64_t events = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t partitioned = 0;
  std::uint64_t empty_results = 0;
  std::uint64_t rejects = 0;
  std::uint64_t restarts = 0;
  std::array<std::uint64_t, kTypes> sent{};
  double t_ratio = 0.0;  ///< sums over experiments; divide by experiments
  double f_ratio = 0.0;
  double msgs_per_node = 0.0;
  double attempts = 0.0;
  metrics::LatencyHistogram first_result;
  std::map<std::string, double> mem;  ///< mem.<bucket>.bytes, summed

  void add(const core::ExperimentResults& r, std::size_t config_nodes) {
    ++experiments;
    nodes += config_nodes;
    events += r.events_executed;
    generated += r.generated;
    delivered += r.messages_delivered;
    lost += r.messages_lost;
    partitioned += r.messages_partitioned;
    empty_results += r.empty_query_results;
    rejects += r.dispatch_rejects;
    restarts += r.checkpoint_restarts;
    for (const auto& t : r.traffic_by_type) {
      for (std::size_t k = 0; k < kTypes; ++k) {
        if (t.type == net::msg_type_name(static_cast<MsgType>(k))) {
          sent[k] += t.sent;
        }
      }
    }
    t_ratio += r.t_ratio;
    f_ratio += r.f_ratio;
    msgs_per_node += r.msg_cost_per_node;
    attempts += r.avg_dispatch_attempts;
    first_result.merge(r.latency_first_result);
    for (const auto& m : r.metrics) {
      if (m.name.rfind("mem.", 0) == 0 && m.name != "mem.total.bytes" &&
          m.name.size() > 10 &&
          m.name.compare(m.name.size() - 6, 6, ".bytes") == 0) {
        mem[m.name.substr(4, m.name.size() - 10)] += m.value;
      }
    }
  }

  [[nodiscard]] std::uint64_t sent_of(const Layer& l) const {
    std::uint64_t s = 0;
    for (const MsgType t : l.types) s += sent[static_cast<std::size_t>(t)];
    return s;
  }
  [[nodiscard]] std::uint64_t sent_total() const {
    std::uint64_t s = 0;
    for (const std::uint64_t v : sent) s += v;
    return s;
  }
  /// Bytes per configured node of every memory bucket named `<layer>.*`.
  [[nodiscard]] double bytes_per_node(const std::string& layer) const {
    double b = 0.0;
    for (const auto& [bucket, bytes] : mem) {
      if (bucket.rfind(layer + ".", 0) == 0) b += bytes;
    }
    return b / static_cast<double>(std::max<std::uint64_t>(nodes, 1));
  }
};

// ---------------------------------------------------------------------------
// Statistics and output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< human-only detail (quartiles, sample count)
};

std::string read_first_line(const std::string& path,
                            const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::string v = line.substr(prefix.size());
    const std::size_t colon = v.find(':');
    if (!prefix.empty() && colon != std::string::npos) v = v.substr(colon + 1);
    const std::size_t b = v.find_first_not_of(" \t");
    return b == std::string::npos ? "" : v.substr(b);
  }
  return "";
}

/// Peak RSS of this process image.  VmHWM starts afresh at exec, unlike
/// getrusage's ru_maxrss, which keeps the high-water mark of the process
/// that forked the benchmark (the Python runner's ~15 MiB).
std::uint64_t peak_rss_bytes() {
  const std::string kib = read_first_line("/proc/self/status", "VmHWM");
  return kib.empty() ? 0 : std::stoull(kib) * 1024;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// The machine stamp: numbers from two runs compare only when these agree.
std::string machine_stamp() {
  std::string cpu = read_first_line("/proc/cpuinfo", "model name");
  if (cpu.empty()) cpu = "unavailable";
  std::string governor = read_first_line(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "");
  if (governor.empty()) governor = "unavailable";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu\": \"%s\", \"nproc\": %ld, \"governor\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"}",
                json_escape(cpu).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                json_escape(governor).c_str(), json_escape(compiler).c_str(),
                PERFBENCH_BUILD_TYPE);
  return buf;
}

void print_result(const std::vector<Metric>& metrics, std::size_t attempted,
                  std::size_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %-14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::string spread_note(const std::vector<double>& v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "q1=%.6g q3=%.6g n=%zu", percentile(v, 25.0),
                percentile(v, 75.0), v.size());
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string name = args.get("workload", "");
  const Workload* w = workload_by_name(name);
  const std::int64_t seed_arg = args.get_int("seed", 1);
  const double budget_s = args.get_double("seconds", 20.0);
  const bool traced = args.get_int("trace", 0) != 0;
  const std::string work_dir = args.get("work-dir", "perfbench-work");
  if (w == nullptr || seed_arg < 0 || budget_s <= 0.0) {
    std::fprintf(stderr,
                 "perfbench: need --seed >= 0, --seconds > 0 and --workload "
                 "one of:");
    for (const Workload& known : workloads()) {
      std::fprintf(stderr, " %s", known.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(seed_arg);
  const std::string trace_out =
      args.get("trace-out", work_dir + "/trace-" + name + ".json");

  std::optional<core::ExperimentConfig> config;
  std::optional<sweep::SweepSpec> spec;
  if (w->experiment) config = w->experiment(seed);
  if (w->sweep) spec = w->sweep(seed);
  if (!config.has_value() && !spec.has_value()) {
    std::fprintf(stderr, "perfbench: workload %s failed to build\n", w->name);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  const std::string sweep_dir = work_dir + "/sweep-" + name;
  std::size_t max_nodes = 0;
  if (config.has_value()) max_nodes = config->nodes;
  if (spec.has_value()) {
    for (const std::size_t n : spec->node_counts) {
      max_nodes = std::max(max_nodes, n);
    }
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name, static_cast<unsigned long long>(seed), budget_s,
              traced ? 1 : 0);
  std::printf("# machine: %s\n", machine_stamp().c_str());

  // Untraced repeats, all with the same seed.  A repeat starts only if it
  // is expected to end within the budget.
  std::optional<ReferenceKernel> ref;
  std::vector<Repeat> reps;
  std::size_t failed = 0;
  const double untraced_budget = traced ? 0.5 * budget_s : budget_s;
  const std::size_t min_reps = traced ? kTracedMinRepeats : kMinRepeats;
  // Peak RSS through the first repeat: what one run of the workload costs
  // a process.  Later repeats run on a heap the earlier ones fragmented.
  // The reference kernel is allocated only after it, so its 17 MiB stay
  // out of that figure; the first repeat is not timed anyway.
  std::uint64_t first_repeat_rss = 0;
  const auto start = Clock::now();
  while (reps.size() < min_reps ||
         since(start) + reps.back().wall_s < untraced_budget) {
    ReferenceKernel* const k = ref.has_value() ? &*ref : nullptr;
    Repeat rep = config.has_value()
                     ? experiment_repeat(*config, seed, reps.empty(), k)
                     : sweep_repeat(*spec, sweep_dir, k);
    if (reps.empty()) {
      first_repeat_rss = peak_rss_bytes();
      ref.emplace();
    }
    if (rep.failure.empty() && !reps.empty() &&
        rep.fingerprint != reps.front().fingerprint) {
      rep.failure = "fingerprint differs from repeat 1";
    }
    if (!rep.failure.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: repeat %zu failed: %s\n",
                   reps.size() + 1, rep.failure.c_str());
    }
    std::printf("# repeat %zu: wall %.4f s; cpu %.4f s, setup %.4f s, "
                "run %.4f s; ",
                reps.size() + 1, rep.wall_s, rep.cpu_s, rep.setup_s,
                rep.run_s);
    if (rep.slices.empty()) {
      std::printf("warm-up, untimed; ");
    } else {
      std::printf("reference slice %.5f s (scale %.4f); ", median(rep.slices),
                  rep.scale());
    }
    std::printf("%llu events, fingerprint %016" PRIx64 "\n",
                static_cast<unsigned long long>(rep.events), rep.fingerprint);
    reps.push_back(std::move(rep));
  }
  std::printf("# reference kernel sink %016" PRIx64 "\n", ref->sink());
  // Repeat 1 warmed the heap and the caches; the timings start at repeat 2.
  std::vector<double> cpu, repeat_s, setup, rate;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const Repeat& r = reps[i];
    const double k = r.scale();
    cpu.push_back(r.cpu_s);
    repeat_s.push_back(k * r.cpu_s);
    setup.push_back(k * r.setup_s);
    rate.push_back(ratio(static_cast<double>(r.events), k * r.run_s));
  }

  std::vector<Metric> out;
  std::size_t attempted = reps.size();
  if (!traced) {
    out.push_back({"repeat_s", median(repeat_s), "s",
                   spread_note(repeat_s) +
                       " unscaled=" + std::to_string(median(cpu))});
    out.push_back({"events_per_s", median(rate), "1/s", spread_note(rate)});
    out.push_back({"setup_s", median(setup), "s", spread_note(setup)});
    out.push_back({"peak_rss_bytes_per_node",
                   static_cast<double>(first_repeat_rss) /
                       static_cast<double>(max_nodes),
                   "B",
                   "peak RSS " + std::to_string(first_repeat_rss >> 20) +
                       " MiB"});
    print_result(out, attempted, failed);
    return 0;
  }

  // The traced repeat.
  ++attempted;
  SpanTrace trace;
  const auto workload_span = trace.begin(std::string("workload ") + w->name);
  const auto repeat_span = trace.begin("repeat traced");
  const double traced_c0 = cpu_now();
  Profile prof;
  Fold fold;
  std::string traced_failure;
  SweepTimes sweep_times;
  double sweep_wall_s = 0.0;
  double sweep_cpu_s = 0.0;
  if (config.has_value()) {
    const TracedExperiment te = traced_experiment(*config, seed, trace, prof);
    traced_failure = te.failure;
    if (traced_failure.empty() &&
        results_fingerprint(te.results) != reps.front().fingerprint) {
      traced_failure = "traced fingerprint differs from untraced";
    }
    fold.add(te.results, config->nodes);
  } else {
    // The sweep pipeline itself, with a span per sweep:: call ...
    const auto pipeline_t0 = Clock::now();
    const double pipeline_c0 = cpu_now();
    const SweepPass pass = sweep_pipeline(*spec, sweep_dir, &trace);
    sweep_wall_s = since(pipeline_t0);
    sweep_cpu_s = cpu_now() - pipeline_c0;
    sweep_times = pass.times;
    traced_failure = pass.failure;
    if (traced_failure.empty() &&
        bytes_fingerprint(pass.merged) != reps.front().fingerprint) {
      traced_failure = "traced merged report differs from untraced";
    }
    // ... then each cell again through Experiment, since run_shard exposes
    // no bus to attach the profiler to.  Each must reproduce its shard row.
    std::map<std::string, const sweep::CellResult*> shard_rows;
    for (const sweep::CellResult& c : pass.cells) shard_rows[c.key] = &c;
    for (const sweep::SweepCell& cell : spec->enumerate()) {
      if (!traced_failure.empty()) break;
      const auto cell_span = trace.begin("cell " + cell.key);
      const TracedExperiment te =
          traced_experiment(cell.config, seed, trace, prof);
      trace.end(cell_span);
      traced_failure = te.failure;
      const auto row = shard_rows.find(cell.key);
      if (traced_failure.empty() &&
          (row == shard_rows.end() ||
           row->second->events != te.results.events_executed ||
           row->second->messages != te.results.total_messages)) {
        traced_failure =
            "traced cell " + cell.key + " differs from its shard result";
      }
      fold.add(te.results, cell.config.nodes);
    }
  }
  const double traced_cpu_s = cpu_now() - traced_c0;
  trace.end(repeat_span);

  const auto probe_span = trace.begin("probes");
  const std::optional<double> next_hop_ns = probe_next_hop_ns(seed);
  const double qualified_ns = probe_qualified_ns(seed);
  trace.end(probe_span);
  if (!next_hop_ns.has_value()) {
    traced_failure += " can probe: route did not converge";
  }
  trace.end(workload_span);
  if (!traced_failure.empty()) {
    ++failed;
    std::fprintf(stderr, "perfbench: traced repeat failed: %s\n",
                 traced_failure.c_str());
  }
  if (!trace.write(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
  } else {
    std::printf("# wrote %s (%zu spans)\n", trace_out.c_str(), trace.size());
  }

  const HandlerTotals& h = prof.handlers;
  const auto mean_ns = [&h](MsgType t) {
    const auto k = static_cast<std::size_t>(t);
    return ratio(static_cast<double>(h.ns[k]), static_cast<double>(h.calls[k]));
  };
  const double step_s = prof.step_s;
  const auto layer_s = [&h](const Layer& l) {
    return static_cast<double>(h.layer_ns(l)) / 1e9;
  };
  const double other_s = step_s - static_cast<double>(h.all_ns()) / 1e9;
  const double sent = static_cast<double>(fold.sent_total());
  // Untraced CPU time excludes checks; the traced figure repeat also runs
  // the pipeline before the cell pass, so its overhead compares the cells
  // alone.
  const double traced_compare_s = traced_cpu_s - sweep_cpu_s - prof.check_s;
  const double nexp =
      static_cast<double>(std::max<std::uint64_t>(fold.experiments, 1));

  out = {
      {"sim.events", static_cast<double>(fold.events), "count", ""},
      {"sim.step_s", step_s, "s", ""},
      {"sim.other_s", other_s, "s", ""},
      {"sim.other_share", ratio(other_s, step_s), "ratio", ""},
      {"sim.max_pending", static_cast<double>(prof.max_pending), "count", ""},
      {"sim.bytes_per_node", fold.bytes_per_node("sim"), "B", ""},
      {"net.msgs_sent", sent, "count", ""},
      {"net.msgs_per_event", ratio(sent, static_cast<double>(fold.events)),
       "ratio", ""},
      {"net.delivered_ratio", ratio(static_cast<double>(fold.delivered), sent),
       "ratio", ""},
      {"net.lost", static_cast<double>(fold.lost), "count", ""},
      {"net.partitioned", static_cast<double>(fold.partitioned), "count", ""},
      {"net.bytes_per_node", fold.bytes_per_node("net"), "B", ""},
      {"can.bytes_per_node", fold.bytes_per_node("can"), "B", ""},
      {"can.next_hop_ns", next_hop_ns.value_or(0.0), "ns", "probe"},
      {"index.handler_s", layer_s(kIndex), "s", ""},
      {"index.share", ratio(layer_s(kIndex), step_s), "ratio", ""},
      {"index.msgs", static_cast<double>(fold.sent_of(kIndex)),
       "count", ""},
      {"index.state_update_ns", mean_ns(MsgType::kStateUpdate), "ns", ""},
      {"index.diffuse_ns", mean_ns(MsgType::kIndexDiffuse), "ns", ""},
      {"index.probe_ns", mean_ns(MsgType::kIndexProbe), "ns", ""},
      {"index.bytes_per_node", fold.bytes_per_node("index"), "B", ""},
      {"index.qualified_ns", qualified_ns, "ns", "probe"},
      {"query.handler_s", layer_s(kQuery), "s", ""},
      {"query.share", ratio(layer_s(kQuery), step_s), "ratio", ""},
      {"query.msgs", static_cast<double>(fold.sent_of(kQuery)),
       "count", ""},
      {"query.duty_ns", mean_ns(MsgType::kDutyQuery), "ns", ""},
      {"query.agent_ns", mean_ns(MsgType::kIndexAgent), "ns", ""},
      {"query.jump_ns", mean_ns(MsgType::kIndexJump), "ns", ""},
      {"query.notice_ns", mean_ns(MsgType::kFoundNotice), "ns", ""},
      {"query.empty_results", static_cast<double>(fold.empty_results),
       "count", ""},
      {"query.found_ratio",
       ratio(static_cast<double>(fold.first_result.total()),
             static_cast<double>(fold.generated)),
       "ratio", ""},
      {"psm.dispatch_ns", mean_ns(MsgType::kDispatch), "ns", ""},
      {"psm.dispatch_share", ratio(layer_s(kPsm), step_s), "ratio", ""},
      {"psm.attempts_per_task", fold.attempts / nexp, "count", ""},
      {"psm.rejects", static_cast<double>(fold.rejects), "count", ""},
      {"gossip.share", ratio(layer_s(kGossip), step_s), "ratio", ""},
      {"gossip.bytes_per_node", fold.bytes_per_node("gossip"), "B", ""},
      {"khdn.share", ratio(layer_s(kKhdn), step_s), "ratio", ""},
      {"khdn.bytes_per_node", fold.bytes_per_node("khdn"), "B", ""},
      {"core.setup_s", prof.setup_s, "s", ""},
      {"core.results_s", prof.results_s, "s", ""},
      {"core.check_s", prof.check_s, "s", ""},
      {"core.bytes_per_node", fold.bytes_per_node("core"), "B", ""},
      {"core.checkpoint_restarts", static_cast<double>(fold.restarts),
       "count", ""},
      {"sweep.io_share",
       ratio(sweep_times.write_s + sweep_times.merge_s, sweep_wall_s), "ratio",
       "write+merge share of the pipeline"},
      {"sweep.bytes", static_cast<double>(sweep_times.bytes), "B", ""},
      {"obs.trace_overhead", ratio(traced_compare_s, median(cpu)) - 1.0,
       "ratio", ""},
      {"obs.handler_coverage", ratio(step_s, prof.run_s), "ratio", ""},
      {"model.t_ratio", fold.t_ratio / nexp, "ratio", "simulated"},
      {"model.f_ratio", fold.f_ratio / nexp, "ratio", "simulated"},
      {"model.first_result_p99_s", fold.first_result.percentile_s(99.0), "s",
       "simulated"},
      {"model.msgs_per_node", fold.msgs_per_node / nexp, "count", "simulated"},
  };
  print_result(out, attempted, failed);
  return 0;
}
