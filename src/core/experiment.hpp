// The Self-Organizing Cloud experiment driver: builds the host population
// (Table I), runs Poisson task submission (Table II), drives the full task
// lifecycle — query → best-fit selection → dispatch → admission re-check
// (Inequality 2, where multi-dimensional contention bites) → PSM execution
// — plus node churn, and reports the paper's metrics.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/dense_node_map.hpp"
#include "src/common/flat_map.hpp"
#include "src/core/host_table.hpp"
#include "src/core/protocol.hpp"
#include "src/index/inscan.hpp"
#include "src/metrics/latency_histogram.hpp"
#include "src/metrics/task_metrics.hpp"
#include "src/net/message_bus.hpp"
#include "src/net/topology.hpp"
#include "src/obs/registry.hpp"
#include "src/psm/checkpoint.hpp"
#include "src/psm/scheduler.hpp"
#include "src/scenario/spec.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/serving.hpp"

namespace soc::scenario {
class ScenarioEngine;
}

namespace soc::core {

/// The protocols compared in §IV.
enum class ProtocolKind : std::uint8_t {
  kSidCan,       ///< spreading index diffusion
  kHidCan,       ///< hopping index diffusion (the paper's recommendation)
  kSidCanSos,    ///< SID + Slack-on-Submission
  kHidCanSos,    ///< HID + Slack-on-Submission
  kSidCanVd,     ///< SID + virtual dimension [27]
  kNewscast,     ///< gossip baseline
  kKhdnCan,      ///< K-hop DHT-neighbor baseline
};

[[nodiscard]] std::string protocol_name(ProtocolKind kind);

/// All protocol kinds in declaration order (sweep grids, CLI help).
inline constexpr std::array<ProtocolKind, 7> kAllProtocols{
    ProtocolKind::kSidCan,    ProtocolKind::kHidCan,
    ProtocolKind::kSidCanSos, ProtocolKind::kHidCanSos,
    ProtocolKind::kSidCanVd,  ProtocolKind::kNewscast,
    ProtocolKind::kKhdnCan};

/// Inverse of protocol_name.  Accepts the exact display name ("HID-CAN")
/// and a shell-friendly lowercase alias with '_' or '-' for the '+'
/// ("hid-can+sos" == "hid_can_sos").  nullopt for unknown names — sweep
/// specs must fail loudly, a shard silently running the wrong protocol
/// would merge wrong numbers.
[[nodiscard]] std::optional<ProtocolKind> protocol_from_name(
    const std::string& name);

/// What happens to tasks running on a host that churns out of the overlay.
enum class ChurnTaskPolicy : std::uint8_t {
  /// The paper's §IV.B model: churn only removes overlay/discovery state;
  /// running tasks execute to completion (execution fault-tolerance is
  /// future work there).
  kDetachedExecution,
  /// Pessimistic model: tasks die with their host and count as failed.
  kTasksLost,
  /// The paper's named future-work extension: periodic checkpoints flow
  /// back to the origin, which re-queries and restarts from the last
  /// snapshot when the execution host departs.
  kCheckpointRestart,
};

/// Churn window: at dynamic degree dd, dd·n nodes depart (and are
/// replaced) per window of one mean task lifetime (Fig. 8).  Read by the
/// experiment's baseline churn and the scenario engine's phased churn.
inline constexpr double kChurnWindowS = 3000.0;

/// A setting exists here only where a caller varies it; every other
/// parameter is a named constant beside its one user.
struct ExperimentConfig {
  ProtocolKind protocol = ProtocolKind::kHidCan;
  std::size_t nodes = 512;
  double demand_ratio = 0.5;                 ///< λ
  SimTime duration = seconds(21600);         ///< paper: 86400 (one day)
  /// Series sampling step; the golden anchors and sim_fuzz use 600 s.
  SimTime sample_step = seconds(3600);
  double churn_dynamic_degree = 0.0;         ///< Fig. 8's dynamic degree
  ChurnTaskPolicy churn_task_policy = ChurnTaskPolicy::kDetachedExecution;
  std::uint64_t seed = 1;

  std::size_t want_results = 1;              ///< δ (first-k)
  /// O(n)-per-failure ground-truth scan (slower; off for benches).
  bool diagnose_failures = false;

  /// The INSCAN ablation axes of the PID-CAN protocols (sweep variants
  /// fanout<N>, sel-*, spread-*); the protocol kind picks the diffusion.
  std::size_t index_fanout_L = index::InscanConfig{}.index_fanout_L;
  index::IndexSelectPolicy select_policy = index::InscanConfig{}.select_policy;
  index::SpreadingScope spreading_scope = index::InscanConfig{}.spreading_scope;

  /// Opt-in scenario schedule (src/scenario): phased churn, join bursts,
  /// mass failures, capacity skew, partitions.  A disabled spec (the
  /// default) leaves the experiment bit-identical to one built before the
  /// scenario layer existed — no engine is constructed and no RNG stream is
  /// forked.
  scenario::ScenarioSpec scenario;

  /// Opt-in correlated link faults (src/net/link_model): burst loss,
  /// reordering, duplication, stragglers.  Disabled (the default) forks no
  /// RNG stream and leaves every delivery bit-identical.
  net::LinkFaultConfig link_faults;

  /// Opt-in serving workload shaping (src/workload/serving): closed-loop
  /// clients, Zipfian hot-key demand skew, diurnal arrival curve.  The
  /// disabled default forks no RNG stream and runs the exact open-loop
  /// Poisson paths, so default trajectories stay bit-identical.
  workload::ServingConfig serving;
};

struct ExperimentResults {
  std::string protocol;
  std::vector<metrics::SeriesSample> series;
  std::uint64_t generated = 0;
  std::uint64_t finished = 0;
  std::uint64_t failed = 0;
  double t_ratio = 0.0;
  double f_ratio = 0.0;
  double fairness = 1.0;
  /// Paper's "message delivery cost": messages sent/forwarded per node.
  double msg_cost_per_node = 0.0;
  std::uint64_t total_messages = 0;
  /// Delivery outcomes: arrived at a live host, dropped because the
  /// destination churned out in flight (or the link model lost it), or
  /// swallowed by an active network partition.
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t messages_partitioned = 0;
  /// Per-message-type traffic breakdown (types with zero sends omitted).
  struct MsgTypeCounts {
    std::string type;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;
    std::uint64_t partitioned = 0;
  };
  std::vector<MsgTypeCounts> traffic_by_type;
  double avg_query_delay_s = 0.0;
  double avg_dispatch_attempts = 0.0;
  std::uint64_t events_executed = 0;

  /// Diagnostics (only meaningful when config.diagnose_failures is set):
  /// failures split by ground truth at failure time.
  std::uint64_t fail_infeasible = 0;  ///< no alive host could admit the task
  std::uint64_t fail_feasible = 0;    ///< a host existed but was not found
  std::uint64_t fail_undiscoverable = 0;  ///< feasible, but no cached record
  std::uint64_t empty_query_results = 0;
  std::uint64_t dispatch_rejects = 0;

  /// Churn fault-tolerance accounting.
  std::uint64_t tasks_killed_by_churn = 0;   ///< aborted with their host
  std::uint64_t checkpoint_restarts = 0;     ///< restart attempts issued
  std::uint64_t checkpoint_snapshots = 0;    ///< snapshots shipped
  double wasted_work_rate_seconds = 0.0;     ///< progress lost to churn

  /// Peak stale-record debt: live cached records naming a dead/unreachable
  /// provider, and records filed at a node that no longer owns their
  /// location (see core::StaleDebt).  Sampled at both partition edges
  /// (just after the cut, when the damage peaks, and just before rejoin
  /// reconciles what remains) and at collection time; the maximum of
  /// those samples is reported, so a healed-and-expired run still shows
  /// what the fault cost.
  std::uint64_t stale_records_dead_provider = 0;
  std::uint64_t stale_records_misplaced = 0;

  /// Per-query latency distributions (always recorded — passive integer
  /// counters on existing paths, no extra events or RNG draws):
  /// submit → first qualified candidate in hand (fresh submissions only;
  /// checkpoint restarts re-enter the query pipeline mid-life), and
  /// submit → task finished (spanning restarts).  Mergeable bucket-wise
  /// across sweep shards.
  metrics::LatencyHistogram latency_first_result;
  metrics::LatencyHistogram latency_finish;

  /// Max slot_span()/size() over the protocol's per-node state maps at
  /// collection time: 1.0 when dense, bounded by the DenseNodeMap
  /// compaction factor under churn (unbounded growth here is the memory
  /// regression the scale lane guards against).
  double slot_span_ratio = 1.0;

  /// Full metrics-registry snapshot at collection time, sorted by name.
  /// New metrics land in every report (bench --json "metrics" object,
  /// sweep shard "metrics" array) through this one vector instead of
  /// being hand-plumbed per field.  Samples flagged deterministic=false
  /// (RSS gauges, wall-time profiles) are excluded from byte-compared
  /// artifacts, the same regime as wall_seconds.
  std::vector<obs::MetricSample> metrics;

  /// FNV-1a over every deterministic field: the protocol name, every
  /// counter, the bits of every double, the series, per-MsgType traffic,
  /// both latency histograms and the deterministic registry samples.  Two
  /// runs of one config must agree on it exactly (bench_scale
  /// --verify-identical, sim_fuzz replays, tracer transparency).
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Run one full simulation; deterministic in config.seed.
[[nodiscard]] ExperimentResults run_experiment(const ExperimentConfig& config);

/// The full simulated system, exposed so examples and tests can drive it
/// step by step instead of only end-to-end.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Build hosts, join them to the protocol, start arrivals and churn.
  void setup();
  /// Run the simulation clock to the configured duration.
  void run();
  /// Collect results (valid after run(), or mid-flight for a snapshot).
  [[nodiscard]] ExperimentResults results() const;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::MessageBus& bus() { return *bus_; }
  [[nodiscard]] DiscoveryProtocol& protocol() { return *protocol_; }
  [[nodiscard]] const metrics::TaskMetrics& task_metrics() const {
    return metrics_;
  }
  [[nodiscard]] std::size_t alive_nodes() const;

  /// Submit one task immediately from `origin` (examples/tests).
  void submit_task(NodeId origin);

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }

  /// Per-subsystem storage footprint at this instant: event queue (which
  /// also holds every in-flight message), host table, in-flight task map,
  /// plus the protocol's buckets (CAN space, index caches, gossip
  /// views...).  The sum is the simulator's
  /// own accounted memory — bench_scale compares it against peak RSS.
  [[nodiscard]] obs::MemBreakdown mem_breakdown() const;

  // -- Scenario-engine hooks (src/scenario/engine.cpp) and fuzz oracles.
  // The engine drives population changes through the exact same paths the
  // built-in Poisson churn uses, so scenario events exercise identical
  // maintenance/rehome/teardown machinery.

  /// Spawn one fresh host and start its Poisson task arrivals (the same
  /// sequence a churn replacement join performs).
  NodeId scenario_join();
  /// Depart `id` (no-op when already gone); same path as churn departures.
  void scenario_depart(NodeId id);
  [[nodiscard]] bool host_alive(NodeId id) const;
  /// A uniformly random alive host: the k-th in ascending id order for
  /// k = rng.pick_index(alive_nodes()), found in O(log n).  Requires an
  /// alive host.
  [[nodiscard]] NodeId random_alive(Rng& rng) const;
  /// Alive host ids in ascending order.
  [[nodiscard]] std::vector<NodeId> alive_ids() const;

  /// Cut off ≈ `fraction` of the alive population along LAN boundaries
  /// (spatially correlated: whole LAN groups starting at `start_lan`,
  /// wrapping).  Cut hosts stay *up* — their tasks keep arriving and
  /// failing — but leave the overlay via on_partition_out and their
  /// cross-cut messages resolve as `partitioned`.  The cut is capped so at
  /// least 3 hosts stay connected.  Returns false (and changes nothing)
  /// when no LAN group fits under the cap or a partition is already active.
  bool scenario_partition(double fraction, std::size_t start_lan);
  /// Heal the partition: clear the bus cut and on_rejoin every still-alive
  /// cut host with its parked stale state.  No-op when none is active.
  void scenario_heal();
  /// Whether a bus-level cut is in place (survives all victims dying).
  [[nodiscard]] bool partition_active() const {
    return bus_->partition_active();
  }
  /// Currently cut-off host ids, ascending (fuzz oracle: must equal the
  /// protocol's parked_ids()).
  [[nodiscard]] const std::vector<NodeId>& partitioned_ids() const {
    return partitioned_;
  }
  [[nodiscard]] bool is_partitioned(NodeId id) const;
  /// LAN group count of the underlying topology (partition epicenters).
  [[nodiscard]] std::size_t lan_count() const { return topology_->lan_count(); }

  /// Internal-accounting oracle for the invariant checker: the alive
  /// count, host-map occupancy and in-flight placements must agree.
  /// Returns an empty string when consistent, else a description of the
  /// violation.
  [[nodiscard]] std::string check_accounting() const;

  /// The scenario engine, when the config enables one (else nullptr).
  [[nodiscard]] const scenario::ScenarioEngine* scenario_engine() const {
    return scenario_engine_.get();
  }

 private:
  struct TaskRun;  // lifecycle context

  NodeId spawn_host();
  void start_arrivals(NodeId id);
  /// One link of the Poisson arrival chain: draw the next gap, stop past
  /// the horizon, otherwise submit-and-recurse at the drawn time.
  void schedule_next_arrival(NodeId id, double mean_s);
  /// One closed-loop client: think (exponential), then issue; the next
  /// issue is chained from the task's completion, not from a rate.
  void schedule_client_issue(NodeId id);
  /// Shared submission path.  For a closed-loop `client` task the origin's
  /// next issue is scheduled exactly once, when the task settles terminally
  /// (finished, failed, or lost).
  void submit_task_internal(NodeId origin, bool client);
  /// Replace a fresh Table II demand draw by a Zipf-popular key profile.
  void apply_demand_profile(psm::TaskSpec& spec);
  void start_churn();
  /// One link of the churn chain (depart + join per firing).
  void schedule_next_churn(double mean_gap_s);
  void start_checkpointing();
  void on_host_departed(NodeId victim);
  void restart_from_checkpoint(const psm::PsmScheduler::Progress& progress,
                               bool client);
  void begin_query(const std::shared_ptr<TaskRun>& run);
  void on_candidates(const std::shared_ptr<TaskRun>& run,
                     std::vector<Discovered> candidates);
  void dispatch(const std::shared_ptr<TaskRun>& run, NodeId provider);
  void retry_or_fail(const std::shared_ptr<TaskRun>& run);
  void on_host_finished_task(NodeId host, const psm::CompletionInfo& info);
  /// Release schedulers of dead hosts whose last detached task finished.
  /// Deferred to the next safe point (the completion callback fires from
  /// inside the scheduler, which must not destroy itself mid-loop).
  void drain_cold_reap();
  [[nodiscard]] double efficiency_of(const psm::TaskSpec& spec,
                                     SimTime finished_at) const;

  ExperimentConfig config_;
  sim::Simulator sim_;
  Rng rng_;
  std::unique_ptr<scenario::ScenarioEngine> scenario_engine_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<net::MessageBus> bus_;
  std::unique_ptr<DiscoveryProtocol> protocol_;
  workload::NodeGenerator node_gen_;
  workload::TaskGenerator task_gen_;
  HostTable hosts_;  ///< SoA hot fields + stable cold scheduler slab
  struct Placement {
    psm::TaskSpec spec;
    NodeId provider;
    bool client = false;  ///< closed-loop client task: wake its origin
  };
  FlatMap<TaskId, Placement> in_flight_;  ///< open-addressing; no node allocs
  psm::CheckpointStore checkpoints_;
  metrics::TaskMetrics metrics_;
  metrics::LatencyHistogram lat_first_result_;
  metrics::LatencyHistogram lat_finish_;
  /// Serving skew state, populated only when config.serving.skewed().
  std::optional<Rng> serving_rng_;
  std::optional<workload::ZipfGenerator> zipf_;
  std::vector<ResourceVector> demand_profiles_;
  RunningStats query_delay_s_;
  RunningStats dispatch_attempts_;
  ResourceVector avg_capacity_;
  double avg_wan_mbps_ = 1.0;
  void sample_stale_debt();
  /// Debt of live, reachable hosts right now (the results()/gauge reading).
  [[nodiscard]] StaleDebt current_stale_debt() const;

  /// Register the standard gauges (bus per-type counters, task counters,
  /// stale debt, slot-span ratio, memory buckets) once the protocol and
  /// bus exist; called at the end of construction.
  void register_metrics();

  /// mutable: results() is const but folds the memory breakdown into the
  /// registry at snapshot time — observability state, not simulation state.
  mutable obs::Registry registry_;
  std::vector<NodeId> cold_reap_;  ///< dead+drained hosts awaiting release
  std::vector<NodeId> partitioned_;  ///< cut-off alive hosts, ascending
  StaleDebt peak_stale_debt_;  ///< max sampled at partition edges (results)
  bool setup_done_ = false;
  std::uint64_t fail_infeasible_ = 0;
  std::uint64_t fail_feasible_ = 0;
  std::uint64_t fail_undiscoverable_ = 0;
  std::uint64_t empty_query_results_ = 0;
  std::uint64_t dispatch_rejects_ = 0;
  std::uint64_t tasks_killed_by_churn_ = 0;
  std::uint64_t checkpoint_restarts_ = 0;
  std::uint64_t checkpoint_snapshots_ = 0;
  double wasted_work_ = 0.0;
};

}  // namespace soc::core
