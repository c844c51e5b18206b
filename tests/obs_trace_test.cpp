// obs::Tracer invariants — the three design constraints from trace.hpp:
//
//   1. Pure observer: a traced experiment takes the exact bit-trajectory
//      of an untraced one.  Compared by ExperimentResults::fingerprint
//      (raw double bits, traffic, histograms and registry samples
//      included), across all three protocols and the churn scenario, so
//      a tracer hook that draws RNG, schedules an event, or perturbs
//      iteration order fails here before it can move a golden.
//   2. The emitted trace is well-formed Chrome trace-event JSON — the
//      whole document and each event line parse with the repo's strict
//      src/common/json codec (no external JSON dependency).
//   3. Span accounting is sane: every completed task/query closes its
//      async span, so 'e' events never outnumber 'b' events and at least
//      one 'e' exists per finished task.  Under churn that kills tasks
//      (tasks-lost, checkpoint restart) every terminal path closes the
//      task span: the task 'e' events equal finished + failed exactly.
//      Every protocol's queries open and close `query` spans (one
//      pending-query table serves all three), and a route dropped by the
//      shared CAN router leaves a `route` instant.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/can/router.hpp"
#include "src/common/json.hpp"
#include "src/core/experiment.hpp"
#include "src/net/topology.hpp"
#include "src/obs/trace.hpp"

namespace soc {
namespace {

/// Same shape as the golden-trajectory config: small, churned, all
/// leave/rehome/timeout paths exercised.
core::ExperimentConfig small_config(core::ProtocolKind protocol) {
  core::ExperimentConfig c;
  c.protocol = protocol;
  c.nodes = 64;
  c.duration = seconds(3600);
  c.sample_step = seconds(600);
  c.seed = 7;
  c.churn_dynamic_degree = 0.1;
  return c;
}

/// The events of the exported trace JSON with phase `ph` and category
/// `cat`.
std::vector<json::Value> trace_events(const obs::Tracer& tracer,
                                      const std::string& ph,
                                      const std::string& cat) {
  const auto doc = json::parse(tracer.to_json());
  const json::Value* events = doc ? doc->find("traceEvents") : nullptr;
  if (events == nullptr || events->array() == nullptr) {
    ADD_FAILURE() << "trace JSON has no traceEvents array";
    return {};
  }
  std::vector<json::Value> out;
  for (const json::Value& e : *events->array()) {
    json::Fields f(e);
    if (f.str("ph") == ph && f.str("cat") == cat) out.push_back(e);
  }
  return out;
}

/// Run the scenario untraced, then traced, and require bit-identical
/// results.  Returns the traced run's event counts for span accounting.
struct TracedRun {
  std::uint64_t finished = 0;
  std::uint64_t failed = 0;
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t task_ends = 0;  ///< task-category 'e' events in the JSON
  std::size_t query_begins = 0;  ///< query-category 'b' events
  std::size_t query_ends = 0;    ///< query-category 'e' events
  std::size_t events = 0;
};

TracedRun expect_trace_transparent(const core::ExperimentConfig& config) {
  const std::uint64_t off = core::run_experiment(config).fingerprint();

  obs::Tracer tracer;
  obs::Tracer* prev = obs::install_tracer(&tracer);
  const core::ExperimentResults traced = core::run_experiment(config);
  obs::install_tracer(prev);

  EXPECT_EQ(traced.fingerprint(), off)
      << "tracing perturbed the trajectory (protocol "
      << static_cast<int>(config.protocol) << ")";
  return TracedRun{traced.finished,
                   traced.failed,
                   tracer.count_ph('b'),
                   tracer.count_ph('e'),
                   trace_events(tracer, "e", "task").size(),
                   trace_events(tracer, "b", "query").size(),
                   trace_events(tracer, "e", "query").size(),
                   tracer.event_count()};
}

TracedRun expect_trace_transparent(core::ProtocolKind protocol) {
  return expect_trace_transparent(small_config(protocol));
}

TEST(ObsTrace, HidCanTrajectoryIdenticalWithTracingOn) {
  const TracedRun t = expect_trace_transparent(core::ProtocolKind::kHidCan);
  // Span accounting: begins for every task and query, an end for every one
  // that completed (some spans legitimately stay open at cutoff).
  EXPECT_GT(t.ends, 0u);
  EXPECT_GE(t.begins, t.ends);
  EXPECT_GE(t.ends, t.finished) << "every finished task must close its span";
  EXPECT_GT(t.events, t.begins + t.ends) << "marks/instants missing";
  EXPECT_GT(t.query_ends, 0u);
  EXPECT_LE(t.query_ends, t.query_begins);
}

TEST(ObsTrace, NewscastTrajectoryIdenticalWithTracingOn) {
  const TracedRun t = expect_trace_transparent(core::ProtocolKind::kNewscast);
  EXPECT_GT(t.ends, 0u);
  EXPECT_GE(t.begins, t.ends);
  EXPECT_GE(t.ends, t.finished);
  EXPECT_GT(t.query_ends, 0u);
  EXPECT_LE(t.query_ends, t.query_begins);
}

TEST(ObsTrace, KhdnCanTrajectoryIdenticalWithTracingOn) {
  const TracedRun t = expect_trace_transparent(core::ProtocolKind::kKhdnCan);
  EXPECT_GT(t.ends, 0u);
  EXPECT_GE(t.begins, t.ends);
  EXPECT_GE(t.ends, t.finished);
  EXPECT_GT(t.query_ends, 0u);
  EXPECT_LE(t.query_ends, t.query_begins);
}

TEST(ObsTrace, RouteOutOfTtlLeavesOneInstantAtItsHolder) {
  sim::Simulator sim(5);
  net::Topology topo(net::TopologyConfig{}, Rng(6));
  net::MessageBus bus(sim, topo);
  can::CanSpace space(2, Rng(7));
  for (int i = 0; i < 8; ++i) space.join(topo.add_host());
  const NodeId from = space.member_ids().front();
  const can::Zone zone = space.zone_of(from);
  can::Point target(2);
  for (std::size_t d = 0; d < 2; ++d) {
    target[d] = zone.hi(d) < 1.0 ? 0.999 : 0.001;  // outside from's zone
  }
  ASSERT_NE(space.owner_of(target), from);

  obs::Tracer tracer;
  obs::Tracer* prev = obs::install_tracer(&tracer);
  bool arrived = false;
  const can::GreedyRouter<> router(space, bus);
  router.route(from, target, net::MsgType::kStateUpdate, 64, /*ttl=*/0,
               [&arrived](NodeId) { arrived = true; });
  sim.run_until(seconds(60));
  obs::install_tracer(prev);

  EXPECT_FALSE(arrived);
  const std::vector<json::Value> instants =
      trace_events(tracer, "i", "route");
  ASSERT_EQ(instants.size(), 1u);
  json::Fields f(instants.front());
  EXPECT_EQ(f.str("name"), "ttl_exhausted");
  const json::Value* args = instants.front().find("args");
  ASSERT_NE(args, nullptr);
  const json::Value* at = args->find("at");
  ASSERT_NE(at, nullptr);
  EXPECT_EQ(at->u64(), std::optional<std::uint64_t>(from.value));
}

/// Heavy churn under a task-killing policy: hosts die with tasks on them.
core::ExperimentConfig killing_churn_config(core::ChurnTaskPolicy policy) {
  core::ExperimentConfig c = small_config(core::ProtocolKind::kHidCan);
  c.duration = seconds(7200);
  c.churn_dynamic_degree = 0.5;
  c.churn_task_policy = policy;
  return c;
}

TEST(ObsTrace, TasksLostClosesEveryTaskSpan) {
  const TracedRun t = expect_trace_transparent(
      killing_churn_config(core::ChurnTaskPolicy::kTasksLost));
  ASSERT_GT(t.failed, 0u);
  EXPECT_EQ(t.task_ends, t.finished + t.failed)
      << "a task killed with its host must close its span";
}

TEST(ObsTrace, CheckpointRestartClosesEveryTaskSpan) {
  const TracedRun t = expect_trace_transparent(
      killing_churn_config(core::ChurnTaskPolicy::kCheckpointRestart));
  ASSERT_GT(t.failed, 0u);
  EXPECT_EQ(t.task_ends, t.finished + t.failed)
      << "a checkpoint restart that gives up must close its span";
}

TEST(ObsTrace, TracedTraceIsDeterministic) {
  // Same seed, same trace bytes: timestamps are simulated time and ids are
  // logical counters, so nothing wall-clock-dependent can leak in.
  const core::ExperimentConfig config =
      small_config(core::ProtocolKind::kHidCan);
  std::string first;
  for (int run = 0; run < 2; ++run) {
    obs::Tracer tracer;
    tracer.set_lane(0, "HID-CAN");
    obs::Tracer* prev = obs::install_tracer(&tracer);
    (void)core::run_experiment(config);
    obs::install_tracer(prev);
    if (run == 0) {
      first = tracer.to_json();
    } else {
      EXPECT_EQ(tracer.to_json(), first);
    }
  }
}

TEST(ObsTrace, JsonIsWellFormedLineByLine) {
  obs::Tracer tracer;
  obs::Tracer* prev = obs::install_tracer(&tracer);
  tracer.set_lane(3, "lane-three");
  const core::ExperimentResults r =
      core::run_experiment(small_config(core::ProtocolKind::kHidCan));
  obs::install_tracer(prev);
  ASSERT_GT(r.finished, 0u);
  ASSERT_GT(tracer.event_count(), 0u);

  const std::string json = tracer.to_json();
  const std::string head = "{\"traceEvents\": [\n";
  const std::string tail = "\n]}\n";
  ASSERT_EQ(json.rfind(head, 0), 0u);
  ASSERT_GE(json.size(), head.size() + tail.size());
  ASSERT_EQ(json.substr(json.size() - tail.size()), tail);

  // The whole document parses, one JSON object per line, ','-separated.
  const auto doc = json::parse(json);
  ASSERT_TRUE(doc.has_value());
  const json::Value* events = doc->find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->array() != nullptr);
  EXPECT_EQ(events->array()->size(), tracer.event_count() + 1);
  const std::string body =
      json.substr(head.size(), json.size() - head.size() - tail.size());
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start <= body.size()) {
    std::size_t nl = body.find('\n', start);
    if (nl == std::string::npos) nl = body.size();
    std::string line = body.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == ',') line.pop_back();
    ++lines;
    const auto event = json::parse(line);
    ASSERT_TRUE(event.has_value()) << line;
    // Read each required field; Fields latches any missing or mistyped one.
    json::Fields f(*event);
    const std::string ph = f.str("ph");
    ASSERT_EQ(ph.size(), 1u) << line;
    f.u64("pid");
    if (ph != "M") {  // process_name metadata: no timestamp
      f.u64("ts");
      f.str("cat");
      f.str("name");
    }
    if (ph == "b" || ph == "e" || ph == "n") f.str("id");
    if (ph == "X") f.u64("dur");
    EXPECT_TRUE(f.ok()) << line;
  }
  // Every buffered event plus the one lane-metadata record made it out.
  EXPECT_EQ(lines, tracer.event_count() + 1);
}

TEST(ObsTrace, GlobalSinkInstallsAndRestores) {
  ASSERT_EQ(obs::tracer(), nullptr) << "tests must leave the sink clean";
  obs::Tracer a;
  obs::Tracer b;
  EXPECT_EQ(obs::install_tracer(&a), nullptr);
  EXPECT_EQ(obs::tracer(), &a);
  EXPECT_EQ(obs::install_tracer(&b), &a);
  EXPECT_EQ(obs::tracer(), &b);
  EXPECT_EQ(obs::install_tracer(nullptr), &b);
  EXPECT_EQ(obs::tracer(), nullptr);
}

TEST(ObsTrace, PhaseCountsPartitionEventCount) {
  obs::Tracer t;
  t.begin("c", "n", 1, 10);
  t.mark("c", "m", 1, 20);
  t.end("c", "n", 1, 30);
  t.instant("p", "phase", 40);
  t.instant("p", "phase", 50, "nodes", 64);
  t.complete("w", "walk", 10, 25, "hops", 3);
  EXPECT_EQ(t.count_ph('b'), 1u);
  EXPECT_EQ(t.count_ph('n'), 1u);
  EXPECT_EQ(t.count_ph('e'), 1u);
  EXPECT_EQ(t.count_ph('i'), 2u);
  EXPECT_EQ(t.count_ph('X'), 1u);
  EXPECT_EQ(t.event_count(), 6u);
}

}  // namespace
}  // namespace soc
