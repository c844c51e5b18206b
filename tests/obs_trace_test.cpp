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
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/core/experiment.hpp"
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

/// Task-category span ends ('e' events) in the exported trace JSON.
std::size_t task_span_ends(const obs::Tracer& tracer) {
  const auto doc = json::parse(tracer.to_json());
  const json::Value* events = doc ? doc->find("traceEvents") : nullptr;
  if (events == nullptr || events->array() == nullptr) {
    ADD_FAILURE() << "trace JSON has no traceEvents array";
    return 0;
  }
  std::size_t ends = 0;
  for (const json::Value& e : *events->array()) {
    json::Fields f(e);
    if (f.str("ph") == "e" && f.str("cat") == "task") ++ends;
  }
  return ends;
}

/// Run the scenario untraced, then traced, and require bit-identical
/// results.  Returns the traced run's event counts for span accounting.
struct TracedRun {
  std::uint64_t finished = 0;
  std::uint64_t failed = 0;
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t task_ends = 0;  ///< task-category 'e' events in the JSON
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
  return TracedRun{traced.finished,       traced.failed,
                   tracer.count_ph('b'),  tracer.count_ph('e'),
                   task_span_ends(tracer), tracer.event_count()};
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
}

TEST(ObsTrace, NewscastTrajectoryIdenticalWithTracingOn) {
  const TracedRun t = expect_trace_transparent(core::ProtocolKind::kNewscast);
  EXPECT_GT(t.ends, 0u);
  EXPECT_GE(t.begins, t.ends);
  EXPECT_GE(t.ends, t.finished);
}

TEST(ObsTrace, KhdnCanTrajectoryIdenticalWithTracingOn) {
  const TracedRun t = expect_trace_transparent(core::ProtocolKind::kKhdnCan);
  EXPECT_GT(t.ends, 0u);
  EXPECT_GE(t.begins, t.ends);
  EXPECT_GE(t.ends, t.finished);
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
