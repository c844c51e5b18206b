// Unit coverage for bench/compare_core.hpp — the bench_compare gate logic
// on synthetic report histories, exercising exactly the scenarios that
// motivated trend mode (one noisy baseline must not move the gate in
// either direction).
#include <gtest/gtest.h>

#include "bench/compare_core.hpp"

namespace soc::bench {
namespace {

PerfReport make_report(double ev_rate, double msg_rate, double events = 1000,
                       double messages = 500, double seed = 1) {
  PerfReport r;
  r.nodes = 256;
  r.hours = 4;
  r.seed = seed;
  PerfExperiment e;
  e.name = "HID-CAN";
  e.events = events;
  e.events_per_sec = ev_rate;
  e.messages = messages;
  e.messages_per_sec = msg_rate;
  r.experiments.push_back(e);
  return r;
}

TEST(CompareCore, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({5.0}), 5.0);
}

TEST(CompareCore, MedianBaselineCollapsesHistoryRates) {
  const std::vector<PerfReport> history{
      make_report(900, 450), make_report(1000, 500), make_report(1100, 550)};
  const PerfReport base = median_baseline(history, 3);
  ASSERT_EQ(base.experiments.size(), 1u);
  EXPECT_DOUBLE_EQ(base.experiments[0].events_per_sec, 1000);
  EXPECT_DOUBLE_EQ(base.experiments[0].messages_per_sec, 500);
  // Counts come verbatim from the newest history entry, not a median.
  EXPECT_DOUBLE_EQ(base.experiments[0].events, 1000);
}

TEST(CompareCore, MedianBaselineUsesOnlyLastN) {
  // An ancient slow epoch must age out of the window.
  const std::vector<PerfReport> history{
      make_report(100, 50), make_report(1000, 500), make_report(1020, 510),
      make_report(980, 490)};
  const PerfReport base = median_baseline(history, 3);
  EXPECT_DOUBLE_EQ(base.experiments[0].events_per_sec, 1000);
}

TEST(CompareCore, OneSlowOutlierCannotLowerTheTrendGate) {
  // History: four sane runs and one machine hiccup at half speed.  A
  // single-baseline gate against the hiccup would wave through a real 40%
  // regression; the median gate does not.
  const std::vector<PerfReport> history{
      make_report(1000, 500), make_report(1010, 505), make_report(500, 250),
      make_report(990, 495), make_report(1005, 502)};
  const PerfReport median = median_baseline(history, 5);
  EXPECT_DOUBLE_EQ(median.experiments[0].events_per_sec, 1000);

  const PerfReport regressed = make_report(600, 300);
  // Against the hiccup alone: 600/500 looks like an improvement.
  EXPECT_EQ(compare_reports(history[2], regressed, 0.10, false).regressions,
            0);
  // Against the median: caught.
  EXPECT_EQ(compare_reports(median, regressed, 0.10, false).regressions, 1);
}

TEST(CompareCore, OneFastOutlierCannotFlakeTheTrendGate) {
  // Dual case: one anomalously fast history run must not fail a healthy
  // new run (the flakiness the ROADMAP item wants to avoid while
  // tightening the threshold).
  const std::vector<PerfReport> history{
      make_report(1000, 500), make_report(2000, 1000), make_report(1010, 505)};
  const PerfReport fresh = make_report(995, 498);
  EXPECT_EQ(compare_reports(history[1], fresh, 0.10, false).regressions, 1);
  EXPECT_EQ(
      compare_reports(median_baseline(history, 3), fresh, 0.10, false)
          .regressions,
      0);
}

TEST(CompareCore, MissingExperimentIsARegression) {
  PerfReport base = make_report(1000, 500);
  PerfExperiment extra;
  extra.name = "KHDN-CAN";
  extra.events_per_sec = 800;
  extra.messages_per_sec = 400;
  base.experiments.push_back(extra);
  const PerfReport fresh = make_report(1000, 500);  // KHDN-CAN vanished
  EXPECT_EQ(compare_reports(base, fresh, 0.10, false).regressions, 1);
}

TEST(CompareCore, SameSeedCountDriftIsFlagged) {
  const PerfReport base = make_report(1000, 500, 1000, 500, /*seed=*/1);
  const PerfReport drifted = make_report(1000, 500, 1001, 500, /*seed=*/1);
  EXPECT_EQ(compare_reports(base, drifted, 0.10, /*same_seed=*/true)
                .count_drifts,
            1);
  // Different seeds legitimately change counts: no tripwire.
  EXPECT_EQ(compare_reports(base, drifted, 0.10, /*same_seed=*/false)
                .count_drifts,
            0);
}

TEST(CompareCore, ParserRoundTripsTheEmittedSchema) {
  const std::string text = R"({
  "bench": "hotpath",
  "nodes": 256,
  "hours": 4.000,
  "seed": 7,
  "experiments": [
    { "name": "HID-CAN", "wall_seconds": 1.5,
      "events": 123456, "events_per_sec": 82304.0,
      "messages": 7890, "messages_per_sec": 5260.0 },
    { "name": "Newscast", "wall_seconds": 0.5,
      "events": 42, "events_per_sec": 84.0,
      "messages": 21, "messages_per_sec": 42.0 }
  ]
})";
  std::string err;
  const auto r = parse_report_text(text, &err);
  ASSERT_TRUE(r.has_value()) << err;
  EXPECT_DOUBLE_EQ(r->nodes, 256);
  EXPECT_DOUBLE_EQ(r->seed, 7);
  ASSERT_EQ(r->experiments.size(), 2u);
  EXPECT_EQ(r->experiments[0].name, "HID-CAN");
  EXPECT_DOUBLE_EQ(r->experiments[0].events, 123456);
  // Field search is block-bounded: Newscast's numbers are its own.
  EXPECT_DOUBLE_EQ(r->experiments[1].events_per_sec, 84.0);

  std::string err2;
  EXPECT_FALSE(parse_report_text("{}", &err2).has_value());
  EXPECT_FALSE(err2.empty());
}

TEST(CompareCore, LatencyBlockCannotShadowScalarFields) {
  // The serving-PR schema nests a "latency" object (with its own "n",
  // "mean_s", "p50_s", ...) between the scalars and "traffic".  The
  // bounded exact-key parser must keep reading the experiment's scalars —
  // none of the latency keys may shadow "events", "messages", or the
  // rates, in ANY ordering of the block relative to them.  Hostile
  // ordering on purpose: latency comes FIRST here, unlike the writer.
  const std::string text = R"({
  "bench": "sweep",
  "nodes": 0,
  "hours": 6.000,
  "seed": 1,
  "experiments": [
    { "name": "HID-CAN/l0.5/n24/none/c0/base/closed",
      "latency": { "first_result": { "n": 17, "mean_s": 2.5, "p50_s": 0.007,
                                     "p95_s": 9.1, "p99_s": 41.0,
                                     "p999_s": 41.0, "p99_ci95": 0.5 },
                   "finish": { "n": 12, "mean_s": 150.1, "p50_s": 151.0,
                               "p95_s": 218.0, "p99_s": 218.1,
                               "p999_s": 218.1 } },
      "wall_seconds": 0,
      "events": 5000, "events_per_sec": 0,
      "messages": 2500, "messages_per_sec": 0,
      "slot_span_ratio": 1.25 },
    { "name": "HID-CAN/l0.5/n24/none/c0/base/open", "wall_seconds": 0,
      "events": 4000, "events_per_sec": 0,
      "messages": 2000, "messages_per_sec": 0 }
  ]
})";
  std::string err;
  const auto r = parse_report_text(text, &err);
  ASSERT_TRUE(r.has_value()) << err;
  ASSERT_EQ(r->experiments.size(), 2u);
  EXPECT_DOUBLE_EQ(r->experiments[0].events, 5000);
  EXPECT_DOUBLE_EQ(r->experiments[0].messages, 2500);
  // The second experiment (no latency block) is bounded correctly.
  EXPECT_DOUBLE_EQ(r->experiments[1].events, 4000);
}

}  // namespace
}  // namespace soc::bench
