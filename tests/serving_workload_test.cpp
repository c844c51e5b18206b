// Serving-workload layer (src/workload/serving.hpp + the Experiment
// wiring): preset-name parsing, the diurnal rate curve, Zipf draw
// determinism and skew, closed-loop client structure, and whole-run
// determinism for every serving mode.
#include <gtest/gtest.h>

#include <map>

#include "src/common/stats.hpp"
#include "src/core/experiment.hpp"
#include "src/workload/serving.hpp"

namespace soc {
namespace {

using workload::ServingConfig;
using workload::serving_by_name;

TEST(ServingConfig, DefaultIsFullyDisabled) {
  const ServingConfig c;
  EXPECT_FALSE(c.closed_loop());
  EXPECT_FALSE(c.skewed());
  EXPECT_FALSE(c.diurnal());
  EXPECT_FALSE(c.enabled());
}

TEST(ServingByName, ParsesPresetsAndCompositions) {
  for (const char* off : {"off", "open"}) {
    const auto c = serving_by_name(off);
    ASSERT_TRUE(c.has_value()) << off;
    EXPECT_FALSE(c->enabled()) << off;
  }
  const auto closed = serving_by_name("closed");
  ASSERT_TRUE(closed.has_value());
  EXPECT_TRUE(closed->closed_loop());
  EXPECT_FALSE(closed->skewed());

  const auto zipf = serving_by_name("zipf");
  ASSERT_TRUE(zipf.has_value());
  EXPECT_TRUE(zipf->skewed());
  EXPECT_FALSE(zipf->closed_loop());

  const auto both = serving_by_name("closed+zipf");
  ASSERT_TRUE(both.has_value());
  EXPECT_TRUE(both->closed_loop());
  EXPECT_TRUE(both->skewed());
  EXPECT_FALSE(both->diurnal());

  const auto all = serving_by_name("closed+zipf+diurnal");
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->enabled());
  EXPECT_TRUE(all->diurnal());

  EXPECT_FALSE(serving_by_name("").has_value());
  EXPECT_FALSE(serving_by_name("bogus").has_value());
  EXPECT_FALSE(serving_by_name("closed+bogus").has_value());
  EXPECT_FALSE(serving_by_name("closed+").has_value());
}

TEST(DiurnalFactor, DisabledIsExactlyOne) {
  const ServingConfig off;
  EXPECT_EQ(workload::diurnal_factor(off, 0), 1.0);
  EXPECT_EQ(workload::diurnal_factor(off, seconds(12 * 3600.0)), 1.0);
}

TEST(DiurnalFactor, FollowsTheSineAndRespectsTheFloor) {
  ServingConfig c;
  c.diurnal_amplitude = 0.6;
  c.diurnal_period_hours = 24.0;
  // t=0: sin(0)=0 → factor 1.  Quarter period: sin(π/2)=1 → 1.6.
  // Three quarters: sin(3π/2)=-1 → 0.4.
  EXPECT_NEAR(workload::diurnal_factor(c, 0), 1.0, 1e-12);
  EXPECT_NEAR(workload::diurnal_factor(c, seconds(6 * 3600.0)), 1.6, 1e-9);
  EXPECT_NEAR(workload::diurnal_factor(c, seconds(18 * 3600.0)), 0.4, 1e-9);
  // Amplitude > 1 would go negative at the trough; the floor keeps the
  // rate multiplier positive (a zero/negative exponential mean is UB).
  c.diurnal_amplitude = 2.0;
  EXPECT_EQ(workload::diurnal_factor(c, seconds(18 * 3600.0)), 0.05);
  // Phase shifts the curve: phase 0.25 moves the peak to t=0... period/4
  // earlier, i.e. t=0 now sits at the trough-to-peak crossing.
  c.diurnal_amplitude = 0.6;
  c.diurnal_phase = 0.25;
  EXPECT_NEAR(workload::diurnal_factor(c, seconds(12 * 3600.0)), 1.6, 1e-9);
}

TEST(ZipfGenerator, DrawsAreDeterministicAndSkewed) {
  const workload::ZipfGenerator zipf(64, 1.0);
  EXPECT_EQ(zipf.keys(), 64u);
  Rng a(123), b(123);
  std::map<std::size_t, std::size_t> freq;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t k = zipf.draw(a);
    ASSERT_EQ(k, zipf.draw(b)) << "same seed, same draws";
    ASSERT_LT(k, 64u);
    ++freq[k];
  }
  // Zipf(1): P(0) ≈ 1/H_64 ≈ 0.21, monotone decreasing.  Loose bounds —
  // this is a sanity check on the CDF inversion, not a statistics test.
  EXPECT_GT(freq[0], freq[5]);
  EXPECT_GT(freq[0], 20000 / 8);
  EXPECT_GT(freq[63], 0u) << "tail keys still reachable";
}

core::ExperimentConfig serving_config(const char* preset) {
  core::ExperimentConfig c;
  c.nodes = 32;
  c.duration = seconds(0.5 * 3600.0);
  c.sample_step = seconds(600);
  c.seed = 77;
  const auto serving = serving_by_name(preset);
  EXPECT_TRUE(serving.has_value());
  c.serving = *serving;
  return c;
}

TEST(ServingExperiment, EveryModeRunsDeterministically) {
  for (const char* preset :
       {"open", "closed", "zipf", "diurnal", "closed+zipf+diurnal"}) {
    const core::ExperimentConfig config = serving_config(preset);
    const core::ExperimentResults a = core::run_experiment(config);
    const core::ExperimentResults b = core::run_experiment(config);
    EXPECT_EQ(a.generated, b.generated) << preset;
    EXPECT_EQ(a.finished, b.finished) << preset;
    EXPECT_EQ(a.failed, b.failed) << preset;
    EXPECT_EQ(a.events_executed, b.events_executed) << preset;
    EXPECT_EQ(a.total_messages, b.total_messages) << preset;
    EXPECT_EQ(a.t_ratio, b.t_ratio) << preset;
    EXPECT_EQ(a.fairness, b.fairness) << preset;
    EXPECT_EQ(a.latency_first_result.total(), b.latency_first_result.total())
        << preset;
    EXPECT_EQ(a.latency_first_result.sum_us(), b.latency_first_result.sum_us())
        << preset;
    EXPECT_EQ(a.latency_finish.total(), b.latency_finish.total()) << preset;
    EXPECT_EQ(a.latency_finish.sum_us(), b.latency_finish.sum_us()) << preset;
    EXPECT_GT(a.generated, 0u) << preset;
  }
}

TEST(ServingExperiment, LatencyHistogramsPopulateInTheDefaultWorkload) {
  // Latency recording is passive and always on — the open-loop default
  // records first-result and finish latencies too.
  core::ExperimentConfig config = serving_config("open");
  const core::ExperimentResults r = core::run_experiment(config);
  ASSERT_GT(r.finished, 0u);
  EXPECT_EQ(r.latency_finish.total(), r.finished)
      << "one finish latency per finished task";
  EXPECT_GT(r.latency_first_result.total(), 0u);
  EXPECT_GT(r.latency_finish.percentile_s(99.0), 0.0);
}

TEST(ServingExperiment, ClosedLoopBoundsInFlightPerClient) {
  // Each closed-loop client holds at most one task in flight and thinks
  // (exponential) before its first submission.  With a think time far
  // beyond the horizon, each client submits at most once — the generated
  // count is bounded by nodes × clients (the open-loop Poisson stream has
  // no such cap).
  core::ExperimentConfig config = serving_config("closed");
  config.serving.clients_per_node = 2;
  config.serving.think_time_s = to_seconds(config.duration) * 1000.0;
  const core::ExperimentResults r = core::run_experiment(config);
  EXPECT_LE(r.generated, config.nodes * config.serving.clients_per_node);

  // A short think time re-issues on completion: strictly more traffic than
  // one round per client.
  config.serving.think_time_s = 1.0;
  const core::ExperimentResults busy = core::run_experiment(config);
  EXPECT_GT(busy.generated,
            static_cast<std::uint64_t>(config.nodes) *
                config.serving.clients_per_node);
}

TEST(ServingExperiment, ZipfSkewChangesTheWorkloadTrajectory) {
  const core::ExperimentResults off =
      core::run_experiment(serving_config("open"));
  const core::ExperimentResults zipf =
      core::run_experiment(serving_config("zipf"));
  // Same seed, same arrival process — but demand vectors are redrawn from
  // the hot-key profile table, so the execution trajectory must diverge.
  EXPECT_TRUE(off.events_executed != zipf.events_executed ||
              off.total_messages != zipf.total_messages ||
              off.latency_finish.sum_us() != zipf.latency_finish.sum_us());
}

}  // namespace
}  // namespace soc
