// Unit tests for src/common: ResourceVector, RNG, stats, CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "src/common/cli.hpp"
#include "src/common/resource_vector.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/types.hpp"

namespace soc {
namespace {

TEST(ResourceVector, ZeroConstructedIsZero) {
  const ResourceVector v(5);
  EXPECT_EQ(v.size(), 5u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], 0.0);
}

TEST(ResourceVector, InitializerList) {
  const ResourceVector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], 2.0);
}

TEST(ResourceVector, DominatesIsComponentwise) {
  const ResourceVector a{2.0, 3.0};
  const ResourceVector b{1.0, 3.0};
  EXPECT_TRUE(a.dominates(b));
  EXPECT_FALSE(b.dominates(a));
  EXPECT_TRUE(a.dominates(a));  // reflexive
}

TEST(ResourceVector, DominanceIsPartialNotTotal) {
  const ResourceVector a{2.0, 1.0};
  const ResourceVector b{1.0, 2.0};
  EXPECT_FALSE(a.dominates(b));
  EXPECT_FALSE(b.dominates(a));
}

TEST(ResourceVector, Arithmetic) {
  const ResourceVector a{2.0, 3.0};
  const ResourceVector b{1.0, 1.5};
  EXPECT_EQ((a + b), (ResourceVector{3.0, 4.5}));
  EXPECT_EQ((a - b), (ResourceVector{1.0, 1.5}));
  EXPECT_EQ((a * 2.0), (ResourceVector{4.0, 6.0}));
}

TEST(ResourceVector, MinMaxClamp) {
  const ResourceVector a{2.0, 1.0};
  const ResourceVector b{1.0, 3.0};
  EXPECT_EQ(a.cw_max(b), (ResourceVector{2.0, 3.0}));
  EXPECT_EQ(a.sum(), 3.0);
  EXPECT_TRUE(a.non_negative());
  EXPECT_FALSE((a - b).non_negative());
}

TEST(ResourceVector, BestFitSlackPrefersTighterCandidate) {
  const ResourceVector demand{1.0, 1.0};
  const ResourceVector scale{10.0, 10.0};
  const ResourceVector tight{1.5, 1.5};
  const ResourceVector roomy{8.0, 9.0};
  EXPECT_LT(best_fit_slack(tight, demand, scale),
            best_fit_slack(roomy, demand, scale));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentOfDrawOrder) {
  const Rng root(7);
  Rng f1 = root.fork("alpha");
  Rng f2 = root.fork("beta");
  // Re-fork after draws: forks depend only on the parent's seed.
  Rng again = root.fork("alpha");
  EXPECT_EQ(f1.next_u64(), again.next_u64());
  EXPECT_NE(f1.seed(), f2.seed());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3000.0);
  EXPECT_NEAR(sum / n, 3000.0, 40.0);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng r(13);
  const auto s = r.sample_indices(10, 4);
  EXPECT_EQ(s.size(), 4u);
  const std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 4u);
  // k > n returns all n.
  EXPECT_EQ(r.sample_indices(3, 10).size(), 3u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  r.shuffle(w.begin(), w.end());
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_EQ(s.count(), 8u);
}

TEST(JainFairness, PerfectlyFairIsOne) {
  const std::vector<double> v{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(jain_fairness(v), 1.0);
}

TEST(JainFairness, WorstCaseIsOneOverN) {
  const std::vector<double> v{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(v), 0.25);
}

TEST(JainFairness, EmptyIsVacuouslyFair) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(Percentile, SingleElementIsEveryPercentile) {
  const std::vector<double> v{3.5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 3.5);
}

TEST(StudentT95, TableToNormalLimitBoundary) {
  EXPECT_DOUBLE_EQ(student_t95(0), 0.0);
  EXPECT_DOUBLE_EQ(student_t95(1), 12.706);
  // dof 30 is the last table entry; 31 falls to the normal limit.
  EXPECT_DOUBLE_EQ(student_t95(30), 2.042);
  EXPECT_DOUBLE_EQ(student_t95(31), 1.960);
}

TEST(CliArgs, ParsesAllForms) {
  const char* argv[] = {"prog",     "--nodes=2000", "--lambda", "0.5",
                        "--full",   "--name",       "hid"};
  const CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("nodes", 0), 2000);
  EXPECT_DOUBLE_EQ(args.get_double("lambda", 0.0), 0.5);
  EXPECT_TRUE(args.get_bool("full", false));
  EXPECT_EQ(args.get("name", ""), "hid");
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_int("missing", 9), 9);
  args.exit_on_errors();  // every given flag was read: returns

  // A flag nothing reads, or a number that does not parse in full, makes
  // exit_on_errors() exit 2 with a message.
  const char* typo[] = {"prog", "--node=48"};
  const CliArgs unknown(2, typo);
  EXPECT_EQ(unknown.get_int("nodes", 256), 256);
  EXPECT_EXIT(unknown.exit_on_errors(), ::testing::ExitedWithCode(2),
              "unknown flag --node");
  const char* junk[] = {"prog", "--nodes=2k", "--hours", "1.5h"};
  const CliArgs malformed(4, junk);
  EXPECT_EQ(malformed.get_int("nodes", 0), 2);  // the parsed prefix
  EXPECT_DOUBLE_EQ(malformed.get_double("hours", 0.0), 1.5);
  EXPECT_EXIT(malformed.exit_on_errors(), ::testing::ExitedWithCode(2),
              "--nodes: '2k' is not an integer");
  EXPECT_EXIT(malformed.exit_on_errors(), ::testing::ExitedWithCode(2),
              "--hours: '1.5h' is not a number");
}

TEST(SimTimeHelpers, Conversions) {
  EXPECT_EQ(seconds(1.5), 1500000);
  EXPECT_EQ(millis(2.0), 2000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(86400.0)), 86400.0);
  EXPECT_DOUBLE_EQ(to_hours(seconds(7200.0)), 2.0);
}

}  // namespace
}  // namespace soc
