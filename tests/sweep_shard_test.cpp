// Sweep sharding invariants (src/sweep/): the partition is exhaustive,
// disjoint and stable under grid reordering; cell seeds are content-
// derived; shard results round-trip through their JSON files; merging is
// idempotent and independent of shard layout; and the resume set shrinks
// exactly as shard results land.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>

#include "src/common/stats.hpp"
#include "src/sweep/io.hpp"
#include "src/sweep/merge.hpp"
#include "src/sweep/runner.hpp"

namespace soc::sweep {
namespace {

namespace fs = std::filesystem;

/// The 24-cell mini-grid used across these tests: 3 protocols × 2 λ ×
/// 2 populations × 2 repeats, sized so a full in-process run stays well
/// under a second.
SweepSpec mini_spec() {
  SweepSpec spec;
  spec.protocols = {core::ProtocolKind::kHidCan, core::ProtocolKind::kNewscast,
                    core::ProtocolKind::kKhdnCan};
  spec.lambdas = {0.3, 0.5};
  spec.node_counts = {24, 32};
  spec.scenarios = {"none"};
  spec.repeats = 2;
  spec.base_seed = 7;
  spec.hours = 0.05;
  return spec;
}

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("soc_sweep_") + tag + "_" +
              std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(SweepSpec, EnumerationCoversGridWithUniqueContentDerivedCells) {
  const SweepSpec spec = mini_spec();
  const std::vector<SweepCell> cells = spec.enumerate();
  EXPECT_EQ(cells.size(), spec.cell_count());
  EXPECT_EQ(cells.size(), 24u);

  std::set<std::string> keys;
  std::set<std::uint64_t> seeds;
  for (const SweepCell& c : cells) {
    keys.insert(c.key);
    seeds.insert(c.config.seed);
    EXPECT_NE(c.config.seed, 0u);
    EXPECT_EQ(c.key.rfind(c.group, 0), 0u) << "key starts with group";
  }
  EXPECT_EQ(keys.size(), cells.size()) << "cell keys are unique";
  EXPECT_EQ(seeds.size(), cells.size()) << "cell seeds are unique";
}

TEST(SweepSpec, ReorderedAxesProduceIdenticalCells) {
  const SweepSpec spec = mini_spec();
  SweepSpec shuffled = spec;
  std::reverse(shuffled.protocols.begin(), shuffled.protocols.end());
  std::reverse(shuffled.lambdas.begin(), shuffled.lambdas.end());
  std::reverse(shuffled.node_counts.begin(), shuffled.node_counts.end());
  // Duplicates collapse too.
  shuffled.lambdas.push_back(spec.lambdas[0]);

  EXPECT_EQ(spec.describe(), shuffled.describe());
  EXPECT_EQ(spec.fingerprint(), shuffled.fingerprint());

  const auto a = spec.enumerate();
  const auto b = shuffled.enumerate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].config.seed, b[i].config.seed);
  }
}

TEST(SweepShard, PartitionIsExhaustiveDisjointAndStable) {
  const SweepSpec spec = mini_spec();
  const auto cells = spec.enumerate();
  for (const std::size_t n : {1u, 4u, 7u, 64u}) {
    const std::vector<Shard> shards = partition(spec, n);
    ASSERT_EQ(shards.size(), n);
    std::map<std::string, std::size_t> where;
    std::size_t total = 0;
    for (const Shard& s : shards) {
      for (const SweepCell& c : s.cells) {
        EXPECT_TRUE(where.emplace(c.key, s.id).second)
            << c.key << " assigned twice";
        EXPECT_EQ(shard_of(c, n), s.id);
        ++total;
      }
    }
    EXPECT_EQ(total, cells.size()) << "every cell lands in some shard";
    // Stability: a reordered spec partitions identically.
    SweepSpec reordered = spec;
    std::reverse(reordered.protocols.begin(), reordered.protocols.end());
    for (const Shard& s : partition(reordered, n)) {
      for (const SweepCell& c : s.cells) {
        EXPECT_EQ(where.at(c.key), s.id);
      }
    }
  }
}

TEST(SweepShard, ManifestRoundTrips) {
  const TempDir dir("manifest");
  Manifest m;
  m.spec_fingerprint = 0xabcdef0123456789ull;
  m.spec = mini_spec().describe();
  m.shards_total = 3;
  m.shards = {{0, 5, "done"}, {1, 0, "pending"}, {2, 19, "failed"}};
  ASSERT_TRUE(write_manifest(dir.path(), m));
  const auto back = read_manifest(dir.path());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spec_fingerprint, m.spec_fingerprint);
  EXPECT_EQ(back->spec, m.spec);
  EXPECT_EQ(back->shards_total, m.shards_total);
  ASSERT_EQ(back->shards.size(), m.shards.size());
  for (std::size_t i = 0; i < m.shards.size(); ++i) {
    EXPECT_EQ(back->shards[i].id, m.shards[i].id);
    EXPECT_EQ(back->shards[i].cells, m.shards[i].cells);
    EXPECT_EQ(back->shards[i].state, m.shards[i].state);
  }
}

TEST(SweepRunner, ShardResultRoundTripsThroughJson) {
  const TempDir dir("roundtrip");
  SweepSpec spec = mini_spec();
  // One protocol is enough for an IO round-trip; keep it quick.
  spec.protocols = {core::ProtocolKind::kNewscast};
  spec.repeats = 1;
  const std::vector<Shard> shards = partition(spec, 2);
  const std::uint64_t fp = spec.fingerprint();
  for (const Shard& shard : shards) {
    const ShardResult result = run_shard(shard, fp, shards.size());
    ASSERT_TRUE(write_shard_result(dir.path(), result));
    const auto back = read_shard_result(shard_path(dir.path(), shard.id));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->spec_fingerprint, fp);
    EXPECT_EQ(back->shard_id, shard.id);
    EXPECT_EQ(back->shards_total, shards.size());
    ASSERT_EQ(back->cells.size(), result.cells.size());
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      const CellResult& a = result.cells[i];
      const CellResult& b = back->cells[i];
      EXPECT_EQ(a.key, b.key);
      EXPECT_EQ(a.group, b.group);
      EXPECT_EQ(a.seed, b.seed);
      // %.17g round-trips doubles bit-exactly.
      EXPECT_EQ(a.t_ratio, b.t_ratio);
      EXPECT_EQ(a.f_ratio, b.f_ratio);
      EXPECT_EQ(a.fairness, b.fairness);
      EXPECT_EQ(a.msgs_per_node, b.msgs_per_node);
      EXPECT_EQ(a.avg_query_delay_s, b.avg_query_delay_s);
      EXPECT_EQ(a.generated, b.generated);
      EXPECT_EQ(a.events, b.events);
      EXPECT_EQ(a.messages, b.messages);
    }
    EXPECT_TRUE(shard_complete(dir.path(), shard, fp, shards.size()));
  }
}

TEST(SweepRunner, ResumeSetShrinksAsShardResultsLand) {
  const TempDir dir("resume");
  const SweepSpec spec = mini_spec();
  const std::size_t n = 4;
  const std::vector<Shard> shards = partition(spec, n);
  const std::uint64_t fp = spec.fingerprint();

  auto pending = pending_shards(dir.path(), shards, fp);
  EXPECT_EQ(pending.size(), n) << "nothing done yet";

  // Simulate the pre-crash state: shards 0 and 2 completed, the
  // orchestrator died before the rest.
  for (const std::size_t sid : {0u, 2u}) {
    ASSERT_TRUE(write_shard_result(dir.path(),
                                   run_shard(shards[sid], fp, n)));
  }
  pending = pending_shards(dir.path(), shards, fp);
  std::vector<std::size_t> expect{1, 3};
  EXPECT_EQ(pending, expect) << "only unfinished shards pend";

  // A result for the wrong sweep must not count as done.
  ASSERT_TRUE(write_shard_result(dir.path(), run_shard(shards[1], fp ^ 1, n)));
  pending = pending_shards(dir.path(), shards, fp);
  EXPECT_EQ(pending, expect) << "foreign-fingerprint result is not complete";

  // Finish the rest through the in-process orchestrator: it must skip 0/2
  // and rerun exactly 1/3 (the foreign file on 1 gets overwritten).
  OrchestrateOptions options;
  options.dir = dir.path();
  const auto outcome = orchestrate(spec, n, options);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->skipped, 2u);
  EXPECT_EQ(outcome->ran, 2u);
  EXPECT_EQ(outcome->failed, 0u);
  EXPECT_TRUE(pending_shards(dir.path(), shards, fp).empty());

  // Idempotent re-run: everything now resumes as done.
  const auto again = orchestrate(spec, n, options);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->skipped, n);
  EXPECT_EQ(again->ran, 0u);

  const auto manifest = read_manifest(dir.path());
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->spec_fingerprint, fp);
  for (const ShardStatus& s : manifest->shards) EXPECT_EQ(s.state, "done");
}

TEST(SweepRunner, OrchestrateRefusesForeignDirectory) {
  const TempDir dir("foreign");
  const SweepSpec spec = mini_spec();
  OrchestrateOptions options;
  options.dir = dir.path();
  Manifest other;
  other.spec_fingerprint = spec.fingerprint() ^ 0xdead;
  other.spec = "sweep{other}";
  other.shards_total = 2;
  ASSERT_TRUE(write_manifest(dir.path(), other));
  EXPECT_FALSE(orchestrate(spec, 2, options).has_value());
}

TEST(SweepMerge, MergeIsIdempotentAndShardLayoutIndependent) {
  const SweepSpec spec = mini_spec();
  const std::uint64_t fp = spec.fingerprint();

  // Run the same grid under two different shard geometries.
  const auto run_all = [&](const std::string& dir, std::size_t n) {
    for (const Shard& shard : partition(spec, n)) {
      ASSERT_TRUE(write_shard_result(dir, run_shard(shard, fp, n)));
    }
  };
  const TempDir dir3("merge3");
  const TempDir dir5("merge5");
  run_all(dir3.path(), 3);
  run_all(dir5.path(), 5);

  std::string err;
  const auto merged3 = merge_shards(dir3.path(), spec, 3, &err);
  ASSERT_TRUE(merged3.has_value()) << err;
  const auto merged5 = merge_shards(dir5.path(), spec, 5, &err);
  ASSERT_TRUE(merged5.has_value()) << err;

  ASSERT_EQ(merged3->cells.size(), spec.cell_count());
  ASSERT_EQ(merged5->cells.size(), spec.cell_count());
  for (std::size_t i = 0; i < merged3->cells.size(); ++i) {
    EXPECT_EQ(merged3->cells[i].key, merged5->cells[i].key);
    EXPECT_EQ(merged3->cells[i].events, merged5->cells[i].events);
    EXPECT_EQ(merged3->cells[i].t_ratio, merged5->cells[i].t_ratio);
  }
  ASSERT_EQ(merged3->groups.size(), merged5->groups.size());

  // Written reports: identical bytes across layouts (shards_total is part
  // of the schema header, so compare the 3-way report against itself
  // re-merged — idempotence — and the group payload across layouts).
  const std::string path_a = dir3.path() + "/merged_a.json";
  const std::string path_b = dir3.path() + "/merged_b.json";
  ASSERT_TRUE(write_merged_report(path_a, spec, *merged3));
  ASSERT_TRUE(write_merged_report(path_b, spec, *merged3));
  EXPECT_EQ(read_file(path_a), read_file(path_b)) << "merge is idempotent";

  for (std::size_t g = 0; g < merged3->groups.size(); ++g) {
    const GroupStats& a = merged3->groups[g];
    const GroupStats& b = merged5->groups[g];
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.repeats, b.repeats);
    EXPECT_EQ(a.t_ratio_mean, b.t_ratio_mean);
    EXPECT_EQ(a.t_ratio_median, b.t_ratio_median);
    EXPECT_EQ(a.t_ratio_ci95, b.t_ratio_ci95);
    EXPECT_EQ(a.f_ratio_mean, b.f_ratio_mean);
    EXPECT_EQ(a.fairness_mean, b.fairness_mean);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.messages, b.messages);
  }

  // An incomplete shard set must refuse to merge, not under-report.
  std::remove(shard_path(dir5.path(), 1).c_str());
  EXPECT_FALSE(merge_shards(dir5.path(), spec, 5, &err).has_value());
  EXPECT_NE(err.find("shard 1"), std::string::npos) << err;
}

TEST(SweepSpec, ChurnAndVariantAxesEnumerate) {
  SweepSpec spec = mini_spec();
  spec.protocols = {core::ProtocolKind::kHidCan};
  spec.lambdas = {0.5};
  spec.node_counts = {24};
  spec.churns = {0.0, 0.5};
  spec.variants = {"base", "delta4", "checkpoint"};
  spec.repeats = 1;
  const auto cells = spec.enumerate();
  ASSERT_EQ(cells.size(), 6u);

  std::set<std::string> keys;
  for (const SweepCell& c : cells) keys.insert(c.key);
  EXPECT_EQ(keys.size(), cells.size());
  // The axes land in the config, not just the key.
  bool saw_churn = false, saw_delta = false, saw_checkpoint = false;
  for (const SweepCell& c : cells) {
    if (c.config.churn_dynamic_degree == 0.5) saw_churn = true;
    if (c.config.want_results == 4) saw_delta = true;
    if (c.config.churn_task_policy == core::ChurnTaskPolicy::kCheckpointRestart)
      saw_checkpoint = true;
  }
  EXPECT_TRUE(saw_churn);
  EXPECT_TRUE(saw_delta);
  EXPECT_TRUE(saw_checkpoint);
}

TEST(SweepSpec, UnknownVariantIsRejected) {
  core::ExperimentConfig config;
  EXPECT_FALSE(apply_variant("no-such-variant", config));
  EXPECT_TRUE(apply_variant("base", config));
}

TEST(SweepPresets, EveryPresetResolvesAndEnumerates) {
  ASSERT_FALSE(sweep_presets().empty());
  std::set<std::string> names;
  for (const SweepPreset& p : sweep_presets()) {
    EXPECT_TRUE(names.insert(p.name).second) << p.name << " duplicated";
    const SweepPreset* found = preset_by_name(p.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, &p);
    EXPECT_GT(p.spec.cell_count(), 0u) << p.name;
    // Presets must enumerate cleanly (valid protocol/scenario/variant
    // names throughout — enumerate() would die on an unknown variant).
    EXPECT_EQ(p.spec.enumerate().size(), p.spec.cell_count()) << p.name;
  }
  EXPECT_EQ(preset_by_name("no-such-figure"), nullptr);

  // Spot-check the headline grids against the paper.
  const SweepPreset* fig6 = preset_by_name("fig6");
  ASSERT_NE(fig6, nullptr);
  EXPECT_EQ(fig6->spec.protocols.size(), 6u);
  EXPECT_TRUE(fig6->render_series);
  const SweepPreset* table3 = preset_by_name("table3");
  ASSERT_NE(table3, nullptr);
  EXPECT_EQ(table3->spec.node_counts.size(), 6u);
  EXPECT_FALSE(table3->render_series);
  const SweepPreset* fig8 = preset_by_name("fig8");
  ASSERT_NE(fig8, nullptr);
  EXPECT_EQ(fig8->spec.churns.size(), 5u);
}

TEST(SweepRunner, SeriesRoundTripsThroughShardFile) {
  const TempDir dir("series");
  ShardResult result;
  result.spec_fingerprint = 0x1234;
  result.shard_id = 0;
  result.shards_total = 1;
  CellResult c;
  c.key = "HID-CAN/l0.5/n24/none/c0/base/r0";
  c.group = "HID-CAN/l0.5/n24/none/c0/base";
  c.seed = 42;
  c.t_ratio = 0.25;
  for (int h = 1; h <= 3; ++h) {
    metrics::SeriesSample s;
    s.hour = h;
    s.generated = static_cast<std::uint64_t>(10 * h);
    s.finished = static_cast<std::uint64_t>(4 * h);
    s.failed = static_cast<std::uint64_t>(h);
    s.t_ratio = 0.4 + 0.01 * h;
    s.f_ratio = 0.1 / h;
    s.fairness = 1.0 - 0.001 * h;
    c.series.push_back(s);
  }
  result.cells.push_back(c);
  // A second cell without series: the parser must not steal the first
  // cell's samples across the block boundary.
  CellResult empty = c;
  empty.key = "HID-CAN/l0.5/n24/none/c0/base/r1";
  empty.series.clear();
  result.cells.push_back(empty);

  ASSERT_TRUE(write_shard_result(dir.path(), result));
  const auto back = read_shard_result(shard_path(dir.path(), 0));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->cells.size(), 2u);
  ASSERT_EQ(back->cells[0].series.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const metrics::SeriesSample& a = c.series[i];
    const metrics::SeriesSample& b = back->cells[0].series[i];
    EXPECT_EQ(a.hour, b.hour);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.t_ratio, b.t_ratio);   // %.17g: bit-exact
    EXPECT_EQ(a.f_ratio, b.f_ratio);
    EXPECT_EQ(a.fairness, b.fairness);
  }
  EXPECT_TRUE(back->cells[1].series.empty());
  // The scalar fields still parse to the scalar values, not a series
  // sample's recurrence of the same key names.
  EXPECT_EQ(back->cells[0].t_ratio, 0.25);
  EXPECT_EQ(back->cells[0].generated, 0u);
}

TEST(SweepRunner, EscapedLabelsRoundTripThroughShardFile) {
  const TempDir dir("escape");
  ShardResult result;
  result.spec_fingerprint = 0x5678;
  result.shard_id = 0;
  result.shards_total = 1;
  CellResult c;
  c.key = "weird\"proto\\x/l0.5\tn24\n/r0";  // every escape class at once
  c.group = "weird\"proto\\x";
  c.t_ratio = 0.5;
  result.cells.push_back(c);

  ASSERT_TRUE(write_shard_result(dir.path(), result));
  const auto back = read_shard_result(shard_path(dir.path(), 0));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->cells.size(), 1u);
  EXPECT_EQ(back->cells[0].key, c.key);
  EXPECT_EQ(back->cells[0].group, c.group);
}

TEST(SweepRunner, RaggedSeriesRoundTripWithoutPadding) {
  const TempDir dir("gseries");
  ShardResult result;
  result.spec_fingerprint = 0x9abc;
  result.shard_id = 0;
  result.shards_total = 1;
  // Two repeats of one group; the second repeat's series is one hour
  // shorter.  The shard file must preserve the ragged lengths — padding a
  // short series with zeros (the old print_series bug) would fabricate a
  // sample the run never produced.
  for (int rep = 0; rep < 2; ++rep) {
    CellResult c;
    c.key = "P/l0.5/n24/none/c0/base/r" + std::to_string(rep);
    c.group = "P/l0.5/n24/none/c0/base";
    const int hours = rep == 0 ? 3 : 2;
    for (int h = 1; h <= hours; ++h) {
      metrics::SeriesSample s;
      s.hour = h;
      s.t_ratio = rep == 0 ? 0.5 : 0.7;
      s.fairness = 1.0;
      c.series.push_back(s);
    }
    result.cells.push_back(c);
  }
  ASSERT_TRUE(write_shard_result(dir.path(), result));
  const auto back = read_shard_result(shard_path(dir.path(), 0));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->cells.size(), 2u);
  EXPECT_EQ(back->cells[0].series.size(), 3u);
  EXPECT_EQ(back->cells[1].series.size(), 2u);
}

TEST(SweepMerge, MergedGroupSeriesFromRealRun) {
  const TempDir dir("realseries");
  SweepSpec spec = mini_spec();
  spec.protocols = {core::ProtocolKind::kNewscast};
  spec.lambdas = {0.5};
  spec.node_counts = {24};
  spec.repeats = 2;
  spec.hours = 2.0;  // two hourly samples
  const std::uint64_t fp = spec.fingerprint();
  for (const Shard& shard : partition(spec, 2)) {
    ASSERT_TRUE(write_shard_result(dir.path(), run_shard(shard, fp, 2)));
  }
  std::string err;
  const auto merged = merge_shards(dir.path(), spec, 2, &err);
  ASSERT_TRUE(merged.has_value()) << err;
  ASSERT_EQ(merged->groups.size(), 1u);
  const GroupStats& g = merged->groups[0];
  ASSERT_EQ(g.series.size(), 2u);
  EXPECT_EQ(g.series[0].hour, 1.0);
  EXPECT_EQ(g.series[1].hour, 2.0);
  for (const GroupSeriesPoint& p : g.series) {
    EXPECT_EQ(p.repeats, 2u) << "both repeats sample every hour";
  }
  // The group curve is the mean of the two repeats' curves.
  RunningStats t0;
  for (const CellResult& c : merged->cells) {
    ASSERT_EQ(c.series.size(), 2u);
    t0.add(c.series[0].t_ratio);
  }
  EXPECT_EQ(g.series[0].t_ratio_mean, t0.mean());
  // And the merged report keeps its series after the write.
  const std::string path = dir.path() + "/merged.json";
  ASSERT_TRUE(write_merged_report(path, spec, *merged));
  const auto text = read_file(path);
  ASSERT_TRUE(text.has_value());
  EXPECT_NE(text->find("\"series\": ["), std::string::npos);
}

TEST(SweepSpec, ServingAxisEnumeratesAndKeepsOffKeysStable) {
  SweepSpec base = mini_spec();
  base.protocols = {core::ProtocolKind::kHidCan};
  base.lambdas = {0.5};
  base.node_counts = {24};
  base.repeats = 1;

  // The implicit default and an explicit {"off"} are the same spec: same
  // describe() (no sv=[] segment), same fingerprint, same keys/seeds —
  // pre-serving manifests and shard files stay resumable.
  SweepSpec off = base;
  off.servings = {"off"};
  EXPECT_EQ(base.describe(), off.describe());
  EXPECT_EQ(base.fingerprint(), off.fingerprint());
  EXPECT_EQ(base.describe().find("sv=["), std::string::npos);

  SweepSpec sv = base;
  sv.servings = {"off", "closed", "closed+zipf"};
  EXPECT_NE(sv.describe().find("sv=["), std::string::npos);
  EXPECT_NE(sv.fingerprint(), base.fingerprint());
  const auto cells = sv.enumerate();
  ASSERT_EQ(cells.size(), 3u);
  ASSERT_EQ(cells.size(), sv.cell_count());

  std::map<std::string, const SweepCell*> by_key;
  for (const SweepCell& c : cells) by_key[c.key] = &c;
  // "off" cells keep the pre-serving key shape (no suffix) and config.
  const auto* off_cell = by_key.at("HID-CAN/l0.5/n24/none/c0/base/r0");
  EXPECT_FALSE(off_cell->config.serving.enabled());
  EXPECT_EQ(off_cell->config.seed,
            base.enumerate()[0].config.seed)
      << "off cell seed unchanged by the new axis";
  // Serving cells carry the axis in key and config.
  const auto* closed = by_key.at("HID-CAN/l0.5/n24/none/c0/base/closed/r0");
  EXPECT_TRUE(closed->config.serving.closed_loop());
  EXPECT_FALSE(closed->config.serving.skewed());
  const auto* both =
      by_key.at("HID-CAN/l0.5/n24/none/c0/base/closed+zipf/r0");
  EXPECT_TRUE(both->config.serving.closed_loop());
  EXPECT_TRUE(both->config.serving.skewed());
}

TEST(SweepPresets, ServingPresetSpansTheLoopAndSkewAxes) {
  const SweepPreset* serving = preset_by_name("serving");
  ASSERT_NE(serving, nullptr);
  EXPECT_EQ(serving->spec.servings.size(), 4u);
  EXPECT_EQ(serving->spec.lambdas.size(), 2u);
  EXPECT_EQ(serving->spec.enumerate().size(), serving->spec.cell_count());
}

TEST(SweepRunner, LatencyHistogramsRoundTripThroughShardFile) {
  const TempDir dir("latency");
  ShardResult result;
  result.spec_fingerprint = 0xfeed;
  result.shard_id = 0;
  result.shards_total = 1;
  CellResult c;
  c.key = "HID-CAN/l0.5/n24/none/c0/base/closed/r0";
  c.group = "HID-CAN/l0.5/n24/none/c0/base/closed";
  c.t_ratio = 0.5;
  for (std::uint64_t us : {0ull, 7ull, 31ull, 32ull, 4096ull, 5'000'000ull}) {
    c.latency_first_result.record_us(us);
    c.latency_finish.record_us(us * 2 + 1);
  }
  // Second cell with empty histograms: must come back empty, not steal the
  // first cell's encoding across the block boundary.
  CellResult empty = c;
  empty.key = "HID-CAN/l0.5/n24/none/c0/base/closed/r1";
  empty.latency_first_result = metrics::LatencyHistogram{};
  empty.latency_finish = metrics::LatencyHistogram{};
  result.cells.push_back(c);
  result.cells.push_back(empty);

  ASSERT_TRUE(write_shard_result(dir.path(), result));
  const auto back = read_shard_result(shard_path(dir.path(), 0));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->cells.size(), 2u);
  EXPECT_EQ(back->cells[0].latency_first_result.encode(),
            c.latency_first_result.encode());
  EXPECT_EQ(back->cells[0].latency_finish.encode(),
            c.latency_finish.encode());
  EXPECT_EQ(back->cells[0].latency_first_result.sum_us(),
            c.latency_first_result.sum_us());
  EXPECT_EQ(back->cells[1].latency_first_result.total(), 0u);
  EXPECT_EQ(back->cells[1].latency_finish.total(), 0u);

  // A corrupted encoding invalidates the whole shard file (forcing a
  // re-run) instead of silently merging an empty histogram.
  const auto text = read_file(shard_path(dir.path(), 0));
  ASSERT_TRUE(text.has_value());
  std::string bad = *text;
  const std::size_t at = bad.find("\"lat_first_b\": \"");
  ASSERT_NE(at, std::string::npos);
  bad.insert(at + std::strlen("\"lat_first_b\": \""), "garbage;");
  ASSERT_TRUE(write_atomic(shard_path(dir.path(), 0), bad));
  EXPECT_FALSE(read_shard_result(shard_path(dir.path(), 0)).has_value());
}

TEST(SweepRunner, HostileCellKeysCannotForgeLatencyOrSeriesFields) {
  // A cell key carrying literal JSON ("hour": …, "lat_first_b": …) must be
  // escaped on write and must not fabricate series samples or histograms
  // on read — the regression guard for the bounded first-match parser.
  const TempDir dir("hostile");
  ShardResult result;
  result.spec_fingerprint = 0xbad;
  result.shard_id = 0;
  result.shards_total = 1;
  CellResult c;
  c.key = "evil\", \"hour\": 99, \"lat_first_b\": \"1;0:1\", \"x\": \"/r0";
  c.group = "evil\", \"hour\": 99, \"lat_first_b\": \"1;0:1\", \"x\": \"";
  c.t_ratio = 0.25;
  result.cells.push_back(c);

  ASSERT_TRUE(write_shard_result(dir.path(), result));
  const auto back = read_shard_result(shard_path(dir.path(), 0));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->cells.size(), 1u);
  EXPECT_EQ(back->cells[0].key, c.key);
  EXPECT_EQ(back->cells[0].t_ratio, 0.25);
  EXPECT_TRUE(back->cells[0].series.empty())
      << "escaped key text must not parse as a series sample";
  EXPECT_EQ(back->cells[0].latency_first_result.total(), 0u)
      << "escaped key text must not parse as a histogram";
}

TEST(SweepMerge, LatencyFoldsBucketWiseAcrossShardLayouts) {
  // Real serving cells across two shard geometries: the folded group
  // histogram (and thus every percentile) must be layout-independent, and
  // must equal the bucket-wise sum of the per-cell histograms.
  SweepSpec spec = mini_spec();
  spec.protocols = {core::ProtocolKind::kNewscast};
  spec.lambdas = {0.5};
  spec.node_counts = {24};
  spec.servings = {"closed"};
  spec.repeats = 2;
  spec.hours = 0.3;
  const std::uint64_t fp = spec.fingerprint();

  const TempDir dir2("lat2");
  const TempDir dir5("lat5");
  for (const Shard& shard : partition(spec, 2)) {
    ASSERT_TRUE(write_shard_result(dir2.path(), run_shard(shard, fp, 2)));
  }
  for (const Shard& shard : partition(spec, 5)) {
    ASSERT_TRUE(write_shard_result(dir5.path(), run_shard(shard, fp, 5)));
  }
  std::string err;
  const auto a = merge_shards(dir2.path(), spec, 2, &err);
  ASSERT_TRUE(a.has_value()) << err;
  const auto b = merge_shards(dir5.path(), spec, 5, &err);
  ASSERT_TRUE(b.has_value()) << err;
  ASSERT_EQ(a->groups.size(), 1u);
  ASSERT_EQ(b->groups.size(), 1u);
  EXPECT_EQ(a->groups[0].latency_finish.encode(),
            b->groups[0].latency_finish.encode());
  EXPECT_EQ(a->groups[0].latency_first_result.encode(),
            b->groups[0].latency_first_result.encode());
  EXPECT_EQ(a->groups[0].latency_finish.percentile_s(99.0),
            b->groups[0].latency_finish.percentile_s(99.0));
  EXPECT_EQ(a->groups[0].latency_first_p99_ci95,
            b->groups[0].latency_first_p99_ci95);

  // The group fold equals summing the cells by hand.
  metrics::LatencyHistogram manual;
  for (const CellResult& cell : a->cells) manual.merge(cell.latency_finish);
  EXPECT_EQ(manual.encode(), a->groups[0].latency_finish.encode());

  // And the written report carries the latency block.
  const std::string path = dir2.path() + "/merged.json";
  ASSERT_TRUE(write_merged_report(path, spec, *a));
  const auto doc = json::load(path);
  ASSERT_TRUE(doc.has_value());
  json::Fields report(*doc);
  const json::Array& experiments = report.array("experiments");
  ASSERT_EQ(experiments.size(), 1u);
  const json::Value* latency = experiments[0].find("latency");
  ASSERT_NE(latency, nullptr);
  for (const char* block : {"first_result", "finish"}) {
    const json::Value* v = latency->find(block);
    ASSERT_NE(v, nullptr) << block;
    json::Fields f(*v);
    f.u64("n");
    f.f64("p999_s");
    f.f64("p99_ci95");
    EXPECT_TRUE(f.ok()) << block;
  }
  json::Fields first(*latency->find("first_result"));
  EXPECT_EQ(first.u64("n"), a->groups[0].latency_first_result.total());
  EXPECT_EQ(first.f64("p99_ci95"), a->groups[0].latency_first_p99_ci95);
}

TEST(SweepMerge, GroupStatsMatchHandComputedCi) {
  const TempDir dir("ci");
  SweepSpec spec = mini_spec();
  spec.protocols = {core::ProtocolKind::kNewscast};
  spec.lambdas = {0.5};
  spec.node_counts = {24};
  spec.repeats = 4;
  const std::uint64_t fp = spec.fingerprint();
  for (const Shard& shard : partition(spec, 2)) {
    ASSERT_TRUE(write_shard_result(dir.path(), run_shard(shard, fp, 2)));
  }
  std::string err;
  const auto merged = merge_shards(dir.path(), spec, 2, &err);
  ASSERT_TRUE(merged.has_value()) << err;
  ASSERT_EQ(merged->groups.size(), 1u);
  const GroupStats& g = merged->groups[0];
  ASSERT_EQ(g.repeats, 4u);

  RunningStats t;
  std::vector<double> ts;
  for (const CellResult& c : merged->cells) {
    t.add(c.t_ratio);
    ts.push_back(c.t_ratio);
  }
  EXPECT_EQ(g.t_ratio_mean, t.mean());
  EXPECT_EQ(g.t_ratio_median, median(ts));
  EXPECT_EQ(g.t_ratio_ci95, mean_ci95_halfwidth(4, t.stddev()));
  // dof=3 → t=3.182; spot-check the table against the closed form.
  EXPECT_NEAR(mean_ci95_halfwidth(4, t.stddev()),
              3.182 * t.stddev() / 2.0, 1e-12);
}

}  // namespace
}  // namespace soc::sweep
