// obs::Registry invariants — the naming/charset contract, snapshot
// ordering, gauge evaluation, the deterministic flag — and the one that
// matters most: hostile metric names round-trip through the REAL sweep
// shard writer/reader without aliasing any schema key.  The shard file
// stores samples as {"k": name, "v": value} pairs, so a metric named
// "series", "key" or "generated" is an escaped string value, never a key
// of the cell object; this test feeds the worst names we could think of
// through the JSON codec and checks the scalars, series and metrics all
// survive.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/obs/registry.hpp"
#include "src/sweep/runner.hpp"

namespace soc {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("soc_obs_") + tag + "_" +
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

TEST(ObsRegistry, SanitizeKeepsCharsetAndDefangsTheRest) {
  EXPECT_EQ(obs::Registry::sanitize("bus.state-update.sent"),
            "bus.state-update.sent");
  EXPECT_EQ(obs::Registry::sanitize("mem.host_table.bytes"),
            "mem.host_table.bytes");
  EXPECT_EQ(obs::Registry::sanitize("AZaz09_.-"), "AZaz09_.-");
  // Quotes, backslashes, whitespace, colons — everything a name could use
  // to tear JSON or fake a key — become '_'.
  EXPECT_EQ(obs::Registry::sanitize("a\"b\\c d:e,f\ng"), "a_b_c_d_e_f_g");
  EXPECT_EQ(obs::Registry::sanitize(""), "");
}

TEST(ObsRegistry, SetAddGaugeAndSortedSnapshot) {
  obs::Registry reg;
  reg.set("z.gauge.value", 3.5);
  reg.add("a.counter.hits", 2.0);
  reg.add("a.counter.hits", 3.0);
  double backing = 7.0;
  reg.gauge("m.live.value", [&backing] { return backing; });
  backing = 11.0;  // callbacks evaluate at snapshot time, not registration

  const std::vector<obs::MetricSample> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.counter.hits");
  EXPECT_EQ(snap[0].value, 5.0);
  EXPECT_EQ(snap[1].name, "m.live.value");
  EXPECT_EQ(snap[1].value, 11.0);
  EXPECT_EQ(snap[2].name, "z.gauge.value");
  EXPECT_EQ(snap[2].value, 3.5);
  EXPECT_TRUE(std::is_sorted(
      snap.begin(), snap.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
}

TEST(ObsRegistry, DeterministicFlagTravelsWithTheSample) {
  obs::Registry reg;
  reg.set("rss.post_join.bytes", 1e6, /*deterministic=*/false);
  reg.set("tasks.finished", 42.0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_FALSE(snap[0].deterministic);  // rss.* sorts first
  EXPECT_TRUE(snap[1].deterministic);
}

TEST(ObsRegistry, SetOverwritesAndClearEmpties) {
  obs::Registry reg;
  reg.set("x.y.z", 1.0);
  reg.set("x.y.z", 2.0);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.snapshot()[0].value, 2.0);
  reg.clear();
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(ObsRegistry, HostileNamesRoundTripThroughShardFile) {
  const TempDir dir("hostile");

  // A cell with real scalars and series, plus metric names chosen to
  // collide with every schema key the shard parser searches for.
  sweep::CellResult cell;
  cell.key = "HID-CAN/l0.5/n64/r0";
  cell.group = "HID-CAN/l0.5/n64";
  cell.seed = 0xdeadbeefcafe1234ull;
  cell.t_ratio = 0.875;
  cell.f_ratio = 0.0625;
  cell.fairness = 0.96875;
  cell.generated = 320;
  cell.finished = 280;
  cell.failed = 20;
  cell.events = 123456;
  cell.messages = 65432;
  cell.messages_delivered = 65000;
  cell.latency_finish.record_us(1500);
  cell.latency_finish.record_us(70);
  metrics::SeriesSample sample;
  sample.hour = 1.0;
  sample.generated = 320;
  sample.finished = 280;
  sample.t_ratio = 0.875;
  cell.series.push_back(sample);
  // Schema words as metric names: under a naive writer any of these would
  // alias a cell scalar ("generated"), the series scan ("hour"), the cell
  // delimiter ("key"), the histogram fields, or the pair schema itself
  // ("k"/"v").  The registry convention says names are dotted, but the
  // writer must not *depend* on that.
  const std::vector<obs::MetricSample> hostile = {
      {"generated", 1.0, true},    {"hour", 2.0, true},
      {"key", 3.0, true},          {"series", 4.0, true},
      {"lat_first_b", 5.0, true},  {"k", 6.0, true},
      {"v", 7.0, true},            {"t_ratio", 8.0, true},
      {"wall_seconds", 9.0, true}, {"spec_fingerprint", 10.0, true},
      // Bypassing Registry::sanitize on purpose: even raw quotes and
      // backslashes must survive the writer's escaping, not tear the file.
      {"quote\"back\\slash", 11.0, true},
      {"bus.state-update.sent", 12345.0, true},
  };
  cell.metrics = hostile;

  sweep::ShardResult shard;
  shard.spec_fingerprint = 0x0123456789abcdefull;
  shard.shard_id = 0;
  shard.shards_total = 1;
  shard.cells.push_back(cell);

  ASSERT_TRUE(sweep::write_shard_result(dir.path(), shard));
  const auto parsed =
      sweep::read_shard_result(sweep::shard_path(dir.path(), 0));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->cells.size(), 1u);
  const sweep::CellResult& back = parsed->cells[0];

  // The hostile names corrupted nothing around them.
  EXPECT_EQ(parsed->spec_fingerprint, shard.spec_fingerprint);
  EXPECT_EQ(back.key, cell.key);
  EXPECT_EQ(back.group, cell.group);
  EXPECT_EQ(back.seed, cell.seed);
  EXPECT_EQ(back.t_ratio, cell.t_ratio);
  EXPECT_EQ(back.f_ratio, cell.f_ratio);
  EXPECT_EQ(back.generated, cell.generated);
  EXPECT_EQ(back.finished, cell.finished);
  EXPECT_EQ(back.events, cell.events);
  EXPECT_EQ(back.latency_finish.total(), 2u);
  EXPECT_EQ(back.latency_finish.sum_us(), 1570u);
  ASSERT_EQ(back.series.size(), 1u);
  EXPECT_EQ(back.series[0].hour, 1.0);
  EXPECT_EQ(back.series[0].generated, 320u);
  EXPECT_EQ(back.series[0].t_ratio, 0.875);

  // And the metrics themselves round-tripped exactly, in order.
  ASSERT_EQ(back.metrics.size(), hostile.size());
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_EQ(back.metrics[i].name, hostile[i].name) << i;
    EXPECT_EQ(back.metrics[i].value, hostile[i].value) << i;
    EXPECT_TRUE(back.metrics[i].deterministic);
  }
}

TEST(ObsRegistry, EmptyMetricsBlockParsesAsEmpty) {
  const TempDir dir("empty");
  sweep::CellResult cell;
  cell.key = "Newscast/l0.3/n24/r0";
  cell.group = "Newscast/l0.3/n24";
  cell.t_ratio = 0.5;
  sweep::ShardResult shard;
  shard.spec_fingerprint = 1;
  shard.shard_id = 0;
  shard.shards_total = 1;
  shard.cells.push_back(cell);
  ASSERT_TRUE(sweep::write_shard_result(dir.path(), shard));
  const auto parsed =
      sweep::read_shard_result(sweep::shard_path(dir.path(), 0));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->cells.size(), 1u);
  EXPECT_TRUE(parsed->cells[0].metrics.empty());
  EXPECT_TRUE(parsed->cells[0].series.empty());
}

}  // namespace
}  // namespace soc
