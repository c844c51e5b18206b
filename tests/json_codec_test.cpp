// The strict JSON codec (src/common/json) and the readers built on it:
//   * the codec round-trips 64-bit integers and doubles exactly, escapes
//     every string, and rejects malformed documents whole;
//   * every proper prefix of a written shard file, manifest, merged report
//     and BENCH report is refused by its reader — only a cut that drops
//     nothing but trailing whitespace still reads;
//   * a truncated shard file is re-run by the next orchestrate, and the
//     merged report comes out as if nothing had happened;
//   * a shard file and a manifest in the earlier byte layout (several
//     fields per line, %.17g doubles) read back to the values written.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>

#include "bench/bench_common.hpp"
#include "bench/compare_core.hpp"
#include "src/common/json.hpp"
#include "src/sweep/io.hpp"
#include "src/sweep/merge.hpp"
#include "src/sweep/runner.hpp"

namespace soc {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("soc_json_") + tag + "_" +
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

// ---------------------------------------------------------------------------
// The codec.
// ---------------------------------------------------------------------------

TEST(JsonCodec, U64RoundTripsExactlyUpTo2To64Minus1) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t n :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 53) + 1,
        std::uint64_t{0xfedcba9876543210}, kMax}) {
    const std::string text = json::dump(json::Value(n));
    const auto back = json::parse(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(back->u64(), n) << text;
  }
  EXPECT_EQ(json::dump(json::Value(kMax)), "18446744073709551615");
  // Numbers u64() must refuse: past 64 bits, fractional, negative, or
  // spelled with an exponent.
  for (const char* text : {"18446744073709551616", "1.5", "-1", "1e3"}) {
    const auto v = json::parse(text);
    ASSERT_TRUE(v.has_value()) << text;
    EXPECT_FALSE(v->u64().has_value()) << text;
    EXPECT_TRUE(v->f64().has_value()) << text;
  }
}

TEST(JsonCodec, DoublesRoundTripBitExactly) {
  for (const double d :
       {-0.0, std::numeric_limits<double>::denorm_min(), 1e308, 0.1,
        1.0 / 3.0, -2.5e-10, 123456789012345680.0, 1.2345678901234567e20,
        std::numeric_limits<double>::max()}) {
    const std::string text = json::dump(json::Value(d));
    const auto back = json::parse(text);
    ASSERT_TRUE(back.has_value()) << text;
    ASSERT_TRUE(back->f64().has_value()) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back->f64()),
              std::bit_cast<std::uint64_t>(d))
        << text;
  }
  // Shortest round-trip spelling, not %.17g.
  EXPECT_EQ(json::dump(json::Value(0.1)), "0.1");
  EXPECT_EQ(json::dump(json::Value(-0.0)), "-0");
  EXPECT_EQ(json::dump(json::Value(1.0)), "1");
}

TEST(JsonCodec, StringsWithQuotesBackslashesAndControlBytesRoundTrip) {
  std::string s = "q\"b\\s/";
  for (int c = 0; c < 0x20; ++c) s += static_cast<char>(c);
  s += "\x7f \xc3\xa9";
  const std::string text = json::dump(json::Value(s));
  for (const char c : text) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  }
  const auto back = json::parse(text);
  ASSERT_TRUE(back.has_value()) << text;
  EXPECT_EQ(*back->str(), s);
  // \u escapes, a surrogate pair among them, decode to UTF-8.
  const auto u = json::parse("\"\\u00e9\\ud83d\\ude00\\/\"");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u->str(), "\xc3\xa9\xf0\x9f\x98\x80/");
}

TEST(JsonCodec, DocumentsRoundTripAndKeepMemberOrder) {
  const json::Value doc(json::Object{
      {"z", true},
      {"a", json::Array{json::Value(), json::Value(std::uint64_t{7}),
                        json::Value(json::Object{{"k", "v"}})}},
      {"m", json::Object{{"x", 0.5}, {"y", json::Array{}}}}});
  const std::string text = json::dump(doc);
  const auto back = json::parse(text);
  ASSERT_TRUE(back.has_value()) << text;
  EXPECT_EQ(json::dump(*back), text) << "member order kept";
  EXPECT_EQ(back->kind(), json::Value::Kind::kObject);
  EXPECT_EQ(back->find("a")->array()->at(0).kind(), json::Value::Kind::kNull);
  EXPECT_EQ(back->find("z")->kind(), json::Value::Kind::kBool);
}

TEST(JsonCodec, RejectsMalformedDocuments) {
  for (const char* bad : {
           R"({"a": 1, "a": 2})",         // duplicate key
           R"({"a": {"b": 1, "b": 1}})",  // duplicate key, nested
           R"({"a": 1} x)", R"({}{})",    // trailing bytes
           "01", "[00]", "-01", "[1, 02]",  // leading zeros
           "nan", "NaN", "[nan]", "inf", "-inf", "Infinity",
           R"("\x")", R"("\U0041")", R"("\'")", R"("\u12")",  // escapes
           R"("\ud800")", R"("\udc00")", R"("\ud800A")",  // surrogates
           "\"a\tb\"", "\"a\nb\"",        // raw control bytes
           "", " ", "[", "[1,]", "[,1]", "[1 2]", "{\"a\"}", "{\"a\":}",
           "{,}", "{\"a\":1,}", "{a: 1}", "{'a': 1}", "\"abc",
           "1.", ".5", "+1", "1e", "1e+", "-", "tru", "nul", "True",
           "1e999", "-1e999"}) {
    EXPECT_FALSE(json::parse(bad).has_value()) << bad;
  }
}

TEST(JsonCodec, RejectsNestingPastTheDepthLimit) {
  const auto nested = [](int depth, char open, const char* inner,
                         char close) {
    std::string s;
    for (int i = 0; i < depth; ++i) s += open == '{' ? "{\"k\": " : "[";
    s += inner;
    s += std::string(static_cast<std::size_t>(depth), close);
    return s;
  };
  EXPECT_TRUE(json::parse(nested(json::kMaxDepth, '[', "1", ']')).has_value());
  EXPECT_FALSE(
      json::parse(nested(json::kMaxDepth + 1, '[', "1", ']')).has_value());
  EXPECT_TRUE(json::parse(nested(json::kMaxDepth, '{', "1", '}')).has_value());
  EXPECT_FALSE(
      json::parse(nested(json::kMaxDepth + 1, '{', "1", '}')).has_value());
  // Far past the limit: refused without exhausting the stack.
  EXPECT_FALSE(json::parse(std::string(100000, '[')).has_value());
}

// The policy for NaN and infinity: JSON cannot spell them, so a Value
// built from one stops the program (SOC_CHECK) instead of writing a file
// that no reader accepts.
TEST(JsonCodecDeathTest, WriterNeverEmitsNanOrInfinity) {
  EXPECT_DEATH(json::Value(std::nan("")), "NaN or infinity");
  EXPECT_DEATH(json::Value(std::numeric_limits<double>::infinity()),
               "NaN or infinity");
  EXPECT_DEATH(json::Value(-std::numeric_limits<double>::infinity()),
               "NaN or infinity");
  // And so through a real writer.
  const TempDir dir("nan");
  sweep::ShardResult result;
  result.shards_total = 1;
  sweep::CellResult cell;
  cell.key = "k/r0";
  cell.t_ratio = std::nan("");
  result.cells.push_back(cell);
  EXPECT_DEATH((void)sweep::write_shard_result(dir.path(), result),
               "NaN or infinity");
  EXPECT_FALSE(fs::exists(sweep::shard_path(dir.path(), 0)));
}

// ---------------------------------------------------------------------------
// Truncation: each reader takes a file whole or not at all.
// ---------------------------------------------------------------------------

/// Cut lengths n < text.size() at which `reads(text.substr(0, n))` accepts.
std::vector<std::size_t> accepted_cuts(
    const std::string& text,
    const std::function<bool(const std::string&)>& reads) {
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < text.size(); ++n) {
    if (reads(text.substr(0, n))) cuts.push_back(n);
  }
  return cuts;
}

/// The cuts a strict reader may accept: those dropping only whitespace.
std::vector<std::size_t> whitespace_cuts(const std::string& text) {
  std::vector<std::size_t> cuts;
  for (std::size_t n = text.find_last_not_of(" \t\r\n") + 1; n < text.size();
       ++n) {
    cuts.push_back(n);
  }
  return cuts;
}

sweep::SweepSpec tiny_spec() {
  sweep::SweepSpec spec;
  spec.protocols = {core::ProtocolKind::kNewscast};
  spec.lambdas = {0.5};
  spec.node_counts = {16, 24};
  spec.repeats = 2;
  spec.base_seed = 3;
  spec.hours = 0.05;
  return spec;
}

/// A hand-made cell exercising every field kind (escapes, a seed past
/// 2^53, series, histograms, hostile metric names).
sweep::CellResult full_cell() {
  sweep::CellResult c;
  c.key = "weird\"proto\\x/l0.5\tn24\n/r0";
  c.group = "weird\"proto\\x";
  c.seed = 0xfedcba9876543210ull;
  c.t_ratio = 0.1;
  c.f_ratio = 1.0 / 3.0;
  c.generated = 2373;
  c.messages_lost = 12;
  c.slot_span_ratio = 1.25;
  c.wall_seconds = 0.459651;
  c.latency_first_result.record_us(4096);
  c.latency_finish.record_us(70);
  c.metrics = {{"series", 1.0, true}, {"quote\"back\\slash", 0.5, true}};
  metrics::SeriesSample s;
  s.hour = 1.0;
  s.generated = 10;
  s.t_ratio = 0.41000000000000003;
  c.series.push_back(s);
  return c;
}

TEST(JsonStrictness, EveryProperPrefixOfAShardFileIsRejected) {
  const TempDir dir("shard_prefix");
  sweep::ShardResult result;
  result.spec_fingerprint = 0x0123456789abcdefull;
  result.shards_total = 1;
  result.cells = {full_cell(), sweep::CellResult{}};
  result.cells[1].key = "empty/r1";
  ASSERT_TRUE(sweep::write_shard_result(dir.path(), result));
  const std::string path = sweep::shard_path(dir.path(), 0);
  const auto text = sweep::read_file(path);
  ASSERT_TRUE(text.has_value());
  ASSERT_TRUE(sweep::read_shard_result(path).has_value());
  const auto cuts = accepted_cuts(*text, [&](const std::string& prefix) {
    return sweep::write_atomic(path, prefix) &&
           sweep::read_shard_result(path).has_value();
  });
  EXPECT_EQ(cuts, whitespace_cuts(*text));
  EXPECT_EQ(cuts, std::vector<std::size_t>{text->size() - 1});
}

TEST(JsonStrictness, EveryProperPrefixOfAManifestIsRejected) {
  const TempDir dir("manifest_prefix");
  sweep::Manifest m;
  m.spec_fingerprint = 0xabcdef0123456789ull;
  m.spec = tiny_spec().describe();
  m.shards_total = 3;
  m.shards = {{0, 5, "done"}, {1, 0, "pending"}, {2, 19, "failed"}};
  ASSERT_TRUE(sweep::write_manifest(dir.path(), m));
  const std::string path = sweep::manifest_path(dir.path());
  const auto text = sweep::read_file(path);
  ASSERT_TRUE(text.has_value());
  ASSERT_TRUE(sweep::read_manifest(dir.path()).has_value());
  const auto cuts = accepted_cuts(*text, [&](const std::string& prefix) {
    return sweep::write_atomic(path, prefix) &&
           sweep::read_manifest(dir.path()).has_value();
  });
  EXPECT_EQ(cuts, whitespace_cuts(*text));
  EXPECT_EQ(cuts, std::vector<std::size_t>{text->size() - 1});
}

TEST(JsonStrictness, EveryProperPrefixOfAMergedReportIsRejected) {
  const TempDir dir("merged_prefix");
  sweep::SweepSpec spec = tiny_spec();
  spec.node_counts = {16};
  sweep::OrchestrateOptions options;
  options.dir = dir.path();
  ASSERT_TRUE(sweep::orchestrate(spec, 2, options).has_value());
  std::string err;
  const auto report = sweep::merge_shards(dir.path(), spec, 2, &err);
  ASSERT_TRUE(report.has_value()) << err;
  const std::string path = dir.path() + "/merged.json";
  ASSERT_TRUE(sweep::write_merged_report(path, spec, *report));
  const auto text = sweep::read_file(path);
  ASSERT_TRUE(text.has_value());
  ASSERT_TRUE(bench::parse_report_text(*text, &err).has_value()) << err;
  const auto cuts = accepted_cuts(*text, [&](const std::string& prefix) {
    return bench::parse_report_text(prefix, nullptr).has_value();
  });
  EXPECT_EQ(cuts, whitespace_cuts(*text));
  EXPECT_EQ(cuts, std::vector<std::size_t>{text->size() - 1});
}

TEST(JsonStrictness, EveryProperPrefixOfABenchReportIsRejected) {
  const TempDir dir("bench_prefix");
  bench::BenchOptions opt;
  opt.nodes = 16;
  opt.hours = 0.05;
  core::ExperimentConfig config = opt.base_config();
  config.protocol = core::ProtocolKind::kNewscast;
  const std::string path = dir.path() + "/BENCH_prefix.json";
  ASSERT_TRUE(
      bench::write_perf_json(path, "prefix", opt, {bench::timed_run(config)}));
  const auto text = sweep::read_file(path);
  ASSERT_TRUE(text.has_value());
  std::string err;
  const auto full = bench::parse_report_text(*text, &err);
  ASSERT_TRUE(full.has_value()) << err;
  EXPECT_EQ(full->nodes, 16.0);
  ASSERT_EQ(full->experiments.size(), 1u);
  EXPECT_EQ(full->experiments[0].name, "Newscast");
  const auto cuts = accepted_cuts(*text, [&](const std::string& prefix) {
    return bench::parse_report_text(prefix, nullptr).has_value();
  });
  EXPECT_EQ(cuts, whitespace_cuts(*text));
  EXPECT_EQ(cuts, std::vector<std::size_t>{text->size() - 1});
}

TEST(JsonStrictness, OrchestrateRerunsATruncatedShardAndMergesIdentically) {
  const TempDir dir("rerun");
  const sweep::SweepSpec spec = tiny_spec();
  constexpr std::size_t kShards = 3;
  sweep::OrchestrateOptions options;
  options.dir = dir.path();
  const auto first = sweep::orchestrate(spec, kShards, options);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->failed, 0u);

  const auto merged_bytes = [&]() -> std::optional<std::string> {
    std::string err;
    const auto report = sweep::merge_shards(dir.path(), spec, kShards, &err);
    const std::string path = dir.path() + "/SWEEP_merged.json";
    if (!report.has_value() ||
        !sweep::write_merged_report(path, spec, *report)) {
      return std::nullopt;
    }
    return sweep::read_file(path);
  };
  const auto before = merged_bytes();
  ASSERT_TRUE(before.has_value());

  // Cut a non-empty shard file just before its last cell's "metrics": a
  // prefix that still holds every scalar of every cell, so a reader that
  // looked fields up one by one would take it and merge without them.
  std::size_t victim = kShards;
  for (const sweep::Shard& s : sweep::partition(spec.normalized(), kShards)) {
    if (!s.cells.empty()) victim = s.id;
  }
  ASSERT_LT(victim, kShards);
  const std::string path = sweep::shard_path(dir.path(), victim);
  const auto text = sweep::read_file(path);
  ASSERT_TRUE(text.has_value());
  const std::size_t cut = text->rfind("\"metrics\"");
  ASSERT_NE(cut, std::string::npos);
  ASSERT_TRUE(sweep::write_atomic(path, text->substr(0, cut)));

  const auto second = sweep::orchestrate(spec, kShards, options);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->ran, 1u) << "exactly the truncated shard re-runs";
  EXPECT_EQ(second->skipped, kShards - 1);
  EXPECT_EQ(second->failed, 0u);
  EXPECT_TRUE(sweep::read_shard_result(path).has_value());
  EXPECT_EQ(merged_bytes(), before);
}

// ---------------------------------------------------------------------------
// The earlier byte layout: several fields per line, %.17g doubles, the
// same keys and nesting.  Both literals were written by the previous
// writers; the values asserted are the ones those files were written
// from (and the previous readers returned).
// ---------------------------------------------------------------------------

constexpr const char* kEarlierShardFile = R"({
  "sweep_shard": 1,
  "spec_fingerprint": "0123456789abcdef",
  "shard": 1,
  "shards_total": 3,
  "cells": [
    { "key": "HID-CAN/l0.5/n24/none/c0/base/r0", "group": "HID-CAN/l0.5/n24/none/c0/base", "seed": 18364758544493064720,
      "t_ratio": 0.10000000000000001, "f_ratio": 0.33333333333333331, "fairness": 0.96875,
      "msgs_per_node": 1170.203125, "avg_query_delay_s": 0.99613302814290727,
      "generated": 2373, "finished": 580, "failed": 1716,
      "events": 475769, "messages": 449358,
      "delivered": 446742, "lost": 12, "partitioned": 3,
      "stale_dead_provider": 4, "stale_misplaced": 5,
      "slot_span_ratio": 1.25,
      "wall_seconds": 0.459651,
      "lat_first_b": "5004134;7:1,31:1,144:1,307:1",
      "lat_finish_b": "1570;49:1,119:1",
      "metrics": [
        { "k": "bus.dispatch.sent", "v": 1818 },
        { "k": "quote\"back\\slash", "v": 0.5 } ],
      "series": [
        { "hour": 1, "generated": 10, "finished": 4, "failed": 1,
          "t_ratio": 0.41000000000000003, "f_ratio": 0.10000000000000001, "fairness": 0.999 },
        { "hour": 2, "generated": 20, "finished": 8, "failed": 2,
          "t_ratio": 0.42000000000000004, "f_ratio": 0.050000000000000003, "fairness": 0.998 } ] },
    { "key": "weird\"proto\\x/l0.5\tn24\n/r1", "group": "weird\"proto\\x", "seed": 0,
      "t_ratio": 0, "f_ratio": 0, "fairness": 1,
      "msgs_per_node": 0, "avg_query_delay_s": 0,
      "generated": 0, "finished": 0, "failed": 0,
      "events": 0, "messages": 0,
      "delivered": 0, "lost": 0, "partitioned": 0,
      "stale_dead_provider": 0, "stale_misplaced": 0,
      "slot_span_ratio": 1,
      "wall_seconds": 0.000000,
      "lat_first_b": "",
      "lat_finish_b": "",
      "metrics": [],
      "series": [] }
  ]
}
)";

constexpr const char* kEarlierManifest = R"({
  "sweep_manifest": 1,
  "spec_fingerprint": "abcdef0123456789",
  "spec": "sweep{p=[HID-CAN] l=[0.5] n=[24] sc=[none] c=[0] v=[base] r=2 seed=7 h=0.05}",
  "shards_total": 3,
  "shards": [
    { "id": 0, "cells": 5, "state": "done" },
    { "id": 1, "cells": 0, "state": "pending" },
    { "id": 2, "cells": 19, "state": "failed" }
  ]
}
)";

TEST(JsonCompat, EarlierLayoutShardFileReadsToTheWrittenValues) {
  const TempDir dir("earlier_shard");
  const std::string path = sweep::shard_path(dir.path(), 1);
  ASSERT_TRUE(sweep::write_atomic(path, kEarlierShardFile));
  const auto r = sweep::read_shard_result(path);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->spec_fingerprint, 0x0123456789abcdefull);
  EXPECT_EQ(r->shard_id, 1u);
  EXPECT_EQ(r->shards_total, 3u);
  ASSERT_EQ(r->cells.size(), 2u);

  const sweep::CellResult& c = r->cells[0];
  EXPECT_EQ(c.key, "HID-CAN/l0.5/n24/none/c0/base/r0");
  EXPECT_EQ(c.group, "HID-CAN/l0.5/n24/none/c0/base");
  EXPECT_EQ(c.seed, 0xfedcba9876543210ull);
  EXPECT_EQ(c.t_ratio, 0.1);
  EXPECT_EQ(c.f_ratio, 1.0 / 3.0);
  EXPECT_EQ(c.fairness, 0.96875);
  EXPECT_EQ(c.msgs_per_node, 1170.203125);
  EXPECT_EQ(c.avg_query_delay_s, 0.9961330281429073);
  EXPECT_EQ(c.generated, 2373u);
  EXPECT_EQ(c.finished, 580u);
  EXPECT_EQ(c.failed, 1716u);
  EXPECT_EQ(c.events, 475769u);
  EXPECT_EQ(c.messages, 449358u);
  EXPECT_EQ(c.messages_delivered, 446742u);
  EXPECT_EQ(c.messages_lost, 12u);
  EXPECT_EQ(c.messages_partitioned, 3u);
  EXPECT_EQ(c.stale_dead_provider, 4u);
  EXPECT_EQ(c.stale_misplaced, 5u);
  EXPECT_EQ(c.slot_span_ratio, 1.25);
  EXPECT_EQ(c.wall_seconds, 0.459651);
  EXPECT_EQ(c.latency_first_result.encode(), "5004134;7:1,31:1,144:1,307:1");
  EXPECT_EQ(c.latency_first_result.total(), 4u);
  EXPECT_EQ(c.latency_finish.encode(), "1570;49:1,119:1");
  ASSERT_EQ(c.metrics.size(), 2u);
  EXPECT_EQ(c.metrics[0].name, "bus.dispatch.sent");
  EXPECT_EQ(c.metrics[0].value, 1818.0);
  EXPECT_EQ(c.metrics[1].name, "quote\"back\\slash");
  EXPECT_EQ(c.metrics[1].value, 0.5);
  ASSERT_EQ(c.series.size(), 2u);
  EXPECT_EQ(c.series[0].hour, 1.0);
  EXPECT_EQ(c.series[0].generated, 10u);
  EXPECT_EQ(c.series[0].finished, 4u);
  EXPECT_EQ(c.series[0].failed, 1u);
  EXPECT_EQ(c.series[0].t_ratio, 0.4 + 0.01);
  EXPECT_EQ(c.series[0].f_ratio, 0.1);
  EXPECT_EQ(c.series[0].fairness, 0.999);
  EXPECT_EQ(c.series[1].hour, 2.0);
  EXPECT_EQ(c.series[1].t_ratio, 0.4 + 0.02);
  EXPECT_EQ(c.series[1].f_ratio, 0.1 / 2);

  const sweep::CellResult& e = r->cells[1];
  EXPECT_EQ(e.key, "weird\"proto\\x/l0.5\tn24\n/r1");
  EXPECT_EQ(e.group, "weird\"proto\\x");
  EXPECT_EQ(e.fairness, 1.0);
  EXPECT_EQ(e.wall_seconds, 0.0);
  EXPECT_EQ(e.latency_first_result.total(), 0u);
  EXPECT_TRUE(e.metrics.empty());
  EXPECT_TRUE(e.series.empty());
}

TEST(JsonCompat, EarlierLayoutManifestReadsToTheWrittenValues) {
  const TempDir dir("earlier_manifest");
  ASSERT_TRUE(
      sweep::write_atomic(sweep::manifest_path(dir.path()), kEarlierManifest));
  const auto m = sweep::read_manifest(dir.path());
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->spec_fingerprint, 0xabcdef0123456789ull);
  EXPECT_EQ(m->spec,
            "sweep{p=[HID-CAN] l=[0.5] n=[24] sc=[none] c=[0] v=[base] r=2 "
            "seed=7 h=0.05}");
  EXPECT_EQ(m->shards_total, 3u);
  ASSERT_EQ(m->shards.size(), 3u);
  EXPECT_EQ(m->shards[0].id, 0u);
  EXPECT_EQ(m->shards[0].cells, 5u);
  EXPECT_EQ(m->shards[0].state, "done");
  EXPECT_EQ(m->shards[1].state, "pending");
  EXPECT_EQ(m->shards[2].id, 2u);
  EXPECT_EQ(m->shards[2].cells, 19u);
  EXPECT_EQ(m->shards[2].state, "failed");
}

TEST(JsonCompat, RewritingAnEarlierShardFileKeepsEveryValue) {
  const TempDir dir("earlier_rewrite");
  const std::string path = sweep::shard_path(dir.path(), 1);
  ASSERT_TRUE(sweep::write_atomic(path, kEarlierShardFile));
  const auto earlier = sweep::read_shard_result(path);
  ASSERT_TRUE(earlier.has_value());
  ASSERT_TRUE(sweep::write_shard_result(dir.path(), *earlier));
  const auto text = sweep::read_file(path);
  ASSERT_TRUE(text.has_value());
  const auto again = sweep::read_shard_result(path);
  ASSERT_TRUE(again.has_value());
  ASSERT_TRUE(sweep::write_shard_result(dir.path(), *again));
  EXPECT_EQ(sweep::read_file(path), text) << "a fixed point after one pass";
}

}  // namespace
}  // namespace soc
