#include "src/sweep/merge.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/common/stats.hpp"
#include "src/sweep/io.hpp"

namespace soc::sweep {

std::optional<MergedReport> merge_shards(const std::string& dir,
                                         const SweepSpec& spec,
                                         std::size_t shards_total,
                                         std::string* err) {
  const SweepSpec norm = spec.normalized();
  const std::uint64_t fp = norm.fingerprint();
  const std::vector<Shard> shards = partition(norm, shards_total);

  MergedReport report;
  report.spec_fingerprint = fp;
  report.shards_total = shards_total;
  for (const Shard& shard : shards) {
    const auto result = read_shard_result(shard_path(dir, shard.id));
    if (!result.has_value() ||
        !shard_result_valid(*result, shard, fp, shards_total)) {
      if (err != nullptr) {
        *err = "shard " + std::to_string(shard.id) + " missing or invalid in " +
               dir;
      }
      return std::nullopt;
    }
    for (const CellResult& c : result->cells) report.cells.push_back(c);
  }

  // Canonical order: shard layout must not leak into the merged bytes.
  std::sort(report.cells.begin(), report.cells.end(),
            [](const CellResult& a, const CellResult& b) {
              return a.key < b.key;
            });

  // Group by `group` preserving first-appearance order of the sorted cells
  // (i.e. the normalized grid order, repeats collapsed).
  std::map<std::string, std::size_t> index_of;
  std::vector<std::vector<const CellResult*>> buckets;
  std::vector<std::string> order;
  for (const CellResult& c : report.cells) {
    const auto [it, inserted] = index_of.emplace(c.group, buckets.size());
    if (inserted) {
      buckets.emplace_back();
      order.push_back(c.group);
    }
    buckets[it->second].push_back(&c);
  }

  for (std::size_t g = 0; g < buckets.size(); ++g) {
    GroupStats s;
    s.group = order[g];
    s.repeats = buckets[g].size();
    RunningStats t, f, fair, mpn, delay;
    RunningStats p99_first, p99_finish;
    std::vector<double> ts, fs;
    std::map<std::string, RunningStats> metric_folds;
    for (const CellResult* c : buckets[g]) {
      t.add(c->t_ratio);
      f.add(c->f_ratio);
      fair.add(c->fairness);
      mpn.add(c->msgs_per_node);
      delay.add(c->avg_query_delay_s);
      ts.push_back(c->t_ratio);
      fs.push_back(c->f_ratio);
      s.generated += c->generated;
      s.finished += c->finished;
      s.failed += c->failed;
      s.events += c->events;
      s.messages += c->messages;
      s.messages_partitioned += c->messages_partitioned;
      s.stale_dead_provider += c->stale_dead_provider;
      s.stale_misplaced += c->stale_misplaced;
      s.slot_span_ratio_max = std::max(s.slot_span_ratio_max,
                                       c->slot_span_ratio);
      s.latency_first_result.merge(c->latency_first_result);
      s.latency_finish.merge(c->latency_finish);
      // The CI is over per-repeat tail estimates; a repeat with no queries
      // has no tail to estimate and contributes nothing.
      if (c->latency_first_result.total() > 0) {
        p99_first.add(c->latency_first_result.percentile_s(99.0));
      }
      if (c->latency_finish.total() > 0) {
        p99_finish.add(c->latency_finish.percentile_s(99.0));
      }
      for (const obs::MetricSample& m : c->metrics) {
        metric_folds[m.name].add(m.value);
      }
    }
    // std::map iteration gives the name-sorted order the report writer
    // needs for byte-determinism.
    for (const auto& [name, fold] : metric_folds) {
      s.metrics_mean.push_back(
          obs::MetricSample{name, fold.mean(), /*deterministic=*/true});
    }
    s.t_ratio_mean = t.mean();
    s.t_ratio_median = median(ts);
    s.t_ratio_ci95 = mean_ci95_halfwidth(t.count(), t.stddev());
    s.f_ratio_mean = f.mean();
    s.f_ratio_median = median(fs);
    s.f_ratio_ci95 = mean_ci95_halfwidth(f.count(), f.stddev());
    s.fairness_mean = fair.mean();
    s.fairness_ci95 = mean_ci95_halfwidth(fair.count(), fair.stddev());
    s.msgs_per_node_mean = mpn.mean();
    s.avg_query_delay_s_mean = delay.mean();
    s.latency_first_p99_ci95 =
        mean_ci95_halfwidth(p99_first.count(), p99_first.stddev());
    s.latency_finish_p99_ci95 =
        mean_ci95_halfwidth(p99_finish.count(), p99_finish.stddev());
    // Fold the repeats' hour-by-hour series index-by-index.  Repeats of a
    // group share a sampling cadence (same config except seed), but a
    // repeat's series can still be shorter; a missing sample reduces that
    // point's `repeats` count instead of contributing a padded 0.0.
    std::size_t longest = 0;
    for (const CellResult* c : buckets[g]) {
      longest = std::max(longest, c->series.size());
    }
    for (std::size_t idx = 0; idx < longest; ++idx) {
      GroupSeriesPoint p;
      RunningStats t_s, f_s, fair_s;
      for (const CellResult* c : buckets[g]) {
        if (idx >= c->series.size()) continue;
        const metrics::SeriesSample& sample = c->series[idx];
        if (p.repeats == 0) p.hour = sample.hour;
        ++p.repeats;
        t_s.add(sample.t_ratio);
        f_s.add(sample.f_ratio);
        fair_s.add(sample.fairness);
      }
      p.t_ratio_mean = t_s.mean();
      p.f_ratio_mean = f_s.mean();
      p.fairness_mean = fair_s.count() > 0 ? fair_s.mean() : 1.0;
      s.series.push_back(p);
    }
    report.groups.push_back(std::move(s));
  }
  return report;
}

bool write_merged_report(const std::string& path, const SweepSpec& spec,
                         const MergedReport& report) {
  const SweepSpec norm = spec.normalized();
  json::Array experiments;
  for (const GroupStats& s : report.groups) {
    json::Object first = s.latency_first_result.summary_json();
    json::Object finish = s.latency_finish.summary_json();
    first.emplace_back("p99_ci95", s.latency_first_p99_ci95);
    finish.emplace_back("p99_ci95", s.latency_finish_p99_ci95);
    json::Array pairs;
    for (const obs::MetricSample& m : s.metrics_mean) {
      pairs.push_back(json::Object{{"k", m.name}, {"v", m.value}});
    }
    json::Array points;
    for (const GroupSeriesPoint& p : s.series) {
      points.push_back(json::Object{
          {"hour", p.hour}, {"repeats", p.repeats}, {"t_ratio", p.t_ratio_mean},
          {"f_ratio", p.f_ratio_mean}, {"fairness", p.fairness_mean}});
    }
    // Zeroed wall/rate fields: deterministic bytes, schema-compatible with
    // bench_compare (which treats a 0 baseline rate as ratio 1.0).
    experiments.push_back(json::Object{
        {"name", s.group}, {"wall_seconds", 0.0}, {"events", s.events},
        {"events_per_sec", 0.0}, {"messages", s.messages},
        {"messages_per_sec", 0.0}, {"repeats", s.repeats},
        {"t_ratio_mean", s.t_ratio_mean}, {"t_ratio_median", s.t_ratio_median},
        {"t_ratio_ci95", s.t_ratio_ci95}, {"f_ratio_mean", s.f_ratio_mean},
        {"f_ratio_median", s.f_ratio_median}, {"f_ratio_ci95", s.f_ratio_ci95},
        {"fairness_mean", s.fairness_mean}, {"fairness_ci95", s.fairness_ci95},
        {"msgs_per_node_mean", s.msgs_per_node_mean},
        {"avg_query_delay_s_mean", s.avg_query_delay_s_mean},
        {"generated", s.generated}, {"finished", s.finished},
        {"failed", s.failed}, {"messages_partitioned", s.messages_partitioned},
        {"stale_dead_provider", s.stale_dead_provider},
        {"stale_misplaced", s.stale_misplaced},
        {"slot_span_ratio", s.slot_span_ratio_max},
        {"latency", json::Object{{"first_result", std::move(first)},
                                 {"finish", std::move(finish)}}},
        {"metrics", std::move(pairs)},
        {"series", std::move(points)}});
  }
  // BENCH-schema header.  nodes/hours let bench_compare verify two merged
  // reports describe comparable runs; nodes is 0 because the grid spans
  // several populations (the spec string carries the real axes).
  return json::save(
      path, json::Object{{"bench", "sweep"}, {"nodes", std::uint64_t{0}},
                         {"hours", norm.hours}, {"seed", norm.base_seed},
                         {"full", false}, {"spec", norm.describe()},
                         {"spec_fingerprint",
                          fingerprint_hex(report.spec_fingerprint)},
                         {"shards_total", report.shards_total},
                         {"cells", report.cells.size()},
                         {"experiments", std::move(experiments)}});
}

namespace {

/// Column labels for the figure tables: drop the '/'-separated key
/// components every group shares (the constant axes of the grid), keep
/// the ones that distinguish the columns.  "sid-can/l0.5/n384/none/c0/base"
/// vs "newscast/l0.5/n384/none/c0/base" → "sid-can" vs "newscast".
std::vector<std::string> column_labels(const MergedReport& report) {
  std::vector<std::vector<std::string>> parts;
  for (const GroupStats& g : report.groups) {
    std::vector<std::string> p;
    std::size_t start = 0;
    while (start <= g.group.size()) {
      const std::size_t slash = g.group.find('/', start);
      const std::size_t end = slash == std::string::npos ? g.group.size()
                                                         : slash;
      p.push_back(g.group.substr(start, end - start));
      if (slash == std::string::npos) break;
      start = slash + 1;
    }
    parts.push_back(std::move(p));
  }
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    std::string label;
    for (std::size_t c = 0; c < parts[i].size(); ++c) {
      bool constant = true;
      for (const auto& other : parts) {
        if (c >= other.size() || other[c] != parts[i][c]) {
          constant = false;
          break;
        }
      }
      if (constant && parts.size() > 1) continue;
      if (!label.empty()) label += '/';
      label += parts[i][c];
    }
    // Every component constant (single group, or duplicates): fall back to
    // the full key so the column is still named.
    if (label.empty()) label = report.groups[i].group;
    labels.push_back(std::move(label));
  }
  return labels;
}

}  // namespace

void print_series_tables(const MergedReport& report) {
  std::size_t rows = 0;
  for (const GroupStats& g : report.groups) {
    rows = std::max(rows, g.series.size());
  }
  if (rows == 0) {
    std::printf("\n(no hour-by-hour series in this sweep's cells)\n");
    return;
  }
  const std::vector<std::string> labels = column_labels(report);
  struct Metric {
    const char* title;
    double GroupSeriesPoint::* value;
  };
  const Metric metrics[] = {{"T-Ratio", &GroupSeriesPoint::t_ratio_mean},
                            {"F-Ratio", &GroupSeriesPoint::f_ratio_mean},
                            {"fairness", &GroupSeriesPoint::fairness_mean}};
  for (const Metric& m : metrics) {
    std::printf("\n## %s by simulated hour\n%6s", m.title, "hour");
    for (const std::string& label : labels) {
      std::printf(" %14s", label.c_str());
    }
    std::printf("\n");
    for (std::size_t row = 0; row < rows; ++row) {
      // The hour label comes from the first group that sampled this index
      // (all groups of a sweep share the sampling cadence).
      double hour = 0.0;
      for (const GroupStats& g : report.groups) {
        if (row < g.series.size()) {
          hour = g.series[row].hour;
          break;
        }
      }
      std::printf("%6.2f", hour);
      for (const GroupStats& g : report.groups) {
        if (row >= g.series.size()) {
          // Missing sample: marked, never padded with 0.0 — a padded zero
          // is indistinguishable from a protocol genuinely at the floor.
          std::printf(" %14s", "-");
          continue;
        }
        const GroupSeriesPoint& pt = g.series[row];
        char cell[32];
        std::snprintf(cell, sizeof(cell), "%.3f%s",
                      pt.*(m.value),
                      pt.repeats < g.repeats ? "*" : "");
        std::printf(" %14s", cell);
      }
      std::printf("\n");
    }
  }
  std::printf("\n(\"-\" = no sample at that hour; \"*\" = only some repeats "
              "reached it)\n");
}

void print_merged_table(const MergedReport& report) {
  std::printf("\n## merged sweep (%zu cells, %zu groups, %zu shards)\n",
              report.cells.size(), report.groups.size(), report.shards_total);
  std::printf("%-34s %4s %18s %18s %9s %12s %12s\n", "config", "rep",
              "T-Ratio (±95%)", "F-Ratio (±95%)", "fairness", "msgs/node",
              "stale-debt");
  for (const GroupStats& s : report.groups) {
    std::printf("%-34s %4zu %9.3f ±%6.3f %9.3f ±%6.3f %9.3f %12.0f %12llu\n",
                s.group.c_str(), s.repeats, s.t_ratio_mean, s.t_ratio_ci95,
                s.f_ratio_mean, s.f_ratio_ci95, s.fairness_mean,
                s.msgs_per_node_mean,
                static_cast<unsigned long long>(s.stale_dead_provider +
                                                s.stale_misplaced));
  }
  bool any_latency = false;
  for (const GroupStats& s : report.groups) {
    if (s.latency_first_result.total() > 0 || s.latency_finish.total() > 0) {
      any_latency = true;
      break;
    }
  }
  if (!any_latency) return;
  std::printf("\n## per-query latency, seconds "
              "(first = submit to first qualified result; "
              "finish = submit to completion)\n");
  std::printf("%-34s %9s %8s %8s %8s %10s %8s %8s\n", "config", "queries",
              "fst p50", "fst p99", "±p99CI", "fin p50", "fin p99",
              "fin p999");
  for (const GroupStats& s : report.groups) {
    std::printf("%-34s %9llu %8.3f %8.3f %8.3f %10.3f %8.3f %8.3f\n",
                s.group.c_str(),
                static_cast<unsigned long long>(s.latency_first_result.total()),
                s.latency_first_result.percentile_s(50.0),
                s.latency_first_result.percentile_s(99.0),
                s.latency_first_p99_ci95,
                s.latency_finish.percentile_s(50.0),
                s.latency_finish.percentile_s(99.0),
                s.latency_finish.percentile_s(99.9));
  }
}

}  // namespace soc::sweep
