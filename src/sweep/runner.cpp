#include "src/sweep/runner.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

#include "src/obs/trace.hpp"
#include "src/sweep/io.hpp"

namespace soc::sweep {

namespace {

/// CellResult's scalars, listed once: the shard-file key of each and the
/// ExperimentResults field run_shard copies it from (nullptr for the cell
/// seed and wall_seconds, which run_shard sets itself).  run_shard, the
/// shard writer and the shard reader all walk these two tables.
template <typename T>
struct Scalar {
  const char* key;
  T CellResult::*cell;
  T core::ExperimentResults::*from;
};

using C = CellResult;
using R = core::ExperimentResults;

constexpr Scalar<std::uint64_t> kCounts[] = {
    {"seed", &C::seed, nullptr},
    {"generated", &C::generated, &R::generated},
    {"finished", &C::finished, &R::finished},
    {"failed", &C::failed, &R::failed},
    {"events", &C::events, &R::events_executed},
    {"messages", &C::messages, &R::total_messages},
    {"delivered", &C::messages_delivered, &R::messages_delivered},
    {"lost", &C::messages_lost, &R::messages_lost},
    {"partitioned", &C::messages_partitioned, &R::messages_partitioned},
    {"stale_dead_provider", &C::stale_dead_provider,
     &R::stale_records_dead_provider},
    {"stale_misplaced", &C::stale_misplaced, &R::stale_records_misplaced},
};

constexpr Scalar<double> kReals[] = {
    {"t_ratio", &C::t_ratio, &R::t_ratio},
    {"f_ratio", &C::f_ratio, &R::f_ratio},
    {"fairness", &C::fairness, &R::fairness},
    {"msgs_per_node", &C::msgs_per_node, &R::msg_cost_per_node},
    {"avg_query_delay_s", &C::avg_query_delay_s, &R::avg_query_delay_s},
    {"slot_span_ratio", &C::slot_span_ratio, &R::slot_span_ratio},
    {"wall_seconds", &C::wall_seconds, nullptr},
};

json::Value cell_json(const CellResult& c) {
  json::Object out{{"key", c.key}, {"group", c.group}};
  for (const auto& s : kCounts) out.emplace_back(s.key, c.*s.cell);
  for (const auto& s : kReals) out.emplace_back(s.key, c.*s.cell);
  out.emplace_back("lat_first_b", c.latency_first_result.encode());
  out.emplace_back("lat_finish_b", c.latency_finish.encode());
  json::Array pairs;
  for (const obs::MetricSample& m : c.metrics) {
    pairs.push_back(json::Object{{"k", m.name}, {"v", m.value}});
  }
  json::Array samples;
  for (const metrics::SeriesSample& p : c.series) {
    samples.push_back(json::Object{
        {"hour", p.hour}, {"generated", p.generated},
        {"finished", p.finished}, {"failed", p.failed},
        {"t_ratio", p.t_ratio}, {"f_ratio", p.f_ratio},
        {"fairness", p.fairness}});
  }
  out.emplace_back("metrics", std::move(pairs));
  out.emplace_back("series", std::move(samples));
  return out;
}

std::optional<CellResult> cell_from_json(const json::Value& v) {
  json::Fields f(v);
  CellResult c;
  c.key = f.str("key");
  c.group = f.str("group");
  for (const auto& s : kCounts) c.*s.cell = f.u64(s.key);
  for (const auto& s : kReals) c.*s.cell = f.f64(s.key);
  if (!c.latency_first_result.merge_encoded(f.str("lat_first_b")) ||
      !c.latency_finish.merge_encoded(f.str("lat_finish_b"))) {
    return std::nullopt;
  }
  for (const json::Value& m : f.array("metrics")) {
    json::Fields p(m);
    c.metrics.push_back(obs::MetricSample{p.str("k"), p.f64("v"), true});
    if (!p.ok()) return std::nullopt;
  }
  for (const json::Value& sample : f.array("series")) {
    json::Fields p(sample);
    metrics::SeriesSample s;
    s.hour = p.f64("hour");
    s.generated = p.u64("generated");
    s.finished = p.u64("finished");
    s.failed = p.u64("failed");
    s.t_ratio = p.f64("t_ratio");
    s.f_ratio = p.f64("f_ratio");
    s.fairness = p.f64("fairness");
    if (!p.ok()) return std::nullopt;
    c.series.push_back(s);
  }
  if (!f.ok()) return std::nullopt;
  return c;
}

}  // namespace

ShardResult run_shard(const Shard& shard, std::uint64_t spec_fingerprint,
                      std::size_t shards_total) {
  ShardResult result;
  result.spec_fingerprint = spec_fingerprint;
  result.shard_id = shard.id;
  result.shards_total = shards_total;
  result.cells.reserve(shard.cells.size());
  for (const SweepCell& cell : shard.cells) {
    // One trace lane per cell: task/query span ids restart per experiment,
    // so sharing a lane would pair spans across unrelated cells.  Lane pids
    // come from the tracer's own counter so local mode (many shards, one
    // process) keeps them unique.
    if (obs::Tracer* t = obs::tracer()) {
      t->set_lane(static_cast<std::uint32_t>(t->lane_count()), cell.key);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const core::ExperimentResults r = core::run_experiment(cell.config);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    CellResult out;
    out.key = cell.key;
    out.group = cell.group;
    const auto copy = [&](const auto& table) {
      for (const auto& s : table) {
        if (s.from != nullptr) out.*s.cell = r.*s.from;
      }
    };
    copy(kCounts);
    copy(kReals);
    out.seed = cell.config.seed;
    out.wall_seconds = dt.count();
    out.series = r.series;
    out.latency_first_result = r.latency_first_result;
    out.latency_finish = r.latency_finish;
    for (const obs::MetricSample& m : r.metrics) {
      if (m.deterministic) out.metrics.push_back(m);
    }
    result.cells.push_back(std::move(out));
  }
  return result;
}

bool write_shard_result(const std::string& dir, const ShardResult& result) {
  json::Array cells;
  for (const CellResult& c : result.cells) cells.push_back(cell_json(c));
  return json::save(shard_path(dir, result.shard_id),
                    json::Object{{"sweep_shard", std::uint64_t{1}},
                                 {"spec_fingerprint",
                                  fingerprint_hex(result.spec_fingerprint)},
                                 {"shard", result.shard_id},
                                 {"shards_total", result.shards_total},
                                 {"cells", std::move(cells)}});
}

std::optional<ShardResult> read_shard_result(const std::string& path) {
  const auto doc = json::load(path);
  if (!doc.has_value()) return std::nullopt;
  json::Fields f(*doc);
  ShardResult r;
  const auto fp = parse_fingerprint_hex(f.str("spec_fingerprint"));
  r.shard_id = f.u64("shard");
  r.shards_total = f.u64("shards_total");
  for (const json::Value& v : f.array("cells")) {
    auto c = cell_from_json(v);
    if (!c.has_value()) return std::nullopt;
    r.cells.push_back(std::move(*c));
  }
  if (f.u64("sweep_shard") != 1 || !fp.has_value() || !f.ok()) {
    return std::nullopt;
  }
  r.spec_fingerprint = *fp;
  return r;
}

bool shard_result_valid(const ShardResult& result, const Shard& shard,
                        std::uint64_t spec_fingerprint,
                        std::size_t shards_total) {
  if (result.spec_fingerprint != spec_fingerprint ||
      result.shard_id != shard.id || result.shards_total != shards_total ||
      result.cells.size() != shard.cells.size()) {
    return false;
  }
  for (std::size_t i = 0; i < shard.cells.size(); ++i) {
    if (result.cells[i].key != shard.cells[i].key) return false;
  }
  return true;
}

bool shard_complete(const std::string& dir, const Shard& shard,
                    std::uint64_t spec_fingerprint,
                    std::size_t shards_total) {
  const auto result = read_shard_result(shard_path(dir, shard.id));
  return result.has_value() &&
         shard_result_valid(*result, shard, spec_fingerprint, shards_total);
}

std::vector<std::size_t> pending_shards(const std::string& dir,
                                        const std::vector<Shard>& shards,
                                        std::uint64_t spec_fingerprint) {
  std::vector<std::size_t> pending;
  for (const Shard& shard : shards) {
    if (!shard_complete(dir, shard, spec_fingerprint, shards.size())) {
      pending.push_back(shard.id);
    }
  }
  return pending;
}

namespace {

/// Spawn `worker_binary --mode=worker --dir=D --shards=N --shard=K <spec>`.
/// Returns the child pid, or -1.
pid_t spawn_worker(const std::string& worker_binary, const SweepSpec& spec,
                   const std::string& dir, std::size_t shards_total,
                   std::size_t shard_id) {
  std::vector<std::string> args{
      worker_binary, "--mode=worker", "--dir=" + dir,
      "--shards=" + std::to_string(shards_total),
      "--shard=" + std::to_string(shard_id)};
  for (std::string& a : spec.to_args()) args.push_back(std::move(a));

  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    execv(argv[0], argv.data());
    std::fprintf(stderr, "sweep: execv %s failed: %s\n", argv[0],
                 std::strerror(errno));
    _exit(127);
  }
  return pid;
}

}  // namespace

std::optional<OrchestrateOutcome> orchestrate(
    const SweepSpec& spec, std::size_t shards_total,
    const OrchestrateOptions& options) {
  const SweepSpec norm = spec.normalized();
  const std::uint64_t fp = norm.fingerprint();
  const std::vector<Shard> shards = partition(norm, shards_total);

  // A directory already carrying a different sweep's manifest is a user
  // error (mixing two sweeps' shard files would merge garbage).
  if (!dir_matches_sweep(options.dir, fp, shards_total)) return std::nullopt;

  Manifest manifest;
  manifest.spec_fingerprint = fp;
  manifest.spec = norm.describe();
  manifest.shards_total = shards_total;
  manifest.shards.resize(shards_total);

  OrchestrateOutcome outcome;
  std::vector<std::size_t> queue;
  for (const Shard& shard : shards) {
    ShardStatus& st = manifest.shards[shard.id];
    st.id = shard.id;
    st.cells = shard.cells.size();
    if (shard_complete(options.dir, shard, fp, shards_total)) {
      st.state = "done";  // resume: finished before a previous crash
      ++outcome.skipped;
    } else if (shard.cells.empty()) {
      // Nothing to compute — complete it inline instead of spawning a
      // process to do nothing.
      ShardResult empty;
      empty.spec_fingerprint = fp;
      empty.shard_id = shard.id;
      empty.shards_total = shards_total;
      const bool ok = write_shard_result(options.dir, empty);
      st.state = ok ? "done" : "failed";
      ok ? ++outcome.ran : ++outcome.failed;
    } else {
      st.state = "pending";
      queue.push_back(shard.id);
    }
  }
  if (!write_manifest(options.dir, manifest)) {
    std::fprintf(stderr, "sweep: cannot write manifest in %s\n",
                 options.dir.c_str());
    return std::nullopt;
  }

  const auto finish_shard = [&](std::size_t sid, bool worker_ok) {
    const bool done = worker_ok &&
                      shard_complete(options.dir, shards[sid], fp,
                                     shards_total);
    manifest.shards[sid].state = done ? "done" : "failed";
    done ? ++outcome.ran : ++outcome.failed;
    if (!done) {
      std::fprintf(stderr, "sweep: shard %zu failed%s\n", sid,
                   worker_ok ? " (invalid result file)" : "");
    }
    write_manifest(options.dir, manifest);
  };

  if (options.worker_binary.empty()) {
    // In-process reference path: sequential, deterministic order.
    for (const std::size_t sid : queue) {
      const ShardResult result = run_shard(shards[sid], fp, shards_total);
      finish_shard(sid, write_shard_result(options.dir, result));
    }
    return outcome;
  }

  std::map<pid_t, std::size_t> running;
  std::size_t next = 0;
  const std::size_t workers = options.workers > 0 ? options.workers : 1;
  while (next < queue.size() || !running.empty()) {
    while (next < queue.size() && running.size() < workers) {
      const std::size_t sid = queue[next++];
      const pid_t pid = spawn_worker(options.worker_binary, norm, options.dir,
                                     shards_total, sid);
      if (pid < 0) {
        finish_shard(sid, false);
        continue;
      }
      running.emplace(pid, sid);
    }
    if (running.empty()) continue;
    int status = 0;
    const pid_t pid = waitpid(-1, &status, 0);
    if (pid < 0) break;
    const auto it = running.find(pid);
    if (it == running.end()) continue;
    const std::size_t sid = it->second;
    running.erase(it);
    finish_shard(sid, WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  return outcome;
}

}  // namespace soc::sweep
