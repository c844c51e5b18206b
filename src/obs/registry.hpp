// obs::Registry — the named-metric export surface.
//
// Ad-hoc counters used to be hand-plumbed through five files to reach a
// report (struct field → results copy → JSON writer → shard writer →
// shard reader).  The registry replaces that pipeline with one step:
// subsystems register a counter, gauge-value or gauge-callback under a
// dotted name, and `snapshot()` delivers every sample, sorted by name,
// to whichever serializer asked (bench `--json`, sweep shard files).
//
// Naming convention: `<subsystem>.<object>.<measure>` in the charset
// `[A-Za-z0-9_.-]` — e.g. `bus.gossip.sent`, `index.stale_debt.peak`,
// `mem.host_table.bytes`.  sanitize() rewrites bytes outside the charset
// to '_'.  Reports store samples as {"k": name, "v": value} pairs (bench
// `--json`, sweep shard and merged files), so a name is always a string
// value, never an object key: no name, not even a schema word like
// `series` or `key`, can collide with a report field, and the
// src/common/json codec escapes whatever bytes it holds
// (obs_registry_test pins the round-trip).
//
// Determinism: every sample carries a `deterministic` flag.  Samples
// derived from simulation state (counters, slot-span ratios) are
// deterministic and may enter shard files, whose merges must stay
// byte-identical regardless of worker count; wall-clock-derived samples
// (RSS gauges, handler-time profiles) are not and are filtered out of
// any byte-compared artifact, the same regime as `wall_seconds`.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace soc::obs {

struct MetricSample {
  std::string name;
  double value = 0.0;
  bool deterministic = true;
};

class Registry {
 public:
  /// Rewrite out-of-charset bytes ([A-Za-z0-9_.-] allowed) to '_'.
  [[nodiscard]] static std::string sanitize(std::string_view name);

  /// Set a gauge to `value` (registers the name on first use).
  void set(std::string_view name, double value, bool deterministic = true);

  /// Add `delta` to a counter (registers at 0 on first use).
  void add(std::string_view name, double delta, bool deterministic = true);

  /// Register a callback evaluated at snapshot time — for values owned
  /// by a subsystem (bus counters, slab high-water marks) that should
  /// not be copied on every update.  The callback must outlive the
  /// registry or be removed with clear().
  void gauge(std::string_view name, std::function<double()> fn,
             bool deterministic = true);

  /// Every registered sample, sorted by name (std::map order), with
  /// callbacks evaluated now.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    double value = 0.0;
    std::function<double()> fn;  // wins over value when set
    bool deterministic = true;
  };

  Entry& entry(std::string_view name, bool deterministic);

  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace soc::obs
