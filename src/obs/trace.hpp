// obs::Tracer — per-query lifecycle spans and phase markers, exported as
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Design constraints, in order:
//   1. Pure observer.  The tracer draws no RNG, schedules no events, and
//      never influences iteration order; goldens, fingerprints and
//      BENCH_baseline.json are byte-identical with tracing on or off
//      (pinned by obs_trace_test).  Event ids are logical (task/query
//      sequence numbers), never pointers.
//   2. Zero cost when off.  The global sink is a nullable pointer; every
//      hot-path hook is `if (Tracer* t = obs::tracer()) ...` — one load
//      and one predictable branch when tracing is disabled (guarded by
//      the BM_TracerOff microbenchmark).
//   3. Deterministic output.  Timestamps are simulated time (SimTime is
//      integer microseconds, which is exactly the trace-event `ts` unit),
//      so the trace file for a given seed is bit-identical run to run.
//
// Events are buffered in chunked slab storage (std::deque: no wholesale
// reallocation-copy as the buffer grows) holding fixed-size records whose
// category/name/argument-key strings must be string literals (the tracer
// stores the pointers, it does not copy).  export_json() writes one event
// per line, each through the src/common/json writer (so lane names are
// escaped), via tmp+rename, the same atomic-publish discipline as the
// sweep shard files.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.hpp"

namespace soc::obs {

class Tracer {
 public:
  /// Switch the current lane (trace-event `pid`): subsequent events are
  /// attributed to it.  `name` labels the lane in the Perfetto process
  /// track (emitted as a process_name metadata event once per lane);
  /// unlike event cat/name strings it is copied, so dynamic labels
  /// (protocol names, sweep cell keys) are safe.
  void set_lane(std::uint32_t pid, std::string name);

  /// Async span begin/end ("b"/"e"): Perfetto pairs them by (cat, id) and
  /// nests them under the lane's track.  `id` must be a logical counter
  /// (task seq, query id), never a pointer.
  void begin(const char* cat, const char* name, std::uint64_t id, SimTime ts);
  void end(const char* cat, const char* name, std::uint64_t id, SimTime ts);

  /// Async instant ("n") attached to the (cat, id) span — e.g. the
  /// first-result moment inside a query span.
  void mark(const char* cat, const char* name, std::uint64_t id, SimTime ts);

  /// Free-standing instant ("i", process scope): phase markers such as
  /// partition start/heal.  Optional single numeric argument.
  void instant(const char* cat, const char* name, SimTime ts);
  void instant(const char* cat, const char* name, SimTime ts,
               const char* arg_key, std::uint64_t arg);

  /// Complete event ("X"): a span whose duration is known at emit time
  /// (e.g. a finished probe walk).  Optional single numeric argument.
  void complete(const char* cat, const char* name, SimTime ts, SimTime dur);
  void complete(const char* cat, const char* name, SimTime ts, SimTime dur,
                const char* arg_key, std::uint64_t arg);

  [[nodiscard]] std::size_t event_count() const { return events_.size(); }

  /// Registered lane count — the next free pid for callers that allocate
  /// lanes sequentially (e.g. one per sweep cell across several shards).
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }

  /// Count of events whose ph is `ph` (test hook).
  [[nodiscard]] std::size_t count_ph(char ph) const;

  /// Serialize all buffered events as Chrome trace-event JSON, one event
  /// object per line.  Written to `path + ".tmp"` then renamed — partial
  /// files are never observable.  Returns false on I/O failure.
  [[nodiscard]] bool export_json(const std::string& path) const;

  /// The serialized JSON (export_json minus the file I/O; test hook).
  [[nodiscard]] std::string to_json() const;

 private:
  struct Event {
    char ph = 'i';               // b / e / n / i / X
    std::uint32_t pid = 0;       // lane
    const char* cat = nullptr;   // literal
    const char* name = nullptr;  // literal
    const char* arg_key = nullptr;  // literal or nullptr
    std::uint64_t id = 0;        // async-span id (b/e/n only)
    std::int64_t ts = 0;         // simulated µs
    std::int64_t dur = 0;        // X only
    std::uint64_t arg = 0;       // arg_key's value
  };

  void push(Event e);

  std::deque<Event> events_;
  std::vector<std::pair<std::uint32_t, std::string>> lanes_;
  std::uint32_t pid_ = 0;
};

/// The process-global sink: nullptr when tracing is off (the common
/// case — hooks cost one load + branch).  Not thread-safe by design:
/// experiments are single-threaded and sweep workers are separate
/// processes.
[[nodiscard]] Tracer* tracer();

/// Install (or, with nullptr, remove) the global sink.  Returns the
/// previous sink so scoped users can restore it.
Tracer* install_tracer(Tracer* t);

}  // namespace soc::obs
