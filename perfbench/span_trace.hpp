// Host-time span recorder for the benchmark's traced pass, exported as
// Chrome trace-event JSON (open in Perfetto or chrome://tracing).
//
// The simulator's own obs::Tracer stamps events with *simulated* time; this
// recorder stamps them with host time, so a span's duration is what the
// layer under it cost.  Spans are "X" (complete) events on one thread:
// Perfetto nests them by time containment, which gives the tree
// workload > repeat > setup / run / results / check, with one span per
// simulated hour under run.  Spans are kept in memory and written once at
// the end, so recording costs two clock reads per span.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanTrace {
 public:
  using Args = std::vector<std::pair<std::string, double>>;

  /// Open a span; returns its handle for end().
  std::size_t begin(std::string name) {
    spans_.push_back(Span{std::move(name), now_us(), -1.0, {}});
    return spans_.size() - 1;
  }

  /// Close a span, attaching numeric arguments (shown in the span's
  /// details pane).
  void end(std::size_t handle, Args args = {}) {
    Span& s = spans_[handle];
    s.dur_us = now_us() - s.ts_us;
    s.args = std::move(args);
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Write every closed span; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    for (const Span& s : spans_) {
      if (s.dur_us < 0.0) continue;
      std::fprintf(f,
                   "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"perfbench\","
                   "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                   first ? "" : ",\n", s.name.c_str(), s.ts_us, s.dur_us);
      for (std::size_t i = 0; i < s.args.size(); ++i) {
        std::fprintf(f, "%s\"%s\":%.17g", i > 0 ? "," : "",
                     s.args[i].first.c_str(), s.args[i].second);
      }
      std::fprintf(f, "}}");
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;  // caller-controlled ASCII; never escaped
    double ts_us;
    double dur_us;  // < 0 while open
    Args args;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
