// The discrete-event simulator: a clock plus the event queue plus helpers
// for periodic processes.  Replaces PeerSim's event-driven engine used by
// the paper's evaluation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"
#include "src/sim/event_queue.hpp"

namespace soc::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  [[nodiscard]] SimTime now() const { return now_; }

  /// Root RNG for the run; components should fork named streams from it.
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedule fn at absolute time `at`.  Checked: `at` must be >= now and
  /// strictly before kSimTimeNever (the "no pending event" sentinel must
  /// never appear as a real event time).
  EventHandle schedule_at(SimTime at, EventFn&& fn);
  /// Schedule fn after a non-negative delay.
  EventHandle schedule_after(SimTime delay, EventFn&& fn);
  bool cancel(EventHandle h);

  /// Schedule fn every `period`, first firing after `phase` (defaults to a
  /// full period).  The callback may return false to stop the series.
  /// Jitter (fraction of the period, drawn per firing) desynchronizes the
  /// thousands of per-node maintenance loops like a real deployment.
  /// The returned handle is the *first* firing's: cancelling it before
  /// that firing stops the series; once it has fired, cancel() returns
  /// false and the series runs on until the callback returns false.
  EventHandle schedule_periodic(SimTime period, std::function<bool()> fn,
                                SimTime phase = -1, double jitter = 0.0);

  /// Run until the queue drains or `until` is reached (events strictly after
  /// `until` stay queued).  Returns the number of events executed.
  std::uint64_t run_until(SimTime until);
  /// Run until the queue is empty.
  std::uint64_t run_all();

  /// Execute exactly one event if any is pending before `until`.
  bool step(SimTime until = kSimTimeNever);

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Event-queue storage footprint (attribution-profiler hook).
  [[nodiscard]] std::size_t queue_mem_bytes() const {
    return queue_.mem_bytes();
  }

  /// Event-queue slab/heap sanity oracle (sim_fuzz); see
  /// EventQueue::verify_integrity.
  [[nodiscard]] bool verify_queue_integrity() const {
    return queue_.verify_integrity();
  }

 private:
  struct PeriodicState;
  void fire_periodic(std::shared_ptr<PeriodicState> state);

  SimTime now_ = 0;
  EventQueue queue_;
  Rng rng_;
  std::uint64_t executed_ = 0;
};

}  // namespace soc::sim
