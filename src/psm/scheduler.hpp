// Proportional-share scheduler (PSM) — the emulated Xen credit scheduler
// the paper runs on every host.
//
// Allocation follows Eq. (1): with aggregated load l = Σ e(t) over running
// tasks, task t receives r(t) = e(t)/l · c componentwise, i.e. spare
// capacity is redistributed proportionally to expectations.  Admission
// follows Inequality (2): a task is accepted only if availability
// a = c − l (after VM-maintenance overhead) still dominates its
// expectation, which guarantees r(t) ≽ e(t) for every running task at all
// times — tasks never run slower than expected once admitted.
//
// Progress is integrated piecewise: rates are constant between admissions
// and completions, so the scheduler keeps one pending completion event and
// re-derives it whenever the task set changes.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/resource_vector.hpp"
#include "src/common/types.hpp"
#include "src/psm/task.hpp"
#include "src/sim/simulator.hpp"

namespace soc::psm {

/// VM-maintenance cost per running instance, from the paper's setting
/// (derived from the virtualization study it cites): 5% CPU, 10% I/O,
/// 5% network of total capacity, plus 5 MB of memory.
struct VmOverhead {
  double cpu_fraction = 0.05;
  double io_fraction = 0.10;
  double net_fraction = 0.05;
  double memory_mb = 5.0;
};

/// Completion report passed to the finish callback.
struct CompletionInfo {
  TaskId id;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  [[nodiscard]] double exec_seconds() const {
    return to_seconds(finished_at - started_at);
  }
};

class PsmScheduler {
 public:
  using FinishCallback = std::function<void(const CompletionInfo&)>;

  PsmScheduler(sim::Simulator& sim, ResourceVector capacity,
               VmOverhead overhead = {});

  void set_finish_callback(FinishCallback cb) { on_finish_ = std::move(cb); }

  [[nodiscard]] const ResourceVector& capacity() const { return capacity_; }

  /// Capacity after VM-maintenance overhead for `instances` running VMs.
  [[nodiscard]] ResourceVector effective_capacity(
      std::size_t instances) const;

  /// Availability vector a_i = c_i − l_i, with overhead for the *current*
  /// instance count already deducted.  This is what state-update messages
  /// advertise to the overlay.
  [[nodiscard]] ResourceVector availability() const;

  /// Inequality (2) with one additional VM's overhead included: would the
  /// task still fit?
  [[nodiscard]] bool can_admit(const ResourceVector& expectation) const;

  /// Admit and start a task; returns false (and changes nothing) if
  /// Inequality (2) would be violated.
  bool admit(const TaskSpec& task);

  /// Abort a running task (e.g. the host churns out); no callback fires.
  /// Returns the spec so the caller can resubmit/fail it, or nullopt.
  std::optional<TaskSpec> abort(TaskId id);

  /// Remaining workload of a running task, progress integrated up to now —
  /// the snapshot the checkpointing extension persists.  Nullopt when the
  /// task is not running here.
  std::optional<std::array<double, kRateDims>> remaining_of(TaskId id);

  /// Snapshot of one running task (spec + remaining work).
  struct Progress {
    TaskSpec spec;
    std::array<double, kRateDims> remaining{};
  };
  /// Abort everything, reporting progress (checkpoint-restart on host
  /// departure).  No finish callbacks fire.
  std::vector<Progress> abort_all_with_progress();

  [[nodiscard]] std::size_t running_count() const { return running_.size(); }
  [[nodiscard]] bool is_running(TaskId id) const {
    return running_.contains(id);
  }

  /// Eq. (1) allocation currently granted to a running task.
  [[nodiscard]] ResourceVector allocation_of(TaskId id) const;

  /// Aggregated expectation load l of the running set.
  [[nodiscard]] ResourceVector load() const { return load_; }

 private:
  struct Running {
    TaskSpec spec;
    std::array<double, kRateDims> remaining{};
    SimTime started_at = 0;
  };

  /// Integrate progress from last_progress_ to now at current rates.
  void integrate_progress();
  /// Recompute the next completion event after any change.
  void reschedule();
  void on_completion_event();
  [[nodiscard]] ResourceVector rates_for(const Running& r) const;

  sim::Simulator& sim_;
  ResourceVector capacity_;
  VmOverhead overhead_;
  FinishCallback on_finish_;

  std::unordered_map<TaskId, Running> running_;
  ResourceVector load_;  // Σ expectations of running tasks
  SimTime last_progress_ = 0;
  sim::EventHandle pending_completion_;
};

}  // namespace soc::psm
