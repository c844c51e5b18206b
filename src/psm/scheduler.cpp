#include "src/psm/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace soc::psm {

namespace {
constexpr double kEps = 1e-9;
}

PsmScheduler::PsmScheduler(sim::Simulator& sim, ResourceVector capacity,
                           VmOverhead overhead)
    : sim_(sim), capacity_(std::move(capacity)), overhead_(overhead),
      load_(capacity_.size()), last_progress_(sim.now()) {
  SOC_CHECK(capacity_.size() == kDims);
  SOC_CHECK(capacity_.non_negative());
}

ResourceVector PsmScheduler::effective_capacity(std::size_t instances) const {
  const auto s = static_cast<double>(instances);
  ResourceVector c = capacity_;
  c[kCpu] *= std::max(0.0, 1.0 - overhead_.cpu_fraction * s);
  c[kIo] *= std::max(0.0, 1.0 - overhead_.io_fraction * s);
  c[kNet] *= std::max(0.0, 1.0 - overhead_.net_fraction * s);
  c[kMemory] = std::max(0.0, c[kMemory] - overhead_.memory_mb * s);
  return c;
}

ResourceVector PsmScheduler::availability() const {
  ResourceVector a = effective_capacity(running_.size()) - load_;
  return a.cw_max(ResourceVector(kDims));  // clamp at zero
}

bool PsmScheduler::can_admit(const ResourceVector& expectation) const {
  SOC_CHECK(expectation.size() == kDims);
  const ResourceVector a =
      effective_capacity(running_.size() + 1) - load_;
  return a.dominates(expectation);
}

bool PsmScheduler::admit(const TaskSpec& task) {
  if (!can_admit(task.expectation)) return false;
  integrate_progress();
  Running r;
  r.spec = task;
  r.remaining = task.workload;
  r.started_at = sim_.now();
  const bool inserted = running_.emplace(task.id, std::move(r)).second;
  SOC_CHECK_MSG(inserted, "task already running");
  load_ += task.expectation;
  reschedule();
  return true;
}

std::optional<TaskSpec> PsmScheduler::abort(TaskId id) {
  const auto it = running_.find(id);
  if (it == running_.end()) return std::nullopt;
  integrate_progress();
  TaskSpec spec = it->second.spec;
  load_ -= spec.expectation;
  running_.erase(it);
  reschedule();
  return spec;
}

std::optional<std::array<double, kRateDims>> PsmScheduler::remaining_of(
    TaskId id) {
  const auto it = running_.find(id);
  if (it == running_.end()) return std::nullopt;
  integrate_progress();
  return it->second.remaining;
}

std::vector<PsmScheduler::Progress> PsmScheduler::abort_all_with_progress() {
  integrate_progress();
  std::vector<Progress> out;
  out.reserve(running_.size());
  for (const auto& [_, r] : running_) {
    out.push_back(Progress{r.spec, r.remaining});
  }
  running_.clear();
  load_ = ResourceVector(kDims);
  reschedule();
  return out;
}

ResourceVector PsmScheduler::rates_for(const Running& r) const {
  // Eq. (1): r(t) = e(t)/l · c componentwise, with c the overhead-adjusted
  // capacity.  When the aggregate load on a dimension is zero the share is
  // undefined; no running task demands it, so the rate is zero too.
  const ResourceVector c = effective_capacity(running_.size());
  ResourceVector rates(kDims);
  for (std::size_t j = 0; j < kDims; ++j) {
    if (load_[j] <= kEps) {
      rates[j] = 0.0;
      continue;
    }
    // Proportional share, but never below the expectation (the admission
    // invariant guarantees l ≤ c so the ratio is ≥ 1 up to FP noise).
    rates[j] = r.spec.expectation[j] * std::max(1.0, c[j] / load_[j]);
  }
  return rates;
}

void PsmScheduler::integrate_progress() {
  const SimTime now = sim_.now();
  const double dt = to_seconds(now - last_progress_);
  last_progress_ = now;
  if (dt <= 0.0 || running_.empty()) return;
  for (auto& [_, r] : running_) {
    const ResourceVector rates = rates_for(r);
    for (std::size_t k = 0; k < kRateDims; ++k) {
      r.remaining[k] = std::max(0.0, r.remaining[k] - rates[k] * dt);
    }
  }
}

void PsmScheduler::reschedule() {
  if (pending_completion_.valid()) {
    sim_.cancel(pending_completion_);
    pending_completion_ = {};
  }
  if (running_.empty()) return;

  double min_finish_s = std::numeric_limits<double>::infinity();
  for (const auto& [_, r] : running_) {
    const ResourceVector rates = rates_for(r);
    double finish_s = 0.0;
    for (std::size_t k = 0; k < kRateDims; ++k) {
      if (r.remaining[k] <= kEps) continue;
      // Admission guarantees rates ≥ expectation > 0 on demanded dims.
      SOC_CHECK_MSG(rates[k] > 0.0, "running task with zero allocated rate");
      finish_s = std::max(finish_s, r.remaining[k] / rates[k]);
    }
    min_finish_s = std::min(min_finish_s, finish_s);
  }
  const SimTime delay = std::max<SimTime>(seconds(min_finish_s), 0) + 1;
  pending_completion_ =
      sim_.schedule_after(delay, [this] { on_completion_event(); });
}

void PsmScheduler::on_completion_event() {
  pending_completion_ = {};
  integrate_progress();

  std::vector<CompletionInfo> finished;
  for (auto it = running_.begin(); it != running_.end();) {
    const auto& r = it->second;
    const bool done = std::all_of(r.remaining.begin(), r.remaining.end(),
                                  [](double w) { return w <= kEps; });
    if (done) {
      finished.push_back(CompletionInfo{r.spec.id, r.started_at, sim_.now()});
      load_ -= r.spec.expectation;
      it = running_.erase(it);
    } else {
      ++it;
    }
  }
  // Clamp accumulated FP error when the node empties.
  if (running_.empty()) load_ = ResourceVector(kDims);
  reschedule();
  for (const auto& info : finished) {
    if (on_finish_) on_finish_(info);
  }
}

ResourceVector PsmScheduler::allocation_of(TaskId id) const {
  const auto it = running_.find(id);
  SOC_CHECK_MSG(it != running_.end(), "task not running");
  return rates_for(it->second);
}

}  // namespace soc::psm
