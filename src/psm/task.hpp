// Task model.  A task t_ij carries the paper's least-qualified
// five-dimensional expectation vector {CPU rate, I/O speed, network
// bandwidth, disk size, memory size}; its execution progress depends only on
// the first three (rate) resource types, while disk and memory are occupied
// for the task's duration.
#pragma once

#include <array>
#include <cstddef>

#include "src/common/resource_vector.hpp"
#include "src/common/types.hpp"

namespace soc::psm {

/// Resource-dimension conventions used throughout the system.
inline constexpr std::size_t kDims = 5;
inline constexpr std::size_t kRateDims = 3;  // CPU, I/O, network progress
inline constexpr std::size_t kCpu = 0;
inline constexpr std::size_t kIo = 1;
inline constexpr std::size_t kNet = 2;
inline constexpr std::size_t kDisk = 3;
inline constexpr std::size_t kMemory = 4;

/// Immutable description of a submitted task.
struct TaskSpec {
  TaskId id;
  /// e(t_ij): minimal demand per resource type to finish on time.
  ResourceVector expectation;
  /// Work amounts on the rate dimensions, in (rate unit)·seconds; the task
  /// completes when all three drain.  Running exactly at `expectation`
  /// rates finishes in max(workload_k / e_k) seconds.
  std::array<double, kRateDims> workload{};
  /// Bytes shipped to the execution node at dispatch time.
  double input_bytes = 0.0;
  SimTime submit_time = 0;

  /// Execution time if allocated exactly the expectation rates.
  [[nodiscard]] double expected_exec_seconds() const {
    double t = 0.0;
    for (std::size_t k = 0; k < kRateDims; ++k) {
      if (workload[k] <= 0.0) continue;
      SOC_CHECK(expectation[k] > 0.0);
      t = std::max(t, workload[k] / expectation[k]);
    }
    return t;
  }
};

}  // namespace soc::psm
