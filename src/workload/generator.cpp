#include "src/workload/generator.hpp"

#include <algorithm>
#include <array>

namespace soc::workload {

namespace {

// Table I: processors × rate per processor, I/O speed, network capacity
// (the node's LAN rate), disk and memory.
constexpr std::array<int, 4> kProcessors{1, 2, 4, 8};
constexpr std::array<double, 4> kRatePerProcessor{1.0, 2.0, 2.4, 3.2};
constexpr std::array<double, 4> kIoSpeed{20, 40, 60, 80};
constexpr std::array<double, 4> kMemoryMb{512, 1024, 2048, 4096};
constexpr std::array<double, 4> kDiskGb{20, 60, 120, 240};
constexpr double kNetLo = 5.0, kNetHi = 10.0;

// Table II demand ranges at λ = 1.
constexpr double kCpuLo = 1.0, kCpuHi = 25.6;
constexpr double kIoLo = 20.0, kIoHi = 80.0;
constexpr double kTaskNetLo = 0.1, kTaskNetHi = 10.0;
constexpr double kDiskLo = 20.0, kDiskHi = 240.0;
constexpr double kMemLo = 512.0, kMemHi = 4096.0;
// Execution time at expectation rates: exponential with this mean,
// clamped to [min, max] (overall average ≈ 3000 s).
constexpr double kMeanExecSeconds = 3000.0;
constexpr double kMinExecSeconds = 300.0;
constexpr double kMaxExecSeconds = 12000.0;
// Task input shipped at dispatch.
constexpr double kInputBytesLo = 200e3, kInputBytesHi = 1e6;

}  // namespace

ResourceVector NodeGenerator::generate(Rng& rng) const {
  const int procs = rng.pick(kProcessors);
  const double rate = rng.pick(kRatePerProcessor);
  ResourceVector c(psm::kDims);
  c[psm::kCpu] = procs * rate;
  c[psm::kIo] = rng.pick(kIoSpeed);
  c[psm::kNet] = rng.uniform(kNetLo, kNetHi);
  c[psm::kDisk] = rng.pick(kDiskGb);
  c[psm::kMemory] = rng.pick(kMemoryMb);
  if (skew_.enabled()) {
    const double roll = rng.uniform();
    if (roll < skew_.weak_fraction) {
      c = c * skew_.weak_scale;
    } else if (roll < skew_.weak_fraction + skew_.strong_fraction) {
      c = c * skew_.strong_scale;
    }
  }
  return c;
}

ResourceVector NodeGenerator::cmax() const {
  ResourceVector c(psm::kDims);
  c[psm::kCpu] = static_cast<double>(kProcessors.back()) *
                 kRatePerProcessor.back();
  c[psm::kIo] = kIoSpeed.back();
  c[psm::kNet] = kNetHi;
  c[psm::kDisk] = kDiskGb.back();
  c[psm::kMemory] = kMemoryMb.back();
  return c;
}

psm::TaskSpec TaskGenerator::generate(NodeId origin, std::uint32_t seq,
                                      SimTime now, Rng& rng) const {
  const double lam = demand_ratio_;
  psm::TaskSpec t;
  t.id = TaskId{origin, seq};
  t.submit_time = now;

  ResourceVector e(psm::kDims);
  e[psm::kCpu] = rng.uniform(kCpuLo, kCpuHi) * lam;
  e[psm::kIo] = rng.uniform(kIoLo, kIoHi) * lam;
  e[psm::kNet] = rng.uniform(kTaskNetLo, kTaskNetHi) * lam;
  e[psm::kDisk] = rng.uniform(kDiskLo, kDiskHi) * lam;
  e[psm::kMemory] = rng.uniform(kMemLo, kMemHi) * lam;
  t.expectation = e;

  const double exec_s = std::clamp(rng.exponential(kMeanExecSeconds),
                                   kMinExecSeconds, kMaxExecSeconds);
  for (std::size_t k = 0; k < psm::kRateDims; ++k) {
    t.workload[k] = e[k] * exec_s;
  }
  t.input_bytes = rng.uniform(kInputBytesLo, kInputBytesHi);
  return t;
}

SimTime next_arrival_delay(double mean_seconds, Rng& rng) {
  return std::max<SimTime>(seconds(rng.exponential(mean_seconds)), 1);
}

}  // namespace soc::workload
