#include "src/metrics/latency_histogram.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/common/assert.hpp"

namespace soc::metrics {

std::size_t LatencyHistogram::bucket_index(std::uint64_t us) {
  if (us < 32) return static_cast<std::size_t>(us);
  const int msb = std::bit_width(us) - 1;  // >= 5 here
  const int shift = msb - 4;               // 16 sub-buckets per octave
  const auto sub = static_cast<std::size_t>((us >> shift) - 16);
  return 32 + static_cast<std::size_t>(msb - 5) * 16 + sub;
}

std::uint64_t LatencyHistogram::bucket_lo_us(std::size_t bucket) {
  SOC_CHECK(bucket < kBucketCount);
  if (bucket < 32) return bucket;
  const std::uint64_t t = (bucket - 32) / 16;
  const std::uint64_t s = (bucket - 32) % 16;
  return (16 + s) << (t + 1);
}

std::uint64_t LatencyHistogram::bucket_hi_us(std::size_t bucket) {
  SOC_CHECK(bucket < kBucketCount);
  if (bucket + 1 == kBucketCount) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return bucket_lo_us(bucket + 1);
}

void LatencyHistogram::record_us(std::uint64_t us) {
  ++counts_[bucket_index(us)];
  ++total_;
  sum_us_ += us;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBucketCount; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_us_ += other.sum_us_;
}

std::uint64_t LatencyHistogram::count(std::size_t bucket) const {
  SOC_CHECK(bucket < kBucketCount);
  return counts_[bucket];
}

double LatencyHistogram::mean_s() const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(sum_us_) / static_cast<double>(total_) * 1e-6;
}

double LatencyHistogram::percentile_s(double p) const {
  SOC_CHECK(p >= 0.0 && p <= 100.0);
  if (total_ == 0) return 0.0;
  const double want = std::ceil(p / 100.0 * static_cast<double>(total_));
  const std::uint64_t rank =
      want < 1.0 ? 1 : static_cast<std::uint64_t>(want);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cum += counts_[i];
    if (cum >= rank) {
      return static_cast<double>(bucket_hi_us(i) - 1) * 1e-6;
    }
  }
  return static_cast<double>(bucket_hi_us(kBucketCount - 1) - 1) * 1e-6;
}

std::string LatencyHistogram::encode() const {
  if (total_ == 0) return {};
  char buf[64];
  std::string out;
  std::snprintf(buf, sizeof buf, "%llu;",
                static_cast<unsigned long long>(sum_us_));
  out += buf;
  bool first = true;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (counts_[i] == 0) continue;
    std::snprintf(buf, sizeof buf, "%s%zu:%llu", first ? "" : ",", i,
                  static_cast<unsigned long long>(counts_[i]));
    out += buf;
    first = false;
  }
  return out;
}

bool LatencyHistogram::merge_encoded(std::string_view text) {
  if (text.empty()) return true;
  const char* p = text.data();
  const char* const end = text.data() + text.size();
  const auto parse_u64 = [&](std::uint64_t& out) {
    const auto [next, ec] = std::from_chars(p, end, out);
    if (ec != std::errc() || next == p) return false;
    p = next;
    return true;
  };
  LatencyHistogram add;
  if (!parse_u64(add.sum_us_) || p == end || *p != ';') return false;
  ++p;
  // "<sum>;" with no buckets would smuggle in a sum with total 0 —
  // encode() never emits it, so it is rejected like any other corruption.
  if (p == end) return false;
  while (p != end) {
    std::uint64_t idx = 0, n = 0;
    if (!parse_u64(idx) || idx >= kBucketCount) return false;
    if (p == end || *p != ':') return false;
    ++p;
    if (!parse_u64(n)) return false;
    add.counts_[idx] += n;
    add.total_ += n;
    if (p != end) {
      if (*p != ',') return false;
      ++p;
      if (p == end) return false;  // trailing ','
    }
  }
  merge(add);
  return true;
}

json::Object LatencyHistogram::summary_json() const {
  return {{"n", total()}, {"mean_s", mean_s()},
          {"p50_s", percentile_s(50.0)}, {"p95_s", percentile_s(95.0)},
          {"p99_s", percentile_s(99.0)}, {"p999_s", percentile_s(99.9)}};
}

}  // namespace soc::metrics
