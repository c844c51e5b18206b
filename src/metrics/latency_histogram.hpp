// HDR-style log-bucketed latency histogram with a *fixed* bucket layout,
// so merging shard histograms is an exact bucket-wise sum: percentiles
// computed from a merge of N shard files are byte-identical no matter how
// the samples were split across workers.
//
// Layout (values in integer microseconds): 0..31 µs get exact unit
// buckets; above that each power-of-two octave is split into 16
// sub-buckets (~6% relative resolution), covering the full uint64 range
// in 976 buckets (~7.6 KB of counters).  Percentiles report the highest
// value equivalent to the bucket (bucket_hi - 1), so sub-32 µs samples
// come back exact.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/json.hpp"

namespace soc::metrics {

class LatencyHistogram {
 public:
  static constexpr std::size_t kBucketCount = 976;

  /// Count one latency sample of `us` microseconds.
  void record_us(std::uint64_t us);

  /// Exact bucket-wise sum — associative and commutative by construction.
  void merge(const LatencyHistogram& other);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t sum_us() const { return sum_us_; }
  [[nodiscard]] double mean_s() const;
  [[nodiscard]] std::uint64_t count(std::size_t bucket) const;

  /// Percentile p in [0, 100] as seconds: the highest value of the first
  /// bucket whose cumulative count reaches ceil(p/100 * total).  An empty
  /// histogram reports 0.
  [[nodiscard]] double percentile_s(double p) const;

  /// Bucket arithmetic (static so tests can pin the layout).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t us);
  [[nodiscard]] static std::uint64_t bucket_lo_us(std::size_t bucket);
  /// Exclusive upper edge; saturates to uint64 max on the last bucket.
  [[nodiscard]] static std::uint64_t bucket_hi_us(std::size_t bucket);

  /// Sparse text form for the shard files: "idx:count,idx:count,..." over
  /// the non-empty buckets in ascending index order ("" when empty).
  [[nodiscard]] std::string encode() const;
  /// Fold an encode()d histogram into *this; false on malformed input
  /// (*this is left unchanged on failure).
  bool merge_encoded(std::string_view text);

  /// The report block: {"n", "mean_s", "p50_s", "p95_s", "p99_s",
  /// "p999_s"} (BENCH_*.json and the merged sweep report).
  [[nodiscard]] json::Object summary_json() const;

 private:
  std::array<std::uint64_t, kBucketCount> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t sum_us_ = 0;
};

}  // namespace soc::metrics
