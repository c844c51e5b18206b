// ResourceVector: a d-dimensional non-negative quantity vector used for node
// capacities (c_i), aggregated loads (l_i), availabilities (a_i = c_i - l_i)
// and task expectation vectors (e(t_ij)).
//
// The paper works with d = 5 resource types {CPU, I/O, network, disk,
// memory}; the type supports any d up to kMaxDims with inline storage so the
// simulator never allocates per-vector.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <ostream>
#include <span>
#include <string>

#include "src/common/assert.hpp"
#include "src/common/types.hpp"

namespace soc {

class ResourceVector {
 public:
  static constexpr std::size_t kMaxDims = 8;

  ResourceVector() = default;

  /// Zero vector of dimension d.
  explicit ResourceVector(std::size_t d) : size_(d) {
    SOC_CHECK(d <= kMaxDims);
    v_.fill(0.0);
  }

  ResourceVector(std::initializer_list<double> init) : size_(init.size()) {
    SOC_CHECK(init.size() <= kMaxDims);
    std::copy(init.begin(), init.end(), v_.begin());
  }

  static ResourceVector filled(std::size_t d, double value) {
    ResourceVector r(d);
    for (std::size_t i = 0; i < d; ++i) r.v_[i] = value;
    return r;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  double& operator[](std::size_t i) {
    SOC_DCHECK(i < size_);
    return v_[i];
  }
  double operator[](std::size_t i) const {
    SOC_DCHECK(i < size_);
    return v_[i];
  }

  [[nodiscard]] std::span<const double> values() const {
    return {v_.data(), size_};
  }

  /// Componentwise "dominates or equals": *this ≽ other (Inequality (2) of
  /// the paper uses availability ≽ expectation).
  [[nodiscard]] bool dominates(const ResourceVector& other) const {
    SOC_DCHECK(size_ == other.size_);
    for (std::size_t i = 0; i < size_; ++i)
      if (v_[i] < other.v_[i]) return false;
    return true;
  }

  /// Strict componentwise domination on every axis.
  [[nodiscard]] bool strictly_dominates(const ResourceVector& other) const {
    SOC_DCHECK(size_ == other.size_);
    for (std::size_t i = 0; i < size_; ++i)
      if (v_[i] <= other.v_[i]) return false;
    return true;
  }

  ResourceVector& operator+=(const ResourceVector& o) {
    SOC_DCHECK(size_ == o.size_);
    for (std::size_t i = 0; i < size_; ++i) v_[i] += o.v_[i];
    return *this;
  }
  ResourceVector& operator-=(const ResourceVector& o) {
    SOC_DCHECK(size_ == o.size_);
    for (std::size_t i = 0; i < size_; ++i) v_[i] -= o.v_[i];
    return *this;
  }
  ResourceVector& operator*=(double s) {
    for (std::size_t i = 0; i < size_; ++i) v_[i] *= s;
    return *this;
  }

  friend ResourceVector operator+(ResourceVector a, const ResourceVector& b) {
    return a += b;
  }
  friend ResourceVector operator-(ResourceVector a, const ResourceVector& b) {
    return a -= b;
  }
  friend ResourceVector operator*(ResourceVector a, double s) { return a *= s; }
  friend ResourceVector operator*(double s, ResourceVector a) { return a *= s; }

  /// Componentwise division; both vectors must be the same size and the
  /// divisor strictly positive on every axis.
  [[nodiscard]] ResourceVector divided_by(const ResourceVector& o) const {
    SOC_DCHECK(size_ == o.size_);
    ResourceVector r(size_);
    for (std::size_t i = 0; i < size_; ++i) {
      SOC_DCHECK(o.v_[i] > 0.0);
      r.v_[i] = v_[i] / o.v_[i];
    }
    return r;
  }

  /// Componentwise min/max.
  [[nodiscard]] ResourceVector cw_min(const ResourceVector& o) const {
    SOC_DCHECK(size_ == o.size_);
    ResourceVector r(size_);
    for (std::size_t i = 0; i < size_; ++i) r.v_[i] = std::min(v_[i], o.v_[i]);
    return r;
  }
  [[nodiscard]] ResourceVector cw_max(const ResourceVector& o) const {
    SOC_DCHECK(size_ == o.size_);
    ResourceVector r(size_);
    for (std::size_t i = 0; i < size_; ++i) r.v_[i] = std::max(v_[i], o.v_[i]);
    return r;
  }

  /// Clamp every component into [0, hi_i].
  [[nodiscard]] ResourceVector clamped(const ResourceVector& hi) const {
    SOC_DCHECK(size_ == hi.size_);
    ResourceVector r(size_);
    for (std::size_t i = 0; i < size_; ++i)
      r.v_[i] = std::clamp(v_[i], 0.0, hi.v_[i]);
    return r;
  }

  [[nodiscard]] double min_component() const {
    SOC_DCHECK(size_ > 0);
    return *std::min_element(v_.begin(), v_.begin() + size_);
  }
  [[nodiscard]] double max_component() const {
    SOC_DCHECK(size_ > 0);
    return *std::max_element(v_.begin(), v_.begin() + size_);
  }
  [[nodiscard]] double sum() const {
    double s = 0.0;
    for (std::size_t i = 0; i < size_; ++i) s += v_[i];
    return s;
  }

  /// True iff every component is >= 0 (availability vectors must be).
  [[nodiscard]] bool non_negative() const {
    for (std::size_t i = 0; i < size_; ++i)
      if (v_[i] < 0.0) return false;
    return true;
  }

  bool operator==(const ResourceVector& o) const {
    if (size_ != o.size_) return false;
    return std::equal(v_.begin(), v_.begin() + size_, o.v_.begin());
  }

  [[nodiscard]] std::string to_string() const;

  friend std::ostream& operator<<(std::ostream& os, const ResourceVector& v) {
    return os << v.to_string();
  }

 private:
  std::array<double, kMaxDims> v_{};
  std::size_t size_ = 0;
};

/// Normalized slack of an availability vector against a demand: how much
/// headroom (as a fraction of the demand's scale) a candidate leaves.  The
/// best-fit selection picks the qualified candidate with the *smallest*
/// slack so large availabilities are preserved for large future demands.
double best_fit_slack(const ResourceVector& availability,
                      const ResourceVector& demand,
                      const ResourceVector& capacity_scale);

/// One query result, whatever the protocol: a provider and the
/// availability it last advertised (possibly stale by the record TTL).
struct Discovered {
  NodeId provider;
  ResourceVector availability;
};

}  // namespace soc
