// Geometry of the CAN coordinate space: d-dimensional points in the unit
// cube and axis-aligned zones produced by recursive binary splits.
//
// Zones use half-open intervals [lo, hi) per dimension, with the top edge
// hi == 1 treated as closed so the whole cube [0,1]^d is covered.  All
// splits bisect exactly at the midpoint, so every boundary coordinate is a
// dyadic rational represented exactly in a double — adjacency tests can use
// exact comparison without epsilons.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>

#include "src/common/assert.hpp"
#include "src/common/resource_vector.hpp"

namespace soc::can {

constexpr std::size_t kMaxDims = ResourceVector::kMaxDims;

/// A location in the CAN space, components in [0, 1].
class Point {
 public:
  Point() = default;
  explicit Point(std::size_t dims) : size_(dims) {
    SOC_CHECK(dims > 0 && dims <= kMaxDims);
    v_.fill(0.0);
  }
  Point(std::initializer_list<double> init) : size_(init.size()) {
    SOC_CHECK(init.size() > 0 && init.size() <= kMaxDims);
    std::size_t i = 0;
    for (const double x : init) v_[i++] = x;
  }

  /// Map a resource vector into the unit cube by dividing componentwise by
  /// the global capacity ceiling c_max (values clamp into [0, 1]).
  static Point normalized(const ResourceVector& v, const ResourceVector& cmax);

  [[nodiscard]] std::size_t dims() const { return size_; }
  double& operator[](std::size_t i) {
    SOC_DCHECK(i < size_);
    return v_[i];
  }
  double operator[](std::size_t i) const {
    SOC_DCHECK(i < size_);
    return v_[i];
  }

  bool operator==(const Point& o) const {
    if (size_ != o.size_) return false;
    for (std::size_t i = 0; i < size_; ++i)
      if (v_[i] != o.v_[i]) return false;
    return true;
  }

  [[nodiscard]] std::string to_string() const;

 private:
  std::array<double, kMaxDims> v_{};
  std::size_t size_ = 0;
};

/// Squared Euclidean distance between two points.  With `a` a cached zone
/// center this is exactly Zone::center_distance_sq: the cache stores
/// 0.5 * (lo + hi) per axis — the same expression — so the subtraction and
/// sum are bit-identical to the uncached form.
[[nodiscard]] inline double point_distance_sq(const Point& a, const Point& b) {
  SOC_DCHECK(a.dims() == b.dims());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.dims(); ++i) {
    const double g = b[i] - a[i];
    sum += g * g;
  }
  return sum;
}

/// An axis-aligned box in the CAN space.
class Zone {
 public:
  Zone() = default;
  /// The full unit cube.
  static Zone unit(std::size_t dims);
  Zone(const Point& lo, const Point& hi);

  [[nodiscard]] std::size_t dims() const { return lo_.dims(); }
  [[nodiscard]] const Point& lo() const { return lo_; }
  [[nodiscard]] const Point& hi() const { return hi_; }
  [[nodiscard]] double lo(std::size_t d) const { return lo_[d]; }
  [[nodiscard]] double hi(std::size_t d) const { return hi_[d]; }
  [[nodiscard]] double side(std::size_t d) const { return hi_[d] - lo_[d]; }
  [[nodiscard]] double volume() const;
  [[nodiscard]] Point center() const;

  /// Containment with the closed-top-edge convention.
  [[nodiscard]] bool contains(const Point& p) const;

  // The four box relations below take `o` as a Zone or as a packed
  // ZoneRow (zone_row.hpp): any box with dims(), lo(d) and hi(d).

  /// Positive-measure overlap of the projections onto dimension d.
  template <class Box>
  [[nodiscard]] bool overlaps_dim(const Box& o, std::size_t d) const {
    return lo_[d] < o.hi(d) && o.lo(d) < hi_[d];
  }
  /// Full-box positive-measure intersection.
  [[nodiscard]] bool overlaps(const Zone& o) const;

  /// The two zones abut along dimension d (share a (d-1)-face boundary
  /// coordinate on that axis) — does not check the other dimensions.
  template <class Box>
  [[nodiscard]] bool abuts_dim(const Box& o, std::size_t d) const {
    return hi_[d] == o.lo(d) || o.hi(d) == lo_[d];
  }

  /// CAN adjacency (the paper's "adjacent neighbors"): the boxes abut along
  /// exactly one dimension and overlap with positive measure in all others.
  /// Returns the abutting dimension, or nullopt.
  template <class Box>
  [[nodiscard]] std::optional<std::size_t> adjacency_dim(const Box& o) const {
    SOC_DCHECK(o.dims() == dims());
    std::optional<std::size_t> abut;
    for (std::size_t i = 0; i < dims(); ++i) {
      if (overlaps_dim(o, i)) continue;
      if (!abuts_dim(o, i)) return std::nullopt;  // gap on this axis
      if (abut.has_value()) return std::nullopt;  // corner contact only
      abut = i;
    }
    return abut;  // nullopt means full overlap (shouldn't happen for zones)
  }

  /// True when `o` lies on the positive side of *this along `dim` (o starts
  /// where this ends).  Only meaningful when abuts_dim(o, dim).
  template <class Box>
  [[nodiscard]] bool positive_side(const Box& o, std::size_t dim) const {
    return o.lo(dim) == hi(dim);
  }

  /// Split in half along `d`; returns {lower, upper}.
  [[nodiscard]] std::pair<Zone, Zone> split(std::size_t d) const;

  /// If the two zones are mergeable (identical on all dims but one, where
  /// they abut), return the merged box.
  [[nodiscard]] std::optional<Zone> merged_with(const Zone& o) const;

  /// Squared Euclidean distance from p to the closest point of the box.
  [[nodiscard]] double distance_sq(const Point& p) const;

  /// Squared Euclidean distance from p to the box center — routing's
  /// plateau tie-breaker.
  [[nodiscard]] double center_distance_sq(const Point& p) const;

  /// Does the box intersect the query range [lo_q, 1]^d, i.e. does it
  /// contain any point dominating lo_q?  Used by INSCAN-RQ.
  [[nodiscard]] bool intersects_upper_range(const Point& lo_q) const;

  bool operator==(const Zone& o) const { return lo_ == o.lo_ && hi_ == o.hi_; }

  [[nodiscard]] std::string to_string() const;

 private:
  Point lo_, hi_;
};

}  // namespace soc::can
