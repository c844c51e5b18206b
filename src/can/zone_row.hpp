// Packed zone rows and the greedy-routing rank kernel.
//
// CanSpace stores every member's zone once, as one row of 3·d doubles at
// `dims()` stride — lo[0..d), hi[0..d), center[0..d) — in a single
// contiguous array.  Ranking a routing candidate then reads one or two
// cache lines instead of a kMaxDims-padded Zone plus a cached center.
//
// rank_toward() is the single definition of the routing order every layer
// shares (CAN next_hop, can::GreedyRouter and INSCAN's finger hook):
// containment first, then box distance, then center distance, then id.
// It is bit-identical to the Zone::contains / Zone::distance_sq /
// point_distance_sq chain:
//   * the box distance sums the same squared gaps in the same axis order;
//     axes the target lies within contribute +0.0, and s + 0.0 == s for
//     every non-negative s, so skipping them leaves each sum unchanged;
//   * partial sums of non-negative terms never decrease, so once one
//     exceeds the incumbent's box distance the candidate can neither win
//     nor tie, and stopping there never drops a candidate that could;
//   * the center is stored as 0.5 * (lo + hi), the expression
//     Zone::center() evaluates.
#pragma once

#include <cstddef>
#include <limits>

#include "src/can/geometry.hpp"
#include "src/common/types.hpp"

namespace soc::can {

/// Read-only view of one packed zone row (null for a non-member).
class ZoneRow {
 public:
  ZoneRow() = default;
  ZoneRow(const double* v, std::size_t dims) : v_(v), dims_(dims) {}

  explicit operator bool() const { return v_ != nullptr; }
  [[nodiscard]] std::size_t dims() const { return dims_; }
  [[nodiscard]] double lo(std::size_t i) const { return v_[i]; }
  [[nodiscard]] double hi(std::size_t i) const { return v_[dims_ + i]; }
  [[nodiscard]] double center(std::size_t i) const {
    return v_[2 * dims_ + i];
  }

  /// Row length for a d-dimensional space.
  static constexpr std::size_t stride(std::size_t dims) { return 3 * dims; }

  /// Write `z` into `out` (stride(z.dims()) doubles).
  static void pack(const Zone& z, double* out) {
    const std::size_t d = z.dims();
    for (std::size_t i = 0; i < d; ++i) {
      out[i] = z.lo(i);
      out[d + i] = z.hi(i);
      out[2 * d + i] = 0.5 * (z.lo(i) + z.hi(i));
    }
  }

  [[nodiscard]] Zone zone() const {
    Point lo(dims_), hi(dims_);
    for (std::size_t i = 0; i < dims_; ++i) {
      lo[i] = this->lo(i);
      hi[i] = this->hi(i);
    }
    return Zone(lo, hi);
  }

  /// Zone::contains: half-open [lo, hi) with the hi == 1 edge closed.
  [[nodiscard]] bool contains(const Point& p) const {
    for (std::size_t i = 0; i < dims_; ++i) {
      const double x = p[i];
      if (x < lo(i)) return false;
      if (x >= hi(i) && !(hi(i) == 1.0 && x == 1.0)) return false;
    }
    return true;
  }

  /// Zone::distance_sq, except that it may stop (returning the partial
  /// sum) as soon as the sum exceeds `bound`.  The result is exact
  /// whenever it is <= bound.
  [[nodiscard]] double distance_sq(const Point& p, double bound) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < dims_; ++i) {
      const double x = p[i];
      double g;
      if (x < lo(i)) {
        g = lo(i) - x;
      } else if (x > hi(i)) {
        g = x - hi(i);
      } else {
        continue;  // a +0.0 term
      }
      sum += g * g;
      if (sum > bound) return sum;
    }
    return sum;
  }

  /// point_distance_sq(center, p).
  [[nodiscard]] double center_distance_sq(const Point& p) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < dims_; ++i) {
      const double g = p[i] - center(i);
      sum += g * g;
    }
    return sum;
  }

 private:
  const double* v_ = nullptr;
  std::size_t dims_ = 0;
};

/// Seed a greedy decision at the current hop `here`: true when its zone
/// contains `target` (the route has arrived).  Otherwise best_d/best_c
/// take the hop's own key, so only a strictly better candidate — with
/// `best` still invalid, the id tie-break cannot fire — displaces it.
inline bool seed_toward(ZoneRow here, const Point& target, double& best_d,
                        double& best_c) {
  if (here.contains(target)) return true;
  best_d = here.distance_sq(target, std::numeric_limits<double>::infinity());
  best_c = here.center_distance_sq(target);
  return false;
}

/// Rank candidate `cand` (zone `row`) against the incumbent
/// (best, best_d, best_c) toward `target`.  Returns true when the
/// candidate's zone contains the target: it then becomes best with both
/// distances forced to -1, so no later candidate can displace it.
inline bool rank_toward(ZoneRow row, NodeId cand, const Point& target,
                        NodeId& best, double& best_d, double& best_c) {
  if (row.contains(target)) {
    best = cand;
    best_d = -1.0;
    best_c = -1.0;
    return true;
  }
  const double d = row.distance_sq(target, best_d);
  if (d > best_d) return false;
  const double c = row.center_distance_sq(target);
  if (d < best_d || c < best_c ||
      (c == best_c && best.valid() && cand < best)) {
    best = cand;
    best_d = d;
    best_c = c;
  }
  return false;
}

}  // namespace soc::can
