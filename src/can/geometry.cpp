#include "src/can/geometry.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace soc::can {

Point Point::normalized(const ResourceVector& v, const ResourceVector& cmax) {
  SOC_CHECK(v.size() == cmax.size());
  Point p(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    SOC_CHECK(cmax[i] > 0.0);
    p[i] = std::clamp(v[i] / cmax[i], 0.0, 1.0);
  }
  return p;
}

std::string Point::to_string() const {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < size_; ++i) {
    if (i) os << ", ";
    os << v_[i];
  }
  os << ')';
  return os.str();
}

Zone Zone::unit(std::size_t dims) {
  Point lo(dims), hi(dims);
  for (std::size_t i = 0; i < dims; ++i) hi[i] = 1.0;
  return Zone(lo, hi);
}

Zone::Zone(const Point& lo, const Point& hi) : lo_(lo), hi_(hi) {
  SOC_CHECK(lo.dims() == hi.dims());
  for (std::size_t i = 0; i < lo.dims(); ++i) SOC_CHECK(lo[i] < hi[i]);
}

double Zone::volume() const {
  double v = 1.0;
  for (std::size_t i = 0; i < dims(); ++i) v *= side(i);
  return v;
}

Point Zone::center() const {
  Point c(dims());
  for (std::size_t i = 0; i < dims(); ++i) c[i] = 0.5 * (lo_[i] + hi_[i]);
  return c;
}

bool Zone::contains(const Point& p) const {
  SOC_DCHECK(p.dims() == dims());
  for (std::size_t i = 0; i < dims(); ++i) {
    if (p[i] < lo_[i]) return false;
    if (p[i] >= hi_[i] && !(hi_[i] == 1.0 && p[i] == 1.0)) return false;
  }
  return true;
}

bool Zone::overlaps(const Zone& o) const {
  SOC_DCHECK(o.dims() == dims());
  for (std::size_t i = 0; i < dims(); ++i)
    if (!overlaps_dim(o, i)) return false;
  return true;
}

std::pair<Zone, Zone> Zone::split(std::size_t d) const {
  SOC_CHECK(d < dims());
  const double mid = 0.5 * (lo_[d] + hi_[d]);
  Point lo_hi = hi_;
  lo_hi[d] = mid;
  Point hi_lo = lo_;
  hi_lo[d] = mid;
  return {Zone(lo_, lo_hi), Zone(hi_lo, hi_)};
}

std::optional<Zone> Zone::merged_with(const Zone& o) const {
  SOC_DCHECK(o.dims() == dims());
  std::optional<std::size_t> merge_dim;
  for (std::size_t i = 0; i < dims(); ++i) {
    if (lo_[i] == o.lo_[i] && hi_[i] == o.hi_[i]) continue;
    if (!abuts_dim(o, i)) return std::nullopt;
    if (merge_dim.has_value()) return std::nullopt;
    merge_dim = i;
  }
  if (!merge_dim.has_value()) return std::nullopt;
  const std::size_t d = *merge_dim;
  Point lo = lo_, hi = hi_;
  lo[d] = std::min(lo_[d], o.lo_[d]);
  hi[d] = std::max(hi_[d], o.hi_[d]);
  return Zone(lo, hi);
}

double Zone::distance_sq(const Point& p) const {
  SOC_DCHECK(p.dims() == dims());
  double sum = 0.0;
  for (std::size_t i = 0; i < dims(); ++i) {
    double g = 0.0;
    if (p[i] < lo_[i]) {
      g = lo_[i] - p[i];
    } else if (p[i] > hi_[i]) {
      g = p[i] - hi_[i];
    }
    sum += g * g;
  }
  return sum;
}

double Zone::center_distance_sq(const Point& p) const {
  SOC_DCHECK(p.dims() == dims());
  double sum = 0.0;
  for (std::size_t i = 0; i < dims(); ++i) {
    const double g = p[i] - 0.5 * (lo_[i] + hi_[i]);
    sum += g * g;
  }
  return sum;
}

bool Zone::intersects_upper_range(const Point& lo_q) const {
  SOC_DCHECK(lo_q.dims() == dims());
  // The range [lo_q, 1]^d intersects the box iff on every axis the box's
  // top edge reaches past lo_q.
  for (std::size_t i = 0; i < dims(); ++i) {
    if (hi_[i] < lo_q[i] || (hi_[i] == lo_q[i] && hi_[i] != 1.0)) return false;
  }
  return true;
}

std::string Zone::to_string() const {
  std::ostringstream os;
  os << '[' << lo_.to_string() << " .. " << hi_.to_string() << ']';
  return os.str();
}

}  // namespace soc::can
