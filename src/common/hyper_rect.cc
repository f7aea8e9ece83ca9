#include "common/hyper_rect.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.h"

namespace nncell {

HyperRect HyperRect::Empty(size_t dim) {
  HyperRect r;
  r.bounds_.assign(2 * dim, -std::numeric_limits<double>::infinity());
  std::fill_n(r.bounds_.begin(), dim, std::numeric_limits<double>::infinity());
  return r;
}

HyperRect HyperRect::UnitCube(size_t dim) {
  HyperRect r;
  r.bounds_.assign(2 * dim, 1.0);
  std::fill_n(r.bounds_.begin(), dim, 0.0);
  return r;
}

HyperRect HyperRect::FromPoint(const double* p, size_t dim) {
  HyperRect r;
  r.bounds_.reserve(2 * dim);
  r.bounds_.insert(r.bounds_.end(), p, p + dim);
  r.bounds_.insert(r.bounds_.end(), p, p + dim);
  return r;
}

HyperRect HyperRect::FromBounds(const double* lohi, size_t dim) {
  // A byte copy: `lohi` may point into a serialized page.
  HyperRect r;
  r.bounds_.resize(2 * dim);
  std::memcpy(r.bounds_.data(), lohi, 2 * dim * sizeof(double));
  return r;
}

HyperRect::HyperRect(const std::vector<double>& lo,
                     const std::vector<double>& hi) {
  NNCELL_CHECK(lo.size() == hi.size());
  bounds_.reserve(2 * lo.size());
  bounds_.insert(bounds_.end(), lo.begin(), lo.end());
  bounds_.insert(bounds_.end(), hi.begin(), hi.end());
}

bool HyperRect::IsEmpty() const {
  for (size_t i = 0; i < dim(); ++i) {
    if (lo(i) > hi(i)) return true;
  }
  return dim() == 0;
}

std::string HyperRect::CheckWellFormed(bool allow_empty) const {
  bool empty = false;
  for (size_t i = 0; i < dim(); ++i) {
    if (std::isnan(lo(i)) || std::isnan(hi(i))) {
      return "NaN bound in dimension " + std::to_string(i);
    }
    if (lo(i) > hi(i)) empty = true;
  }
  if (empty) {
    if (!allow_empty) return "inverted bounds (lo > hi)";
    return "";  // the Empty() state is legal here
  }
  for (size_t i = 0; i < dim(); ++i) {
    if (std::isinf(lo(i)) || std::isinf(hi(i))) {
      return "non-finite bound in dimension " + std::to_string(i);
    }
  }
  return "";
}

double HyperRect::Volume() const { return RawVolume(lo(), hi(), dim()); }

bool HyperRect::ContainsPoint(const double* p) const {
  return RawContainsPoint(lo(), hi(), p, dim());
}

bool HyperRect::ContainsRect(const HyperRect& r) const {
  NNCELL_DCHECK(r.dim() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    if (r.lo(i) < lo(i) || r.hi(i) > hi(i)) return false;
  }
  return true;
}

void HyperRect::ExpandToPoint(const double* p) {
  RawExpand(bounds_.data(), bounds_.data() + dim(), p, p, dim());
}

void HyperRect::ExpandToRect(const HyperRect& r) {
  NNCELL_DCHECK(r.dim() == dim());
  RawExpand(bounds_.data(), bounds_.data() + dim(), r.lo(), r.hi(), dim());
}

HyperRect HyperRect::Intersection(const HyperRect& a, const HyperRect& b) {
  NNCELL_DCHECK(a.dim() == b.dim());
  HyperRect r = HyperRect::Empty(a.dim());
  for (size_t i = 0; i < a.dim(); ++i) {
    double l = std::max(a.lo(i), b.lo(i));
    double h = std::min(a.hi(i), b.hi(i));
    if (l > h) return HyperRect::Empty(a.dim());
    r.lo(i) = l;
    r.hi(i) = h;
  }
  return r;
}

double RawVolume(const double* lo, const double* hi, size_t dim) {
  if (dim == 0) return 0.0;
  double v = 1.0;
  for (size_t i = 0; i < dim; ++i) {
    if (lo[i] > hi[i]) return 0.0;
    v *= (hi[i] - lo[i]);
  }
  return v;
}

double RawMargin(const double* lo, const double* hi, size_t dim) {
  double m = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    if (lo[i] > hi[i]) return 0.0;
    m += (hi[i] - lo[i]);
  }
  return m;
}

double RawOverlapVolume(const double* lo, const double* hi, const double* rlo,
                        const double* rhi, size_t dim) {
  double v = 1.0;
  for (size_t i = 0; i < dim; ++i) {
    double l = std::max(lo[i], rlo[i]);
    double h = std::min(hi[i], rhi[i]);
    if (l >= h) return 0.0;
    v *= (h - l);
  }
  return v;
}

}  // namespace nncell
