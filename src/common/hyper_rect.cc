#include "common/hyper_rect.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace nncell {

HyperRect HyperRect::Empty(size_t dim) {
  HyperRect r;
  r.lo_.assign(dim, std::numeric_limits<double>::infinity());
  r.hi_.assign(dim, -std::numeric_limits<double>::infinity());
  return r;
}

HyperRect HyperRect::UnitCube(size_t dim) {
  HyperRect r;
  r.lo_.assign(dim, 0.0);
  r.hi_.assign(dim, 1.0);
  return r;
}

HyperRect HyperRect::FromPoint(const double* p, size_t dim) {
  HyperRect r;
  r.lo_.assign(p, p + dim);
  r.hi_.assign(p, p + dim);
  return r;
}

HyperRect HyperRect::FromPoint(const std::vector<double>& p) {
  return FromPoint(p.data(), p.size());
}

HyperRect::HyperRect(std::vector<double> lo, std::vector<double> hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  NNCELL_CHECK(lo_.size() == hi_.size());
}

bool HyperRect::IsEmpty() const {
  for (size_t i = 0; i < dim(); ++i) {
    if (lo_[i] > hi_[i]) return true;
  }
  return lo_.empty();
}

std::string HyperRect::CheckWellFormed(bool allow_empty) const {
  if (lo_.size() != hi_.size()) {
    return "lo/hi dimension mismatch";
  }
  bool empty = false;
  for (size_t i = 0; i < dim(); ++i) {
    if (std::isnan(lo_[i]) || std::isnan(hi_[i])) {
      return "NaN bound in dimension " + std::to_string(i);
    }
    if (lo_[i] > hi_[i]) empty = true;
  }
  if (empty) {
    if (!allow_empty) return "inverted bounds (lo > hi)";
    return "";  // the Empty() state is legal here
  }
  for (size_t i = 0; i < dim(); ++i) {
    if (std::isinf(lo_[i]) || std::isinf(hi_[i])) {
      return "non-finite bound in dimension " + std::to_string(i);
    }
  }
  return "";
}

double HyperRect::Volume() const {
  if (IsEmpty()) return 0.0;
  double v = 1.0;
  for (size_t i = 0; i < dim(); ++i) v *= (hi_[i] - lo_[i]);
  return v;
}

double HyperRect::Margin() const {
  if (IsEmpty()) return 0.0;
  double m = 0.0;
  for (size_t i = 0; i < dim(); ++i) m += (hi_[i] - lo_[i]);
  return m;
}

std::vector<double> HyperRect::Center() const {
  std::vector<double> c(dim());
  for (size_t i = 0; i < dim(); ++i) c[i] = 0.5 * (lo_[i] + hi_[i]);
  return c;
}

bool HyperRect::ContainsPoint(const double* p) const {
  return RawContainsPoint(lo_.data(), hi_.data(), p, dim());
}

bool HyperRect::ContainsPoint(const std::vector<double>& p) const {
  NNCELL_DCHECK(p.size() == dim());
  return ContainsPoint(p.data());
}

bool HyperRect::ContainsRect(const HyperRect& r) const {
  NNCELL_DCHECK(r.dim() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    if (r.lo_[i] < lo_[i] || r.hi_[i] > hi_[i]) return false;
  }
  return true;
}

bool HyperRect::Intersects(const HyperRect& r) const {
  NNCELL_DCHECK(r.dim() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    if (r.hi_[i] < lo_[i] || r.lo_[i] > hi_[i]) return false;
  }
  return true;
}

void HyperRect::ExpandToPoint(const double* p) {
  for (size_t i = 0; i < dim(); ++i) {
    lo_[i] = std::min(lo_[i], p[i]);
    hi_[i] = std::max(hi_[i], p[i]);
  }
}

void HyperRect::ExpandToRect(const HyperRect& r) {
  NNCELL_DCHECK(r.dim() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    lo_[i] = std::min(lo_[i], r.lo_[i]);
    hi_[i] = std::max(hi_[i], r.hi_[i]);
  }
}

HyperRect HyperRect::Union(const HyperRect& a, const HyperRect& b) {
  HyperRect r = a;
  r.ExpandToRect(b);
  return r;
}

HyperRect HyperRect::Intersection(const HyperRect& a, const HyperRect& b) {
  NNCELL_DCHECK(a.dim() == b.dim());
  HyperRect r = HyperRect::Empty(a.dim());
  for (size_t i = 0; i < a.dim(); ++i) {
    double lo = std::max(a.lo_[i], b.lo_[i]);
    double hi = std::min(a.hi_[i], b.hi_[i]);
    if (lo > hi) return HyperRect::Empty(a.dim());
    r.lo_[i] = lo;
    r.hi_[i] = hi;
  }
  return r;
}

double HyperRect::OverlapVolume(const HyperRect& a, const HyperRect& b) {
  NNCELL_DCHECK(a.dim() == b.dim());
  return RawOverlapVolume(a.lo_.data(), a.hi_.data(), b.lo_.data(),
                          b.hi_.data(), a.dim());
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

double RawUnionVolume(const double* alo, const double* ahi, const double* blo,
                      const double* bhi, size_t dim) {
  if (dim == 0) return 0.0;  // Volume() of a zero-dimensional rectangle
  double v = 1.0;
  for (size_t i = 0; i < dim; ++i) {
    // ExpandToRect's operand order, so the bounds keep the union's bits.
    const double lo = std::min(alo[i], blo[i]);
    const double hi = std::max(ahi[i], bhi[i]);
    if (lo > hi) return 0.0;  // Volume() of an empty rectangle
    v *= (hi - lo);
  }
  return v;
}

double HyperRect::Enlargement(const HyperRect& r) const {
  NNCELL_DCHECK(r.dim() == dim());
  return RawUnionVolume(lo_.data(), hi_.data(), r.lo_.data(), r.hi_.data(),
                        dim()) -
         Volume();
}

double HyperRect::MinDistSq(const double* p) const {
  return kernels::MinDistSqRef(lo_.data(), hi_.data(), p, dim());
}

double HyperRect::MaxDistSq(const double* p) const {
  double s = 0.0;
  for (size_t i = 0; i < dim(); ++i) {
    double d = std::max(std::abs(p[i] - lo_[i]), std::abs(p[i] - hi_[i]));
    s += d * d;
  }
  return s;
}

double HyperRect::MinMaxDistSq(const double* p) const {
  // [RKV 95]: min over dimensions k of
  //   |p_k - rm_k|^2 + sum_{i != k} |p_i - rM_i|^2
  // where rm_k is the nearer face in dim k and rM_i the farther face.
  // The reference kernel carries the two-pass allocation-free form.
  return kernels::MinMaxDistSqRef(lo_.data(), hi_.data(), p, dim());
}

std::string HyperRect::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < dim(); ++i) {
    if (i) os << " x ";
    os << "(" << lo_[i] << "," << hi_[i] << ")";
  }
  os << "]";
  return os.str();
}

}  // namespace nncell
