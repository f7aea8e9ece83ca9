#ifndef NNCELL_COMMON_HYPER_RECT_H_
#define NNCELL_COMMON_HYPER_RECT_H_

#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "common/kernels/kernels.h"

namespace nncell {

// An axis-parallel d-dimensional rectangle [lo_i, hi_i] per dimension.
// This is the "MBR" of the paper: minimum bounding hyper-rectangles of
// NN-cells, of tree entries and of raw points (degenerate rectangles).
class HyperRect {
 public:
  HyperRect() = default;

  // An "empty" rectangle of dimension d: lo = +inf, hi = -inf so that
  // ExpandToPoint / ExpandToRect grow it correctly.
  static HyperRect Empty(size_t dim);

  // The unit data space [0,1]^d used throughout the paper.
  static HyperRect UnitCube(size_t dim);

  // A degenerate rectangle covering exactly one point.
  static HyperRect FromPoint(const double* p, size_t dim);
  static HyperRect FromPoint(const std::vector<double>& p);

  HyperRect(std::vector<double> lo, std::vector<double> hi);

  size_t dim() const { return lo_.size(); }
  double lo(size_t i) const { return lo_[i]; }
  double hi(size_t i) const { return hi_[i]; }
  double& lo(size_t i) { return lo_[i]; }
  double& hi(size_t i) { return hi_[i]; }
  const std::vector<double>& lo() const { return lo_; }
  const std::vector<double>& hi() const { return hi_; }

  // True when lo > hi in some dimension (the Empty() state).
  bool IsEmpty() const;

  // Structural self-check used by the validators: lo/hi lengths match, no
  // coordinate is NaN, no bound is inverted (lo > hi) unless `allow_empty`
  // accepts the canonical Empty() state, and every bound is finite unless
  // empty. A silently NaN/inverted rectangle is the failure mode Lemma 1
  // cannot catch (it only tolerates *enlarged* MBRs), so the tree and cell
  // validators reject these outright. Returns "" when well formed, else a
  // description.
  std::string CheckWellFormed(bool allow_empty = false) const;

  double Extent(size_t i) const { return hi_[i] - lo_[i]; }
  double Volume() const;
  // Sum of side lengths (the R*-tree "margin" surrogate for perimeter).
  double Margin() const;
  std::vector<double> Center() const;

  bool ContainsPoint(const double* p) const;
  bool ContainsPoint(const std::vector<double>& p) const;
  bool ContainsRect(const HyperRect& r) const;
  bool Intersects(const HyperRect& r) const;

  // Geometric operations; all require matching dimensionality.
  void ExpandToPoint(const double* p);
  void ExpandToRect(const HyperRect& r);
  static HyperRect Union(const HyperRect& a, const HyperRect& b);
  // Intersection; returns Empty(dim) when disjoint.
  static HyperRect Intersection(const HyperRect& a, const HyperRect& b);
  // Volume of the intersection (0 when disjoint).
  static double OverlapVolume(const HyperRect& a, const HyperRect& b);
  // Volume increase of *this needed to also cover r.
  double Enlargement(const HyperRect& r) const;

  // Squared L2 distance from point p to the nearest point of the rectangle
  // (0 if inside) -- MINDIST of [RKV 95].
  double MinDistSq(const double* p) const;
  // Squared L2 distance from p to the farthest corner -- MAXDIST.
  double MaxDistSq(const double* p) const;
  // MINMAXDIST of [RKV 95]: the smallest upper bound over faces such that
  // the rectangle is guaranteed to contain an object within that distance.
  double MinMaxDistSq(const double* p) const;

  std::string ToString() const;

  friend bool operator==(const HyperRect& a, const HyperRect& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

// True when no coordinate is NaN or infinite. Every coordinate that enters
// an index from outside is checked with this: NaN defeats the ordered
// comparisons the trees, sorts and distance bounds rely on.
inline bool AllFinite(const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return false;
  }
  return true;
}

// Bit-for-bit equality of a rectangle and stored bounds (lo, then hi).
// HyperRect::operator== compares doubles, under which -0.0 == +0.0:
// keeping an old rectangle on that test would leave a different sign bit
// than rewriting it.
inline bool SameBits(const HyperRect& rect, const double* bounds) {
  const size_t bytes = rect.dim() * sizeof(double);
  return std::memcmp(rect.lo().data(), bounds, bytes) == 0 &&
         std::memcmp(rect.hi().data(), bounds + rect.dim(), bytes) == 0;
}

inline bool SameBits(const HyperRect& a, const HyperRect& b) {
  const size_t bytes = a.dim() * sizeof(double);
  return a.dim() == b.dim() &&
         std::memcmp(a.lo().data(), b.lo().data(), bytes) == 0 &&
         std::memcmp(a.hi().data(), b.hi().data(), bytes) == 0;
}

// Raw-buffer variants of the hot-path predicates, used by the zero-copy
// node scans of the trees (lo/hi point into serialized page bytes).

// A NaN coordinate lies outside every rectangle.
inline bool RawContainsPoint(const double* lo, const double* hi,
                             const double* p, size_t dim) {
  for (size_t i = 0; i < dim; ++i) {
    if (!(p[i] >= lo[i] && p[i] <= hi[i])) return false;
  }
  return true;
}

inline bool RawIntersects(const double* lo, const double* hi,
                          const double* rlo, const double* rhi, size_t dim) {
  for (size_t i = 0; i < dim; ++i) {
    if (rhi[i] < lo[i] || rlo[i] > hi[i]) return false;
  }
  return true;
}

// HyperRect::OverlapVolume of the rectangles [lo, hi] and [rlo, rhi].
double RawOverlapVolume(const double* lo, const double* hi, const double* rlo,
                        const double* rhi, size_t dim);

// HyperRect::Union(a, b).Volume() of a = [alo, ahi] and b = [blo, bhi],
// with the same arithmetic, without building the union.
double RawUnionVolume(const double* alo, const double* ahi, const double* blo,
                      const double* bhi, size_t dim);

// MINDIST over raw bounds: the scalar reference kernel (branchless form,
// bit-equal to the classic branchy loop; see kernels_scalar.cc). Batched
// traversal loops should prefer kernels::MinDistSqBatch4.
inline double RawMinDistSq(const double* lo, const double* hi,
                           const double* p, size_t dim) {
  return kernels::MinDistSqRef(lo, hi, p, dim);
}

// MINMAXDIST of [RKV 95] over raw bounds; see HyperRect::MinMaxDistSq.
inline double RawMinMaxDistSq(const double* lo, const double* hi,
                              const double* p, size_t dim) {
  return kernels::MinMaxDistSqRef(lo, hi, p, dim);
}

}  // namespace nncell

#endif  // NNCELL_COMMON_HYPER_RECT_H_
