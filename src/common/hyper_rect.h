#ifndef NNCELL_COMMON_HYPER_RECT_H_
#define NNCELL_COMMON_HYPER_RECT_H_

#include <algorithm>
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
// The bounds are one buffer of 2d doubles, lo then hi: the layout of tree
// pages and of the cell table, so a rectangle converts to and from stored
// bounds with one copy. The geometry lives in the Raw* functions below,
// which take (lo, hi, dim) and serve stored bounds and rectangles alike.
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

  // The rectangle whose 2*dim bounds, lo then hi, start at `lohi`.
  static HyperRect FromBounds(const double* lohi, size_t dim);

  HyperRect(const std::vector<double>& lo, const std::vector<double>& hi);

  size_t dim() const { return bounds_.size() / 2; }
  double lo(size_t i) const { return bounds_[i]; }
  double hi(size_t i) const { return bounds_[dim() + i]; }
  double& lo(size_t i) { return bounds_[i]; }
  double& hi(size_t i) { return bounds_[dim() + i]; }
  // lo() is also the start of all 2*dim bounds: hi() == lo() + dim().
  const double* lo() const { return bounds_.data(); }
  const double* hi() const { return bounds_.data() + dim(); }

  // True when lo > hi in some dimension (the Empty() state).
  bool IsEmpty() const;

  // Structural self-check used by the validators: no coordinate is NaN,
  // no bound is inverted (lo > hi) unless `allow_empty` accepts the
  // canonical Empty() state, and every bound is finite unless empty. A
  // silently NaN/inverted rectangle is the failure mode Lemma 1 cannot
  // catch (it only tolerates *enlarged* MBRs), so the tree and cell
  // validators reject these outright. Returns "" when well formed, else a
  // description.
  std::string CheckWellFormed(bool allow_empty = false) const;

  double Extent(size_t i) const { return hi(i) - lo(i); }
  double Volume() const;

  bool ContainsPoint(const double* p) const;
  bool ContainsRect(const HyperRect& r) const;

  // Geometric operations; all require matching dimensionality.
  void ExpandToPoint(const double* p);
  void ExpandToRect(const HyperRect& r);
  // Intersection; returns Empty(dim) when disjoint.
  static HyperRect Intersection(const HyperRect& a, const HyperRect& b);

 private:
  std::vector<double> bounds_;  // lo[0..dim), then hi[0..dim)
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
inline bool SameBits(const HyperRect& rect, const double* bounds) {
  return std::memcmp(rect.lo(), bounds, 2 * rect.dim() * sizeof(double)) == 0;
}

// Bit-for-bit equality, so -0.0 and +0.0 bounds differ: a rectangle kept
// because it compares equal leaves the same bytes as one rewritten.
inline bool operator==(const HyperRect& a, const HyperRect& b) {
  return a.dim() == b.dim() && SameBits(a, b.lo());
}

// The rectangle operations over raw bounds, used alike on rectangles, on
// the zero-copy node scans of the trees (lo/hi point into serialized page
// bytes) and on flat scratch arrays.

// A NaN coordinate lies outside every rectangle.
inline bool RawContainsPoint(const double* lo, const double* hi,
                             const double* p, size_t dim) {
  for (size_t i = 0; i < dim; ++i) {
    if (!(p[i] >= lo[i] && p[i] <= hi[i])) return false;
  }
  return true;
}

// Touching rectangles intersect.
inline bool RawIntersects(const double* lo, const double* hi,
                          const double* rlo, const double* rhi, size_t dim) {
  for (size_t i = 0; i < dim; ++i) {
    if (rhi[i] < lo[i] || rlo[i] > hi[i]) return false;
  }
  return true;
}

// Grows [lo, hi] to cover [rlo, rhi] (a point p is [p, p]). The operand
// order of std::min / std::max decides which zero a tie between -0.0 and
// +0.0 keeps (the current bound), so it is part of every stored MBR's bits.
inline void RawExpand(double* lo, double* hi, const double* rlo,
                      const double* rhi, size_t dim) {
  for (size_t i = 0; i < dim; ++i) {
    lo[i] = std::min(lo[i], rlo[i]);
    hi[i] = std::max(hi[i], rhi[i]);
  }
}

// Volume of [lo, hi]; 0 when some lo > hi (the Empty() state) and for a
// zero-dimensional rectangle.
double RawVolume(const double* lo, const double* hi, size_t dim);

// Sum of the side lengths of [lo, hi] (the R*-tree "margin" surrogate for
// perimeter); 0 when some lo > hi.
double RawMargin(const double* lo, const double* hi, size_t dim);

// Volume of the intersection of [lo, hi] and [rlo, rhi] (0 when disjoint
// or touching).
double RawOverlapVolume(const double* lo, const double* hi, const double* rlo,
                        const double* rhi, size_t dim);

// MINDIST of [RKV 95]: squared L2 distance from p to the nearest point of
// the rectangle (0 if inside). The scalar reference kernel (branchless
// form, bit-equal to the classic branchy loop; see kernels_scalar.cc).
// Batched traversal loops should prefer kernels::MinDistSqBatch4.
inline double RawMinDistSq(const double* lo, const double* hi,
                           const double* p, size_t dim) {
  return kernels::MinDistSqRef(lo, hi, p, dim);
}

// MINMAXDIST of [RKV 95]: the smallest upper bound over faces such that
// the rectangle is guaranteed to contain an object within that distance,
// min over dimensions k of |p_k - rm_k|^2 + sum_{i != k} |p_i - rM_i|^2,
// where rm_k is the nearer face in dim k and rM_i the farther face.
inline double RawMinMaxDistSq(const double* lo, const double* hi,
                              const double* p, size_t dim) {
  return kernels::MinMaxDistSqRef(lo, hi, p, dim);
}

}  // namespace nncell

#endif  // NNCELL_COMMON_HYPER_RECT_H_
