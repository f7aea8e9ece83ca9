// Scalar reference kernels. This TU defines the numeric ground truth: the
// SIMD TUs must be bit-equal to these functions (tests/kernel_test.cc
// enforces it). Compiled with -ffp-contract=off so no FMA contraction can
// sneak in on architectures where fused multiply-add is the default.

#include "common/kernels/kernels_isa.h"

#include <limits>

namespace nncell {
namespace kernels {

double L2DistSqPair(const double* a, const double* b, size_t dim) {
  double s = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double L2NormSqRef(const double* a, size_t dim) {
  double s = 0.0;
  for (size_t i = 0; i < dim; ++i) s += a[i] * a[i];
  return s;
}

namespace {

// The C ternary, spelled out: this is the exact select the SIMD kernels
// mirror with cmp+blend (second operand wins whenever the compare is
// false, including NaN).
inline double SelectMax(double a, double b) { return (a > b) ? a : b; }
inline double SelectMin(double a, double b) { return (a < b) ? a : b; }

}  // namespace

double MinDistSqRef(const double* lo, const double* hi, const double* p,
                    size_t dim) {
  double s = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    // (m > 0) ? m : 0 — a NaN coordinate contributes 0, exactly like the
    // classic branchy MINDIST loop this replaces.
    double m = SelectMax(lo[i] - p[i], p[i] - hi[i]);
    double d = SelectMax(m, 0.0);
    s += d * d;
  }
  return s;
}

bool BoxHitRef(const double* lo, const double* hi, const double* blo,
               const double* bhi, size_t dim) {
  bool hit = true;
  for (size_t i = 0; i < dim; ++i) {
    hit &= (lo[i] <= bhi[i]) & (hi[i] >= blo[i]);
  }
  return hit;
}

double MinMaxDistSqRef(const double* lo, const double* hi, const double* p,
                       size_t dim) {
  // [RKV 95], two passes: farther-face sum first, then swap one term per
  // dimension. Face selection via the same compare+select the SIMD lanes
  // use: far face is lo when p >= mid, near face is lo when p <= mid.
  double sum_max = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    double mid = 0.5 * (lo[i] + hi[i]);
    double far_face = (p[i] >= mid) ? lo[i] : hi[i];
    double dmax = p[i] - far_face;
    sum_max += dmax * dmax;
  }
  double best = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < dim; ++k) {
    double mid = 0.5 * (lo[k] + hi[k]);
    double far_face = (p[k] >= mid) ? lo[k] : hi[k];
    double near_face = (p[k] <= mid) ? lo[k] : hi[k];
    double dmax = p[k] - far_face;
    double dmin = p[k] - near_face;
    double v = sum_max - dmax * dmax + dmin * dmin;
    best = SelectMin(v, best);
  }
  return best;
}

namespace {

// Canonical blocked dot: kLaneWidth partial sums over the blocked prefix
// (accumulator j takes terms i with i % 4 == j), combined as
// (acc0 + acc2) + (acc1 + acc3) — the cheap 256->128->64 SIMD reduction —
// then the tail added sequentially. Every dim-lane kernel, on every ISA,
// reproduces exactly this order.
double DotBlocked(const double* a, const double* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  size_t n4 = n & ~(kLaneWidth - 1);
  for (; i < n4; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  double s = (acc0 + acc2) + (acc1 + acc3);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

void MatVecBlocked(const double* a, size_t rows, size_t n, size_t stride,
                   const double* x, double* y) {
  for (size_t r = 0; r < rows; ++r) {
    y[r] = DotBlocked(a + r * stride, x, n);
  }
}

void AxpyScalar(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void L2BatchSoaScalar(const double* q, const double* blocks, size_t n,
                      size_t dim, double* out) {
  for (size_t j = 0; j < n; ++j) {
    const double* blk = blocks + (j / kLaneWidth) * kLaneWidth * dim;
    size_t lane = j % kLaneWidth;
    double s = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      double d = blk[i * kLaneWidth + lane] - q[i];
      s += d * d;
    }
    out[j] = s;
  }
}

void L2RowsScalar(const double* q, const double* rows, size_t n, size_t dim,
                  double* out) {
  for (size_t j = 0; j < n; ++j) out[j] = L2DistSqPair(rows + j * dim, q, dim);
}

void L2Batch4Scalar(const double* q, const double* const p[4], size_t dim,
                    double* out) {
  for (int j = 0; j < 4; ++j) out[j] = L2DistSqPair(p[j], q, dim);
}

void MinDistBatch4Scalar(const double* const lo[4], const double* const hi[4],
                         const double* p, size_t dim, double* out) {
  for (int j = 0; j < 4; ++j) out[j] = MinDistSqRef(lo[j], hi[j], p, dim);
}

void MinMaxDistBatch4Scalar(const double* const lo[4],
                            const double* const hi[4], const double* p,
                            size_t dim, double* out) {
  for (int j = 0; j < 4; ++j) out[j] = MinMaxDistSqRef(lo[j], hi[j], p, dim);
}

uint64_t BoxHitsScalar(const double* entries, size_t n, size_t dim,
                       const double* blo, const double* bhi) {
  const size_t stride = 2 * dim + 1;
  uint64_t mask = 0;
  for (size_t j = 0; j < n; ++j) {
    const double* lo = entries + j * stride;
    mask |= uint64_t{BoxHitRef(lo, lo + dim, blo, bhi, dim)} << j;
  }
  return mask;
}

const KernelOps kScalarOps = {
    "scalar",        DotBlocked,       MatVecBlocked,
    AxpyScalar,      L2BatchSoaScalar, L2RowsScalar,
    L2Batch4Scalar,  MinDistBatch4Scalar, MinMaxDistBatch4Scalar,
    BoxHitsScalar,
};

}  // namespace

const KernelOps* GetScalarOps() { return &kScalarOps; }

}  // namespace kernels
}  // namespace nncell
