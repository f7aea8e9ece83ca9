// NEON kernels (aarch64). Compiled with -ffp-contract=off so the compiler
// cannot fuse the separate mul/add roundings into fmla. The dim-lane
// kernels run the canonical 4-wide blocked order as two float64x2 halves;
// the SoA batch kernel puts points in lanes (per-point order sequential).
// The row and pointer-gather kernels (l2_rows, l2_batch4, min_dist_batch4,
// min_max_dist_batch4) reuse the scalar reference: NEON has neither a
// gather nor a cheap 4x4 transpose of doubles, so lane-inserting from 4
// rows buys nothing over scalar code, and bit-equality is then free.
// box_hits reuses it too: its compares are the same on every ISA.

#include "common/kernels/kernels_isa.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace nncell {
namespace kernels {
namespace {

double DotNeon(const double* a, const double* b, size_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);  // accumulators 0,1
  float64x2_t acc23 = vdupq_n_f64(0.0);  // accumulators 2,3
  size_t i = 0;
  size_t n4 = n & ~(kLaneWidth - 1);
  for (; i < n4; i += 4) {
    acc01 = vaddq_f64(acc01, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    acc23 = vaddq_f64(
        acc23, vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
  }
  // (acc0 + acc2) + (acc1 + acc3), as in the canonical combine.
  float64x2_t pair = vaddq_f64(acc01, acc23);
  double s = vgetq_lane_f64(pair, 0) + vgetq_lane_f64(pair, 1);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

void MatVecNeon(const double* a, size_t rows, size_t n, size_t stride,
                const double* x, double* y) {
  for (size_t r = 0; r < rows; ++r) {
    y[r] = DotNeon(a + r * stride, x, n);
  }
}

void AxpyNeon(double alpha, const double* x, double* y, size_t n) {
  float64x2_t va = vdupq_n_f64(alpha);
  size_t i = 0;
  size_t n2 = n & ~size_t{1};
  for (; i < n2; i += 2) {
    vst1q_f64(y + i,
              vaddq_f64(vld1q_f64(y + i), vmulq_f64(va, vld1q_f64(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void L2BatchSoaNeon(const double* q, const double* blocks, size_t n,
                    size_t dim, double* out) {
  size_t full = n / kLaneWidth;
  size_t blk_doubles = kLaneWidth * dim;
  double tmp[kLaneWidth];
  size_t nblocks = (n + kLaneWidth - 1) / kLaneWidth;
  for (size_t b = 0; b < nblocks; ++b) {
    const double* blk = blocks + b * blk_doubles;
    float64x2_t acc01 = vdupq_n_f64(0.0);
    float64x2_t acc23 = vdupq_n_f64(0.0);
    for (size_t i = 0; i < dim; ++i) {
      float64x2_t qv = vdupq_n_f64(q[i]);
      float64x2_t d01 = vsubq_f64(vld1q_f64(blk + i * kLaneWidth), qv);
      float64x2_t d23 = vsubq_f64(vld1q_f64(blk + i * kLaneWidth + 2), qv);
      acc01 = vaddq_f64(acc01, vmulq_f64(d01, d01));
      acc23 = vaddq_f64(acc23, vmulq_f64(d23, d23));
    }
    if (b < full) {
      vst1q_f64(out + b * kLaneWidth, acc01);
      vst1q_f64(out + b * kLaneWidth + 2, acc23);
    } else {
      vst1q_f64(tmp, acc01);
      vst1q_f64(tmp + 2, acc23);
      for (size_t j = 0; j < n % kLaneWidth; ++j) {
        out[b * kLaneWidth + j] = tmp[j];
      }
    }
  }
}

void L2RowsNeon(const double* q, const double* rows, size_t n, size_t dim,
                double* out) {
  GetScalarOps()->l2_rows(q, rows, n, dim, out);
}

void L2Batch4Neon(const double* q, const double* const p[4], size_t dim,
                  double* out) {
  GetScalarOps()->l2_batch4(q, p, dim, out);
}

void MinDistBatch4Neon(const double* const lo[4], const double* const hi[4],
                       const double* p, size_t dim, double* out) {
  GetScalarOps()->min_dist_batch4(lo, hi, p, dim, out);
}

void MinMaxDistBatch4Neon(const double* const lo[4],
                          const double* const hi[4], const double* p,
                          size_t dim, double* out) {
  GetScalarOps()->min_max_dist_batch4(lo, hi, p, dim, out);
}

uint64_t BoxHitsNeon(const double* entries, size_t n, size_t dim,
                     const double* blo, const double* bhi) {
  return GetScalarOps()->box_hits(entries, n, dim, blo, bhi);
}

const KernelOps kNeonOps = {
    "neon",          DotNeon,        MatVecNeon,
    AxpyNeon,        L2BatchSoaNeon, L2RowsNeon,
    L2Batch4Neon,    MinDistBatch4Neon, MinMaxDistBatch4Neon,
    BoxHitsNeon,
};

}  // namespace

const KernelOps* GetNeonOps() { return &kNeonOps; }

}  // namespace kernels
}  // namespace nncell

#else  // !__aarch64__

namespace nncell {
namespace kernels {

const KernelOps* GetNeonOps() { return nullptr; }

}  // namespace kernels
}  // namespace nncell

#endif
