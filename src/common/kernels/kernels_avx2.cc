// AVX2 kernels. Compiled with -mavx2 -ffp-contract=off on x86-64 (the
// dispatcher only selects this table when cpuid reports AVX2, so the TU may
// freely use the intrinsics). Every kernel is bit-equal to the scalar
// reference in kernels_scalar.cc: point-lane kernels keep each object's
// accumulation strictly sequential (lanes are objects), dim-lane kernels
// reproduce the canonical blocked reduction, and all min/max selections use
// cmp+blend with exact C-ternary semantics (never min_pd/max_pd, whose NaN
// behavior differs).

#include "common/kernels/kernels_isa.h"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

namespace nncell {
namespace kernels {
namespace {

// (a > b) ? a : b per lane, matching SelectMax in the scalar reference:
// blendv picks the second source where the compare is true, the first
// (here b) where it is false — including every NaN case.
inline __m256d SelectMaxPd(__m256d a, __m256d b) {
  return _mm256_blendv_pd(b, a, _mm256_cmp_pd(a, b, _CMP_GT_OQ));
}

// (v < best) ? v : best per lane.
inline __m256d SelectMinPd(__m256d v, __m256d best) {
  return _mm256_blendv_pd(best, v, _mm256_cmp_pd(v, best, _CMP_LT_OQ));
}

// (acc0 + acc2) + (acc1 + acc3): the canonical combine of the four lane
// accumulators (see DotBlocked in kernels_scalar.cc).
inline double ReduceBlocked(__m256d acc) {
  __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(acc),
                            _mm256_extractf128_pd(acc, 1));
  return _mm_cvtsd_f64(pair) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  size_t n4 = n & ~(kLaneWidth - 1);
  for (; i < n4; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double s = ReduceBlocked(acc);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

void MatVecAvx2(const double* a, size_t rows, size_t n, size_t stride,
                const double* x, double* y) {
  for (size_t r = 0; r < rows; ++r) {
    y[r] = DotAvx2(a + r * stride, x, n);
  }
}

void AxpyAvx2(double alpha, const double* x, double* y, size_t n) {
  __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  size_t n4 = n & ~(kLaneWidth - 1);
  for (; i < n4; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

// acc + (v - q)^2 per lane: one dimension's term of the pair kernel.
inline __m256d AddSqDiff(__m256d acc, __m256d v, __m256d q) {
  __m256d d = _mm256_sub_pd(v, q);
  return _mm256_add_pd(acc, _mm256_mul_pd(d, d));
}

// One SoA block: lane j is point j, per-dimension accumulation sequential.
inline __m256d L2BlockAvx2(const double* q, const double* blk, size_t dim) {
  __m256d acc = _mm256_setzero_pd();
  for (size_t i = 0; i < dim; ++i) {
    acc = AddSqDiff(acc, _mm256_loadu_pd(blk + i * kLaneWidth),
                    _mm256_set1_pd(q[i]));
  }
  return acc;
}

void L2BatchSoaAvx2(const double* q, const double* blocks, size_t n,
                    size_t dim, double* out) {
  size_t full = n / kLaneWidth;
  for (size_t b = 0; b < full; ++b) {
    _mm256_storeu_pd(out + b * kLaneWidth,
                     L2BlockAvx2(q, blocks + b * kLaneWidth * dim, dim));
  }
  size_t rem = n % kLaneWidth;
  if (rem) {
    double tmp[kLaneWidth];
    _mm256_storeu_pd(tmp, L2BlockAvx2(q, blocks + full * kLaneWidth * dim,
                                      dim));
    for (size_t j = 0; j < rem; ++j) out[full * kLaneWidth + j] = tmp[j];
  }
}

inline __m256d Gather4(const double* const p[4], size_t i) {
  return _mm256_set_pd(p[3][i], p[2][i], p[1][i], p[0][i]);
}

// Four consecutive rows at a time, lane j = row j. Each 4-dimension chunk
// is four row loads transposed in registers, then its dimensions are added
// one after another, so every lane keeps the pair kernel's sequential
// order. The four chunk columns are spelled out: held in an array and
// looped over they spill to the stack under gcc 12 -O2, which made a
// 3,000-row d=16 scan 8.4 µs instead of 4.6 µs.
void L2RowsAvx2(const double* q, const double* rows, size_t n, size_t dim,
                double* out) {
  const size_t n4 = n & ~(kLaneWidth - 1);
  const size_t d4 = dim & ~(kLaneWidth - 1);
  for (size_t j = 0; j < n4; j += kLaneWidth) {
    const double* r0 = rows + j * dim;
    const double* r1 = r0 + dim;
    const double* r2 = r1 + dim;
    const double* r3 = r2 + dim;
    __m256d acc = _mm256_setzero_pd();
    size_t i = 0;
    for (; i < d4; i += kLaneWidth) {
      __m256d a = _mm256_loadu_pd(r0 + i);
      __m256d b = _mm256_loadu_pd(r1 + i);
      __m256d c = _mm256_loadu_pd(r2 + i);
      __m256d d = _mm256_loadu_pd(r3 + i);
      __m256d ab_even = _mm256_unpacklo_pd(a, b);  // a0 b0 a2 b2
      __m256d ab_odd = _mm256_unpackhi_pd(a, b);   // a1 b1 a3 b3
      __m256d cd_even = _mm256_unpacklo_pd(c, d);  // c0 d0 c2 d2
      __m256d cd_odd = _mm256_unpackhi_pd(c, d);   // c1 d1 c3 d3
      acc = AddSqDiff(acc, _mm256_permute2f128_pd(ab_even, cd_even, 0x20),
                      _mm256_set1_pd(q[i]));
      acc = AddSqDiff(acc, _mm256_permute2f128_pd(ab_odd, cd_odd, 0x20),
                      _mm256_set1_pd(q[i + 1]));
      acc = AddSqDiff(acc, _mm256_permute2f128_pd(ab_even, cd_even, 0x31),
                      _mm256_set1_pd(q[i + 2]));
      acc = AddSqDiff(acc, _mm256_permute2f128_pd(ab_odd, cd_odd, 0x31),
                      _mm256_set1_pd(q[i + 3]));
    }
    for (; i < dim; ++i) {
      acc = AddSqDiff(acc, _mm256_set_pd(r3[i], r2[i], r1[i], r0[i]),
                      _mm256_set1_pd(q[i]));
    }
    _mm256_storeu_pd(out + j, acc);
  }
  for (size_t j = n4; j < n; ++j) {
    out[j] = L2DistSqPair(rows + j * dim, q, dim);
  }
}

void L2Batch4Avx2(const double* q, const double* const p[4], size_t dim,
                  double* out) {
  __m256d acc = _mm256_setzero_pd();
  for (size_t i = 0; i < dim; ++i) {
    acc = AddSqDiff(acc, Gather4(p, i), _mm256_set1_pd(q[i]));
  }
  _mm256_storeu_pd(out, acc);
}

void MinDistBatch4Avx2(const double* const lo[4], const double* const hi[4],
                       const double* p, size_t dim, double* out) {
  __m256d acc = _mm256_setzero_pd();
  __m256d zero = _mm256_setzero_pd();
  for (size_t i = 0; i < dim; ++i) {
    __m256d pv = _mm256_set1_pd(p[i]);
    __m256d t1 = _mm256_sub_pd(Gather4(lo, i), pv);
    __m256d t2 = _mm256_sub_pd(pv, Gather4(hi, i));
    __m256d d = SelectMaxPd(SelectMaxPd(t1, t2), zero);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  _mm256_storeu_pd(out, acc);
}

void MinMaxDistBatch4Avx2(const double* const lo[4],
                          const double* const hi[4], const double* p,
                          size_t dim, double* out) {
  const __m256d half = _mm256_set1_pd(0.5);
  __m256d sum_max = _mm256_setzero_pd();
  for (size_t i = 0; i < dim; ++i) {
    __m256d lov = Gather4(lo, i);
    __m256d hiv = Gather4(hi, i);
    __m256d pv = _mm256_set1_pd(p[i]);
    __m256d mid = _mm256_mul_pd(half, _mm256_add_pd(lov, hiv));
    // (p >= mid) ? lo : hi
    __m256d far_face = _mm256_blendv_pd(
        hiv, lov, _mm256_cmp_pd(pv, mid, _CMP_GE_OQ));
    __m256d dmax = _mm256_sub_pd(pv, far_face);
    sum_max = _mm256_add_pd(sum_max, _mm256_mul_pd(dmax, dmax));
  }
  __m256d best = _mm256_set1_pd(__builtin_huge_val());
  for (size_t k = 0; k < dim; ++k) {
    __m256d lov = Gather4(lo, k);
    __m256d hiv = Gather4(hi, k);
    __m256d pv = _mm256_set1_pd(p[k]);
    __m256d mid = _mm256_mul_pd(half, _mm256_add_pd(lov, hiv));
    __m256d far_face = _mm256_blendv_pd(
        hiv, lov, _mm256_cmp_pd(pv, mid, _CMP_GE_OQ));
    // (p <= mid) ? lo : hi
    __m256d near_face = _mm256_blendv_pd(
        hiv, lov, _mm256_cmp_pd(pv, mid, _CMP_LE_OQ));
    __m256d dmax = _mm256_sub_pd(pv, far_face);
    __m256d dmin = _mm256_sub_pd(pv, near_face);
    // (sum_max - dmax^2) + dmin^2, same association as the reference.
    __m256d v = _mm256_add_pd(
        _mm256_sub_pd(sum_max, _mm256_mul_pd(dmax, dmax)),
        _mm256_mul_pd(dmin, dmin));
    best = SelectMinPd(v, best);
  }
  _mm256_storeu_pd(out, best);
}

// One entry per step, its dimensions four at a time: lo <= bhi and
// hi >= blo as ordered compares (false on NaN, like the scalar <= and >=),
// and-ed, and the chunk hits when all four lanes are set. The dim % 4 tail
// runs the scalar predicate. No early exit, so no branch depends on data.
uint64_t BoxHitsAvx2(const double* entries, size_t n, size_t dim,
                     const double* blo, const double* bhi) {
  const size_t stride = 2 * dim + 1;
  const size_t d4 = dim & ~(kLaneWidth - 1);
  uint64_t mask = 0;
  for (size_t j = 0; j < n; ++j) {
    const double* lo = entries + j * stride;
    const double* hi = lo + dim;
    bool hit = true;
    size_t i = 0;
    for (; i < d4; i += kLaneWidth) {
      __m256d le = _mm256_cmp_pd(_mm256_loadu_pd(lo + i),
                                 _mm256_loadu_pd(bhi + i), _CMP_LE_OQ);
      __m256d ge = _mm256_cmp_pd(_mm256_loadu_pd(hi + i),
                                 _mm256_loadu_pd(blo + i), _CMP_GE_OQ);
      hit &= _mm256_movemask_pd(_mm256_and_pd(le, ge)) == 0xF;
    }
    for (; i < dim; ++i) hit &= (lo[i] <= bhi[i]) & (hi[i] >= blo[i]);
    mask |= uint64_t{hit} << j;
  }
  return mask;
}

const KernelOps kAvx2Ops = {
    "avx2",          DotAvx2,        MatVecAvx2,
    AxpyAvx2,        L2BatchSoaAvx2, L2RowsAvx2,
    L2Batch4Avx2,    MinDistBatch4Avx2, MinMaxDistBatch4Avx2,
    BoxHitsAvx2,
};

}  // namespace

const KernelOps* GetAvx2Ops() { return &kAvx2Ops; }

}  // namespace kernels
}  // namespace nncell

#else  // !(__AVX2__ && __x86_64__)

namespace nncell {
namespace kernels {

const KernelOps* GetAvx2Ops() { return nullptr; }

}  // namespace kernels
}  // namespace nncell

#endif
