#ifndef NNCELL_COMMON_KERNELS_KERNELS_H_
#define NNCELL_COMMON_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

// Runtime-dispatched SIMD kernels for the distance and LP hot loops.
//
// One implementation table (KernelOps) is selected once, at first use, from
// CPU feature detection — overridable with NNCELL_SIMD=off|scalar|avx2|neon
// for testing. Every entry obeys the FP-determinism contract below, so all
// dispatch levels produce bit-identical doubles and the differential suite's
// byte-identity guarantees hold under any NNCELL_SIMD setting.
//
// FP-determinism contract (docs/KERNELS.md has the full write-up):
//
//  * Point-lane kernels (l2_batch_soa, l2_rows, l2_batch4, min_dist_batch4,
//    min_max_dist_batch4) vectorize ACROSS points/rects: SIMD lane j holds
//    object j, and each object's per-dimension accumulation runs in the
//    same strictly sequential order as the scalar pair kernel. They are
//    bit-equal to L2DistSqPair / MinDistSqRef / MinMaxDistSqRef by
//    construction.
//  * Dim-lane kernels (dot, mat_vec) vectorize ACROSS dimensions and use
//    the canonical lane-blocked reduction: kLaneWidth partial sums
//    (accumulator j takes terms i with i % kLaneWidth == j over the
//    blocked prefix), combined as (acc0 + acc2) + (acc1 + acc3), then the
//    tail terms added sequentially. The scalar reference implements the
//    identical order, so results match bit-for-bit across ISAs.
//  * axpy is elementwise (one mul + one add per element) — trivially
//    order-free.
//  * No FMA contraction anywhere: every kernel translation unit compiles
//    with -ffp-contract=off, keeping the separate mul/add roundings that
//    the contract above assumes.
//  * min/max selections are expressed as compare+select with the exact
//    semantics of the C ternary ((a > b) ? a : b), mirrored in SIMD by
//    cmp+blend — never min_pd/max_pd — so NaN propagation matches the
//    scalar reference lane for lane.
//  * box_hits does no arithmetic, only ordered compares, so every table
//    returns the same bits by construction.

namespace nncell {
namespace kernels {

// SIMD lane width for SoA blocking, matrix-row padding, and the canonical
// blocked reduction. Fixed at 4 on every ISA (NEON runs 2x float64x2) so
// numeric results never depend on the dispatch level.
inline constexpr size_t kLaneWidth = 4;

enum class SimdLevel : int { kScalar = 0, kAvx2 = 1, kNeon = 2 };

// Rounds a row length up to the next multiple of kLaneWidth.
inline constexpr size_t PaddedDim(size_t dim) {
  return (dim + kLaneWidth - 1) / kLaneWidth * kLaneWidth;
}

struct KernelOps {
  const char* name;  // "scalar" | "avx2" | "neon"

  // Dim-lane (canonical blocked order). dot(a, b, n); mat_vec computes
  // y[r] = dot(a + r * stride, x, n) for r in [0, rows) — stride may
  // exceed n (padded constraint matrices).
  double (*dot)(const double* a, const double* b, size_t n);
  void (*mat_vec)(const double* a, size_t rows, size_t n, size_t stride,
                  const double* x, double* y);

  // Elementwise y[i] += alpha * x[i].
  void (*axpy)(double alpha, const double* x, double* y, size_t n);

  // Point-lane. blocks is the SoaBlockStore layout: full blocks of
  // kLaneWidth points, dimension-major inside a block
  // (blocks[b * kLaneWidth * dim + i * kLaneWidth + lane]). Writes
  // out[0..n) = L2DistSqPair(q, point_j, dim), bit-equal per point.
  void (*l2_batch_soa)(const double* q, const double* blocks, size_t n,
                       size_t dim, double* out);
  // Row-block variant over n consecutive rows of dim doubles (the AoS
  // point table): out[j] = L2DistSqPair(rows + j * dim, q, dim).
  void (*l2_rows)(const double* q, const double* rows, size_t n, size_t dim,
                  double* out);
  // Gather variant over 4 arbitrary row pointers (AoS candidates).
  void (*l2_batch4)(const double* q, const double* const p[4], size_t dim,
                    double* out);
  // MINDIST / MINMAXDIST [RKV 95] over 4 raw MBR bounds at once; lane j
  // is rect j, bit-equal to MinDistSqRef / MinMaxDistSqRef.
  void (*min_dist_batch4)(const double* const lo[4], const double* const hi[4],
                          const double* p, size_t dim, double* out);
  void (*min_max_dist_batch4)(const double* const lo[4],
                              const double* const hi[4], const double* p,
                              size_t dim, double* out);

  // Box test over n <= kBoxHitsMax consecutive entries of a tree node's
  // entry stream (stride 2 * dim + 1 doubles: lo | hi | id bits, the id
  // never read). Bit j of the result is set iff entry j's box meets the
  // closed box [blo, bhi]: lo_j[i] <= bhi[i] && hi_j[i] >= blo[i] for
  // every i. Bits n..63 are 0. blo == bhi == q is the point-in-box test.
  // Ordered compares only: a NaN bound never hits.
  uint64_t (*box_hits)(const double* entries, size_t n, size_t dim,
                       const double* blo, const double* bhi);
};

// Entries per box_hits call: one bit each in the 64-bit mask.
inline constexpr size_t kBoxHitsMax = 64;

// The dispatched table (resolved once, thread-safe) and the scalar
// reference table (always available, what kernel_test compares against).
const KernelOps& Ops();
const KernelOps& ScalarOps();

SimdLevel ActiveLevel();
const char* ActiveLevelName();
// Why the active level was chosen: "cpuid", "env", or
// "env-fallback:<requested>" when NNCELL_SIMD asked for an ISA this
// build/CPU cannot run (the dispatcher then falls back to scalar).
const char* DispatchReason();

// Every op table this build can run (scalar always; avx2/neon when both
// compiled in and supported by the CPU). For the equivalence suite.
std::vector<const KernelOps*> AllOpsForTest();

// --- scalar reference kernels (sequential order) --------------------------
// These are the semantic anchors for the point-lane kernels and the
// single-pair entry points used by thin wrappers in common/distance.h and
// common/hyper_rect.h. Out-of-line in kernels_scalar.cc so they compile
// with -ffp-contract=off on every architecture.

// s = sum_i (a[i] - b[i])^2, strictly sequential.
double L2DistSqPair(const double* a, const double* b, size_t dim);

// s = sum_i a[i]^2, strictly sequential.
double L2NormSqRef(const double* a, size_t dim);

// MINDIST: squared distance from p to the rect [lo, hi], strictly
// sequential, branchless form (bit-equal to the classic branchy loop for
// well-formed rects, NaN coordinates contribute 0 like the branchy form).
double MinDistSqRef(const double* lo, const double* hi, const double* p,
                    size_t dim);

// box_hits of one entry (lo | hi): the branch-free reference predicate,
// & over every dimension with no early exit.
bool BoxHitRef(const double* lo, const double* hi, const double* blo,
               const double* bhi, size_t dim);

// MINMAXDIST of [RKV 95], two-pass allocation-free form, sequential.
double MinMaxDistSqRef(const double* lo, const double* hi, const double* p,
                       size_t dim);

// --- convenience wrappers over the dispatched table -----------------------

inline double Dot(const double* a, const double* b, size_t n) {
  return Ops().dot(a, b, n);
}

inline void MatVec(const double* a, size_t rows, size_t n, size_t stride,
                   const double* x, double* y) {
  Ops().mat_vec(a, rows, n, stride, x, y);
}

inline void Axpy(double alpha, const double* x, double* y, size_t n) {
  Ops().axpy(alpha, x, y, n);
}

inline void L2DistSqRows(const double* q, const double* rows, size_t n,
                         size_t dim, double* out) {
  Ops().l2_rows(q, rows, n, dim, out);
}

inline void L2DistSqBatch4(const double* q, const double* const p[4],
                           size_t dim, double* out) {
  Ops().l2_batch4(q, p, dim, out);
}

inline void MinDistSqBatch4(const double* const lo[4],
                            const double* const hi[4], const double* p,
                            size_t dim, double* out) {
  Ops().min_dist_batch4(lo, hi, p, dim, out);
}

inline void MinMaxDistSqBatch4(const double* const lo[4],
                               const double* const hi[4], const double* p,
                               size_t dim, double* out) {
  Ops().min_max_dist_batch4(lo, hi, p, dim, out);
}

inline uint64_t BoxHits(const double* entries, size_t n, size_t dim,
                        const double* blo, const double* bhi) {
  return Ops().box_hits(entries, n, dim, blo, bhi);
}

}  // namespace kernels
}  // namespace nncell

#endif  // NNCELL_COMMON_KERNELS_KERNELS_H_
