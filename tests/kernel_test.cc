// Kernel-equivalence suite: every op table this build can run (scalar
// always; AVX2/NEON when compiled in and supported by the CPU) must be
// bit-identical to the scalar reference on randomized inputs across all
// dims 1..32, unaligned/padded tails, and NaN/inf edge cases. This is the
// test that makes the dispatch level unobservable — the differential
// suite's byte-identity contract rides on it.

#include "common/kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/hyper_rect.h"
#include "common/kernels/soa_store.h"
#include "common/rng.h"

namespace nncell {
namespace kernels {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Bitwise comparison: NaN == NaN (same payload), +0 != -0.
bool BitEqual(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

std::vector<double> RandomVec(Rng& rng, size_t n, double lo = -10.0,
                              double hi = 10.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.NextDouble(lo, hi);
  return v;
}

class KernelEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelEquivalenceTest, DotMatchesScalarBitExact) {
  const size_t dim = GetParam();
  Rng rng(17 * dim + 1);
  const KernelOps& ref = ScalarOps();
  for (const KernelOps* ops : AllOpsForTest()) {
    for (int rep = 0; rep < 20; ++rep) {
      auto a = RandomVec(rng, dim);
      auto b = RandomVec(rng, dim);
      double want = ref.dot(a.data(), b.data(), dim);
      double got = ops->dot(a.data(), b.data(), dim);
      EXPECT_TRUE(BitEqual(want, got))
          << ops->name << " dot d=" << dim << " want " << want << " got "
          << got;
    }
  }
}

TEST_P(KernelEquivalenceTest, MatVecMatchesScalarBitExact) {
  const size_t dim = GetParam();
  Rng rng(31 * dim + 2);
  const KernelOps& ref = ScalarOps();
  const size_t rows = 13;
  const size_t stride = PaddedDim(dim);
  for (const KernelOps* ops : AllOpsForTest()) {
    auto a = RandomVec(rng, rows * stride);
    auto x = RandomVec(rng, dim);
    std::vector<double> want(rows), got(rows);
    ref.mat_vec(a.data(), rows, dim, stride, x.data(), want.data());
    ops->mat_vec(a.data(), rows, dim, stride, x.data(), got.data());
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_TRUE(BitEqual(want[r], got[r]))
          << ops->name << " mat_vec d=" << dim << " row " << r;
    }
  }
}

TEST_P(KernelEquivalenceTest, AxpyMatchesScalarBitExact) {
  const size_t dim = GetParam();
  Rng rng(43 * dim + 3);
  const KernelOps& ref = ScalarOps();
  for (const KernelOps* ops : AllOpsForTest()) {
    auto x = RandomVec(rng, dim);
    auto y0 = RandomVec(rng, dim);
    double alpha = rng.NextDouble(-3.0, 3.0);
    std::vector<double> want = y0, got = y0;
    ref.axpy(alpha, x.data(), want.data(), dim);
    ops->axpy(alpha, x.data(), got.data(), dim);
    for (size_t i = 0; i < dim; ++i) {
      EXPECT_TRUE(BitEqual(want[i], got[i]))
          << ops->name << " axpy d=" << dim << " i=" << i;
    }
  }
}

// The batched SoA kernel must equal the sequential pair kernel per point —
// including for sizes that leave a partial tail block.
TEST_P(KernelEquivalenceTest, L2BatchSoaMatchesPairKernel) {
  const size_t dim = GetParam();
  Rng rng(57 * dim + 4);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                   size_t{7}, size_t{8}, size_t{64}, size_t{65}}) {
    SoaBlockStore store(dim);
    std::vector<std::vector<double>> pts;
    for (size_t j = 0; j < n; ++j) {
      pts.push_back(RandomVec(rng, dim));
      store.Append(pts.back().data());
    }
    auto q = RandomVec(rng, dim);
    for (const KernelOps* ops : AllOpsForTest()) {
      std::vector<double> out(n, -1.0);
      ops->l2_batch_soa(q.data(), store.blocks(), n, dim, out.data());
      for (size_t j = 0; j < n; ++j) {
        double want = L2DistSqPair(pts[j].data(), q.data(), dim);
        EXPECT_TRUE(BitEqual(want, out[j]))
            << ops->name << " l2_batch_soa d=" << dim << " n=" << n
            << " j=" << j;
      }
    }
    // Round-trip: the store must hand back exactly what went in.
    std::vector<double> back(dim);
    store.Get(n - 1, back.data());
    EXPECT_EQ(back, pts[n - 1]);
  }
}

TEST_P(KernelEquivalenceTest, L2Batch4MatchesPairKernel) {
  const size_t dim = GetParam();
  Rng rng(71 * dim + 5);
  auto q = RandomVec(rng, dim);
  std::vector<std::vector<double>> pts;
  const double* ptrs[4];
  for (int j = 0; j < 4; ++j) {
    pts.push_back(RandomVec(rng, dim));
    ptrs[j] = pts.back().data();
  }
  for (const KernelOps* ops : AllOpsForTest()) {
    double out[4];
    ops->l2_batch4(q.data(), ptrs, dim, out);
    for (int j = 0; j < 4; ++j) {
      EXPECT_TRUE(BitEqual(L2DistSqPair(ptrs[j], q.data(), dim), out[j]))
          << ops->name << " l2_batch4 d=" << dim << " j=" << j;
    }
  }
}

// The row-block kernel reads n consecutive rows of the AoS point table. It
// must equal the pair kernel per row for every row count (full 4-row
// groups, the scalar tail rows, the 64-row chunk of the scan executor and
// its neighbours) and write nothing past out[n - 1]. Special coordinates
// (NaN, +-inf, -0.0) sit in rows and in the query, so the transposed lanes
// must carry them exactly like the sequential loop does.
TEST_P(KernelEquivalenceTest, L2RowsMatchesPairKernel) {
  const size_t dim = GetParam();
  Rng rng(89 * dim + 8);
  const double specials[] = {kNan, kInf, -kInf, -0.0};
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                   size_t{5}, size_t{6}, size_t{7}, size_t{8}, size_t{9},
                   size_t{63}, size_t{64}, size_t{65}}) {
    std::vector<double> rows = RandomVec(rng, n * dim);
    for (size_t j = 1; j < n; j += 3) {
      rows[j * dim + j % dim] = specials[j % 4];
    }
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<double> q = RandomVec(rng, dim);
      if (variant == 1) q[0] = -0.0;
      if (variant == 2) q[dim - 1] = kInf;
      if (n > 0) {
        // A row equal to q but for the sign of its zeros: distance +0.0.
        std::copy(q.begin(), q.end(), rows.begin());
        if (variant == 1) rows[0] = 0.0;
      }
      for (const KernelOps* ops : AllOpsForTest()) {
        std::vector<double> out(n + 1, -1.0);
        ops->l2_rows(q.data(), rows.data(), n, dim, out.data());
        for (size_t j = 0; j < n; ++j) {
          double want = L2DistSqPair(rows.data() + j * dim, q.data(), dim);
          EXPECT_TRUE(BitEqual(want, out[j]))
              << ops->name << " l2_rows d=" << dim << " n=" << n
              << " variant=" << variant << " j=" << j << " want " << want
              << " got " << out[j];
        }
        EXPECT_TRUE(BitEqual(-1.0, out[n]))
            << ops->name << " l2_rows wrote past n=" << n << " d=" << dim;
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, MinDistAndMinMaxDistMatchReference) {
  const size_t dim = GetParam();
  Rng rng(83 * dim + 6);
  std::vector<std::vector<double>> los, his;
  const double* lo_ptrs[4];
  const double* hi_ptrs[4];
  for (int j = 0; j < 4; ++j) {
    auto a = RandomVec(rng, dim);
    auto b = RandomVec(rng, dim);
    std::vector<double> lo(dim), hi(dim);
    for (size_t i = 0; i < dim; ++i) {
      lo[i] = std::min(a[i], b[i]);
      hi[i] = std::max(a[i], b[i]);
    }
    los.push_back(std::move(lo));
    his.push_back(std::move(hi));
    lo_ptrs[j] = los.back().data();
    hi_ptrs[j] = his.back().data();
  }
  // Query points inside, outside, and on the boundary of rect 0.
  for (int rep = 0; rep < 8; ++rep) {
    std::vector<double> p = RandomVec(rng, dim, -12.0, 12.0);
    if (rep == 7) p.assign(los[0].begin(), los[0].end());  // on a corner
    for (const KernelOps* ops : AllOpsForTest()) {
      double out_min[4], out_minmax[4];
      ops->min_dist_batch4(lo_ptrs, hi_ptrs, p.data(), dim, out_min);
      ops->min_max_dist_batch4(lo_ptrs, hi_ptrs, p.data(), dim, out_minmax);
      for (int j = 0; j < 4; ++j) {
        EXPECT_TRUE(BitEqual(
            MinDistSqRef(lo_ptrs[j], hi_ptrs[j], p.data(), dim), out_min[j]))
            << ops->name << " min_dist d=" << dim << " j=" << j;
        EXPECT_TRUE(BitEqual(
            MinMaxDistSqRef(lo_ptrs[j], hi_ptrs[j], p.data(), dim),
            out_minmax[j]))
            << ops->name << " min_max_dist d=" << dim << " j=" << j;
      }
    }
  }
}

// NaN and infinity must propagate identically on every dispatch level.
TEST_P(KernelEquivalenceTest, NanInfPropagation) {
  const size_t dim = GetParam();
  Rng rng(97 * dim + 7);
  const KernelOps& ref = ScalarOps();
  for (double special : {kNan, kInf, -kInf}) {
    auto a = RandomVec(rng, dim);
    auto b = RandomVec(rng, dim);
    a[dim / 2] = special;
    double want = ref.dot(a.data(), b.data(), dim);
    SoaBlockStore store(dim);
    for (int j = 0; j < 5; ++j) store.Append(j == 2 ? a.data() : b.data());
    for (const KernelOps* ops : AllOpsForTest()) {
      EXPECT_TRUE(BitEqual(want, ops->dot(a.data(), b.data(), dim)))
          << ops->name << " dot special=" << special << " d=" << dim;
      std::vector<double> out(5);
      ops->l2_batch_soa(b.data(), store.blocks(), 5, dim, out.data());
      for (int j = 0; j < 5; ++j) {
        double pw = L2DistSqPair(j == 2 ? a.data() : b.data(), b.data(), dim);
        EXPECT_TRUE(BitEqual(pw, out[j]))
            << ops->name << " batch special=" << special << " j=" << j;
      }
    }
  }
}

// Entry stream of 64 boxes in the node layout box_hits reads (stride
// 2 * dim + 1: lo | hi | id bits), built around the query box [blo, bhi]
// so that each kind below shows up in every dimensionality: plain hits,
// boxes touching the query (closed boxes must hit), boxes one ulp outside,
// degenerate point boxes, infinite bounds and random boxes.
std::vector<double> BoxStream(Rng& rng, size_t dim, const double* blo,
                              const double* bhi) {
  const size_t stride = 2 * dim + 1;
  std::vector<double> words(kBoxHitsMax * stride);
  for (size_t j = 0; j < kBoxHitsMax; ++j) {
    double* lo = words.data() + j * stride;
    double* hi = lo + dim;
    const size_t k = rng.NextIndex(dim);
    for (size_t i = 0; i < dim; ++i) {
      lo[i] = blo[i] - rng.NextDouble(0.0, 1.0);
      hi[i] = bhi[i] + rng.NextDouble(0.0, 1.0);
    }
    switch (j % 9) {
      case 1:  // touching: lo meets bhi in dim k, hi meets blo elsewhere
        lo[k] = bhi[k];
        hi[(k + 1) % dim] = blo[(k + 1) % dim];
        break;
      case 2:  // one ulp past bhi in dim k
        lo[k] = std::nextafter(bhi[k], kInf);
        break;
      case 3:  // one ulp short of blo in dim k
        hi[k] = std::nextafter(blo[k], -kInf);
        break;
      case 4:  // degenerate point box at blo
        for (size_t i = 0; i < dim; ++i) lo[i] = hi[i] = blo[i];
        break;
      case 5:  // infinite bounds all round
        for (size_t i = 0; i < dim; ++i) {
          lo[i] = -kInf;
          hi[i] = kInf;
        }
        break;
      case 6:  // an empty-looking box: lo = +inf in dim k
        lo[k] = kInf;
        break;
      case 7:  // hi = -inf in dim k
        hi[k] = -kInf;
        break;
      case 8:  // random box, hit or miss
        for (size_t i = 0; i < dim; ++i) {
          double a = rng.NextDouble(-2.0, 2.0), b = rng.NextDouble(-2.0, 2.0);
          lo[i] = std::min(a, b);
          hi[i] = std::max(a, b);
        }
        break;
      default:
        break;
    }
    const uint64_t id = rng.NextU64();
    std::memcpy(hi + dim, &id, sizeof(id));
  }
  return words;
}

// Flips the sign of every zero: +0.0 <-> -0.0.
void FlipZeros(std::vector<double>* v) {
  for (double& x : *v) {
    if (x == 0.0) x = -x;
  }
}

// box_hits on every table: each bit equals the raw rectangle predicate
// (RawContainsPoint for a point query, RawIntersects for a box), bits at
// or above n stay 0, and touching or degenerate boxes hit. Queries with
// zero coordinates meet boxes whose zeros carry the other sign.
TEST_P(KernelEquivalenceTest, BoxHitsMatchRawPredicates) {
  const size_t dim = GetParam();
  const size_t stride = 2 * dim + 1;
  Rng rng(101 * dim + 9);
  for (int variant = 0; variant < 4; ++variant) {
    std::vector<double> blo = RandomVec(rng, dim), bhi;
    if (variant == 1) std::fill(blo.begin(), blo.end(), 0.0);
    bhi = blo;
    const bool is_point = variant < 2;
    if (!is_point) {
      for (size_t i = 0; i < dim; ++i) bhi[i] = blo[i] + rng.NextDouble();
      if (variant == 3) {
        std::fill(blo.begin(), blo.end(), -0.0);
        std::fill(bhi.begin(), bhi.end(), 0.0);
      }
    }
    std::vector<double> words = BoxStream(rng, dim, blo.data(), bhi.data());
    if (variant == 1 || variant == 3) FlipZeros(&words);
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                     size_t{5}, size_t{6}, size_t{7}, size_t{8}, size_t{9},
                     size_t{63}, size_t{64}}) {
      uint64_t want = 0;
      for (size_t j = 0; j < n; ++j) {
        const double* lo = words.data() + j * stride;
        const double* hi = lo + dim;
        const bool hit =
            is_point ? RawContainsPoint(lo, hi, blo.data(), dim)
                     : RawIntersects(lo, hi, blo.data(), bhi.data(), dim);
        want |= uint64_t{hit} << j;
        EXPECT_EQ(hit, BoxHitRef(lo, hi, blo.data(), bhi.data(), dim))
            << "BoxHitRef d=" << dim << " variant=" << variant << " j=" << j;
        if (j % 9 == 1 || j % 9 == 4 || j % 9 == 5) {
          EXPECT_TRUE(hit) << "closed box " << j % 9 << " d=" << dim;
        }
      }
      for (const KernelOps* ops : AllOpsForTest()) {
        EXPECT_EQ(want, ops->box_hits(words.data(), n, dim, blo.data(),
                                      bhi.data()))
            << ops->name << " box_hits d=" << dim << " n=" << n
            << " variant=" << variant;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDims, KernelEquivalenceTest,
                         ::testing::Range(size_t{1}, size_t{33}));

// The scalar reference itself must agree with the legacy open-coded forms
// it replaced (same add order): the distance.h pair loop and the branchy
// MINDIST/MINMAXDIST in hyper_rect.
TEST(KernelReferenceTest, MatchesLegacySemantics) {
  Rng rng(123);
  for (size_t dim : {1, 2, 3, 7, 8, 16, 31}) {
    for (int rep = 0; rep < 50; ++rep) {
      auto a = RandomVec(rng, dim);
      auto b = RandomVec(rng, dim);
      double s = 0.0;
      for (size_t i = 0; i < dim; ++i) {
        double d = a[i] - b[i];
        s += d * d;
      }
      EXPECT_TRUE(BitEqual(s, L2DistSqPair(a.data(), b.data(), dim)));
      EXPECT_TRUE(BitEqual(s, L2DistSq(a.data(), b.data(), dim)));

      std::vector<double> lo(dim), hi(dim);
      for (size_t i = 0; i < dim; ++i) {
        lo[i] = std::min(a[i], b[i]);
        hi[i] = std::max(a[i], b[i]);
      }
      auto p = RandomVec(rng, dim, -12.0, 12.0);
      double branchy = 0.0;
      for (size_t i = 0; i < dim; ++i) {
        double d = 0.0;
        if (p[i] < lo[i]) {
          d = lo[i] - p[i];
        } else if (p[i] > hi[i]) {
          d = p[i] - hi[i];
        }
        branchy += d * d;
      }
      EXPECT_TRUE(
          BitEqual(branchy, MinDistSqRef(lo.data(), hi.data(), p.data(), dim)))
          << "d=" << dim;
      HyperRect rect(lo, hi);
      EXPECT_TRUE(
          BitEqual(RawMinDistSq(rect.lo(), rect.hi(), p.data(), dim),
                   MinDistSqRef(lo.data(), hi.data(), p.data(), dim)));
      EXPECT_TRUE(
          BitEqual(RawMinMaxDistSq(rect.lo(), rect.hi(), p.data(), dim),
                   MinMaxDistSqRef(lo.data(), hi.data(), p.data(), dim)));
    }
  }
}

TEST(KernelDispatchTest, TablesAreConsistent) {
  // Whatever the environment picked, the active table must be one of the
  // runnable tables and the level/name/reason must agree.
  const KernelOps& active = Ops();
  bool found = false;
  for (const KernelOps* ops : AllOpsForTest()) {
    if (ops == &active) found = true;
  }
  EXPECT_TRUE(found) << "active table " << active.name << " not runnable?";
  EXPECT_STREQ(active.name, ActiveLevelName());
  const char* env = std::getenv("NNCELL_SIMD");
  if (env != nullptr &&
      (std::string(env) == "scalar" || std::string(env) == "off")) {
    EXPECT_EQ(ActiveLevel(), SimdLevel::kScalar);
    EXPECT_STREQ(DispatchReason(), "env");
  }
  SCOPED_TRACE(std::string("dispatch: ") + ActiveLevelName() + " (" +
               DispatchReason() + ")");
}

TEST(KernelDispatchTest, PaddedDimRoundsUp) {
  EXPECT_EQ(PaddedDim(0), 0u);
  EXPECT_EQ(PaddedDim(1), 4u);
  EXPECT_EQ(PaddedDim(4), 4u);
  EXPECT_EQ(PaddedDim(5), 8u);
  EXPECT_EQ(PaddedDim(16), 16u);
  EXPECT_EQ(PaddedDim(17), 20u);
}

}  // namespace
}  // namespace kernels
}  // namespace nncell
