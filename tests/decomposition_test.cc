#include <vector>

#include <gtest/gtest.h>

#include "common/point_set.h"
#include "common/rng.h"
#include "geom/bisector.h"
#include "geom/cell_approximator.h"
#include "geom/decomposition.h"

namespace nncell {
namespace {

std::vector<const double*> AllOthers(const PointSet& pts, size_t owner) {
  std::vector<const double*> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i != owner) out.push_back(pts[i]);
  }
  return out;
}

TEST(PlanSliceCountsTest, BudgetOneDisables) {
  auto c = PlanSliceCounts(3, 1);
  EXPECT_EQ(c, (std::vector<size_t>{1, 1, 1}));
}

TEST(PlanSliceCountsTest, MatchesPaperTable) {
  // Paper (Section 3): for budget ~10, d'=2 -> up to 10 total, equal n_i
  // decreasing with obliqueness; d'=3 -> n_i <= 4 ... we check the product
  // constraint and monotonicity.
  for (size_t dims = 1; dims <= 7; ++dims) {
    for (size_t budget : {2u, 4u, 8u, 10u, 16u}) {
      auto c = PlanSliceCounts(dims, budget);
      ASSERT_EQ(c.size(), dims);
      size_t product = 1;
      for (size_t i = 0; i < dims; ++i) {
        product *= c[i];
        if (i > 0) {
          EXPECT_LE(c[i], c[i - 1]);  // non-increasing
        }
        EXPECT_GE(c[i], 1u);
      }
      EXPECT_LE(product, budget);
      EXPECT_GE(product, 1u);
    }
  }
}

TEST(PlanSliceCountsTest, SingleDimUsesFullBudget) {
  auto c = PlanSliceCounts(1, 10);
  EXPECT_EQ(c, (std::vector<size_t>{10}));
}

TEST(PlanSliceCountsTest, TwoDimsBudgetTen) {
  auto c = PlanSliceCounts(2, 10);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_LE(c[0] * c[1], 10u);
  EXPECT_GE(c[0] * c[1], 8u);  // uses most of the budget
}

class DecompositionPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

// Core correctness: the union of decomposition piece-MBRs covers every
// sampled point of the cell (no false dismissals, Lemma 2 step 3), and the
// summed volume never exceeds the single MBR's volume (the decomposition
// never gets worse).
TEST_P(DecompositionPropertyTest, CoversCellAndReducesVolume) {
  const size_t d = std::get<0>(GetParam());
  const size_t budget = std::get<1>(GetParam());
  Rng rng(1000 + d * 10 + budget);
  PointSet pts(d);
  for (int i = 0; i < 30; ++i) {
    std::vector<double> p(d);
    for (auto& v : p) v = rng.NextDouble();
    pts.Add(p);
  }
  CellApproximator approx(d, HyperRect::UnitCube(d));
  DecompositionOptions opts;
  opts.max_partitions = budget;
  opts.max_split_dims = 3;

  for (size_t owner = 0; owner < 4; ++owner) {
    auto others = AllOthers(pts, owner);
    HyperRect full = approx.ApproximateMbr(pts[owner], others);
    std::vector<HyperRect> pieces =
        DecomposeCell(approx, pts[owner], others, full, opts);
    ASSERT_FALSE(pieces.empty());
    EXPECT_LE(pieces.size(), budget);

    double piece_volume = 0.0;
    for (const HyperRect& piece : pieces) {
      piece_volume += piece.Volume();
      // Pieces stay within the full MBR.
      for (size_t k = 0; k < d; ++k) {
        EXPECT_GE(piece.lo(k), full.lo(k) - 1e-6);
        EXPECT_LE(piece.hi(k), full.hi(k) + 1e-6);
      }
    }
    EXPECT_LE(piece_volume, full.Volume() + 1e-9);

    // Coverage: sampled in-cell points must lie in some piece.
    for (int s = 0; s < 400; ++s) {
      std::vector<double> x(d);
      for (auto& v : x) v = rng.NextDouble();
      if (!IsInCell(x.data(), pts[owner], others, d)) continue;
      bool covered = false;
      for (const HyperRect& piece : pieces) {
        // Tolerance: pieces are closed boxes computed to LP accuracy.
        bool in = true;
        for (size_t k = 0; k < d && in; ++k) {
          in = x[k] >= piece.lo(k) - 1e-6 && x[k] <= piece.hi(k) + 1e-6;
        }
        covered |= in;
      }
      EXPECT_TRUE(covered) << "cell sample not covered, owner " << owner;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecompositionPropertyTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 6),
                       ::testing::Values(2, 4, 8, 10)));

TEST(DecompositionTest, BudgetOneReturnsFullMbr) {
  const size_t d = 3;
  Rng rng(77);
  PointSet pts(d);
  for (int i = 0; i < 10; ++i) {
    pts.Add({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()});
  }
  CellApproximator approx(d, HyperRect::UnitCube(d));
  auto others = AllOthers(pts, 0);
  HyperRect full = approx.ApproximateMbr(pts[0], others);
  DecompositionOptions opts;
  opts.max_partitions = 1;
  auto pieces = DecomposeCell(approx, pts[0], others, full, opts);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], full);
}

TEST(DecompositionTest, ObliqueCellBenefits) {
  // A cell bounded by a diagonal bisector (Fig. 6): decomposition along the
  // oblique dimension must reduce the summed volume clearly.
  const size_t d = 2;
  PointSet pts(d);
  pts.Add({0.3, 0.3});
  pts.Add({0.7, 0.7});  // diagonal neighbor -> oblique boundary
  CellApproximator approx(d, HyperRect::UnitCube(d));
  auto others = AllOthers(pts, 0);
  HyperRect full = approx.ApproximateMbr(pts[0], others);
  DecompositionOptions opts;
  opts.max_partitions = 4;
  opts.max_split_dims = 1;
  auto pieces = DecomposeCell(approx, pts[0], others, full, opts);
  ASSERT_GT(pieces.size(), 1u);
  double vol = 0.0;
  for (const auto& piece : pieces) vol += piece.Volume();
  EXPECT_LT(vol, 0.85 * full.Volume());
}

TEST(DecompositionTest, GridCellsDoNotDecomposeWastefully) {
  // Grid cells are already boxes; decomposition must not increase volume.
  const size_t d = 2;
  PointSet pts(d);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) pts.Add({(i + 0.5) / 3, (j + 0.5) / 3});
  }
  CellApproximator approx(d, HyperRect::UnitCube(d));
  auto others = AllOthers(pts, 4);  // center point
  HyperRect full = approx.ApproximateMbr(pts[4], others);
  DecompositionOptions opts;
  opts.max_partitions = 4;
  auto pieces = DecomposeCell(approx, pts[4], others, full, opts);
  double vol = 0.0;
  for (const auto& piece : pieces) vol += piece.Volume();
  EXPECT_NEAR(vol, full.Volume(), 1e-7);
}

}  // namespace
}  // namespace nncell
