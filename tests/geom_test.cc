#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/point_set.h"
#include "common/rng.h"
#include "geom/bisector.h"
#include "geom/cell_approximator.h"
#include "geom/voronoi2d.h"

namespace nncell {
namespace {

std::vector<const double*> AllOthers(const PointSet& pts, size_t owner) {
  std::vector<const double*> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i != owner) out.push_back(pts[i]);
  }
  return out;
}

TEST(BisectorTest, HalfSpaceSeparatesCorrectly) {
  // Owner at origin, other at (1,0): bisector is x = 0.5.
  double owner[2] = {0.0, 0.0};
  double other[2] = {1.0, 0.0};
  LpProblem p(2);
  AddBisectorConstraint(owner, other, 2, &p);
  double near_owner[2] = {0.2, 0.7};
  double near_other[2] = {0.8, 0.7};
  double midpoint[2] = {0.5, 0.3};
  EXPECT_LE(p.MaxViolation(near_owner), 0.0);
  EXPECT_GT(p.MaxViolation(near_other), 0.0);
  EXPECT_NEAR(p.MaxViolation(midpoint), 0.0, 1e-12);
}

TEST(BisectorTest, RandomPointsSatisfyIffCloser) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    size_t d = 2 + rng.NextIndex(10);
    std::vector<double> owner(d), other(d), x(d);
    for (auto& v : owner) v = rng.NextDouble();
    for (auto& v : other) v = rng.NextDouble();
    LpProblem p(d);
    AddBisectorConstraint(owner.data(), other.data(), d, &p);
    for (int s = 0; s < 50; ++s) {
      for (auto& v : x) v = rng.NextDouble();
      bool closer = L2DistSq(x.data(), owner.data(), d) <=
                    L2DistSq(x.data(), other.data(), d);
      bool satisfied = p.MaxViolation(x.data()) <= 1e-12;
      EXPECT_EQ(closer, satisfied);
    }
  }
}

TEST(BisectorTest, IsInCellMatchesDistanceTest) {
  Rng rng(6);
  PointSet pts(3);
  for (int i = 0; i < 20; ++i)
    pts.Add({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()});
  auto others = AllOthers(pts, 0);
  for (int s = 0; s < 100; ++s) {
    std::vector<double> x = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()};
    // Brute force NN check.
    double d_own = L2DistSq(x.data(), pts[0], 3);
    bool is_nn = true;
    for (size_t j = 1; j < pts.size(); ++j) {
      if (L2DistSq(x.data(), pts[j], 3) < d_own) is_nn = false;
    }
    EXPECT_EQ(IsInCell(x.data(), pts[0], others, 3), is_nn);
  }
}

TEST(Voronoi2DTest, SinglePointCellIsSpace) {
  double owner[2] = {0.3, 0.4};
  Polygon2D cell = ComputeNNCell2D(owner, {}, HyperRect::UnitCube(2));
  EXPECT_NEAR(cell.Area(), 1.0, 1e-12);
  EXPECT_EQ(cell.Mbr(), HyperRect::UnitCube(2));
}

TEST(Voronoi2DTest, TwoPointsSplitSpace) {
  double a[2] = {0.25, 0.5};
  double b[2] = {0.75, 0.5};
  Polygon2D cell_a = ComputeNNCell2D(a, {b}, HyperRect::UnitCube(2));
  Polygon2D cell_b = ComputeNNCell2D(b, {a}, HyperRect::UnitCube(2));
  EXPECT_NEAR(cell_a.Area(), 0.5, 1e-12);
  EXPECT_NEAR(cell_b.Area(), 0.5, 1e-12);
  EXPECT_EQ(cell_a.Mbr(), HyperRect({0.0, 0.0}, {0.5, 1.0}));
}

TEST(Voronoi2DTest, CellAreasSumToSpace) {
  // Definition 2 consequence: NN-cells tile the data space.
  Rng rng(9);
  PointSet pts(2);
  for (int i = 0; i < 30; ++i) pts.Add({rng.NextDouble(), rng.NextDouble()});
  double total = 0.0;
  for (size_t i = 0; i < pts.size(); ++i) {
    total += ComputeNNCell2D(pts[i], AllOthers(pts, i),
                             HyperRect::UnitCube(2))
                 .Area();
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Voronoi2DTest, PolygonContainsOwner) {
  Rng rng(10);
  PointSet pts(2);
  for (int i = 0; i < 25; ++i) pts.Add({rng.NextDouble(), rng.NextDouble()});
  for (size_t i = 0; i < pts.size(); ++i) {
    Polygon2D cell =
        ComputeNNCell2D(pts[i], AllOthers(pts, i), HyperRect::UnitCube(2));
    ASSERT_FALSE(cell.IsEmpty());
    EXPECT_TRUE(cell.Contains(pts[i][0], pts[i][1]));
  }
}

TEST(Voronoi2DTest, ClipRemovesHalf) {
  Polygon2D square;
  square.vertices = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  Polygon2D half = ClipByHalfPlane(square, {1.0, 0.0}, 0.5);  // x <= 0.5
  EXPECT_NEAR(half.Area(), 0.5, 1e-12);
  Polygon2D none = ClipByHalfPlane(square, {1.0, 0.0}, -1.0);
  EXPECT_TRUE(none.IsEmpty());
}

TEST(OrderMVoronoiTest, OrderOneMatchesNNCell) {
  Rng rng(14);
  PointSet pts(2);
  for (int i = 0; i < 12; ++i) pts.Add({rng.NextDouble(), rng.NextDouble()});
  std::vector<const double*> sites;
  for (size_t i = 0; i < pts.size(); ++i) sites.push_back(pts[i]);
  for (size_t i = 0; i < pts.size(); ++i) {
    Polygon2D order1 =
        ComputeOrderMCell2D(sites, {i}, HyperRect::UnitCube(2));
    Polygon2D nn = ComputeNNCell2D(pts[i], AllOthers(pts, i),
                                   HyperRect::UnitCube(2));
    EXPECT_NEAR(order1.Area(), nn.Area(), 1e-9);
  }
}

TEST(OrderMVoronoiTest, Order2CellsTileSpace) {
  // Definition 1: the non-empty order-2 cells partition the data space.
  Rng rng(15);
  PointSet pts(2);
  for (int i = 0; i < 7; ++i) pts.Add({rng.NextDouble(), rng.NextDouble()});
  std::vector<const double*> sites;
  for (size_t i = 0; i < pts.size(); ++i) sites.push_back(pts[i]);
  double total = 0.0;
  size_t nonempty = 0;
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t j = i + 1; j < pts.size(); ++j) {
      Polygon2D cell =
          ComputeOrderMCell2D(sites, {i, j}, HyperRect::UnitCube(2));
      if (!cell.IsEmpty()) {
        total += cell.Area();
        ++nonempty;
      }
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(nonempty, pts.size());  // more order-2 than order-1 cells
}

TEST(OrderMVoronoiTest, MembershipMatchesKnnSemantics) {
  // x in the order-m cell of A <=> A is exactly the set of m nearest
  // sites of x.
  Rng rng(16);
  PointSet pts(2);
  for (int i = 0; i < 6; ++i) pts.Add({rng.NextDouble(), rng.NextDouble()});
  std::vector<const double*> sites;
  for (size_t i = 0; i < pts.size(); ++i) sites.push_back(pts[i]);

  for (int trial = 0; trial < 200; ++trial) {
    double x = rng.NextDouble(), y = rng.NextDouble();
    double q[2] = {x, y};
    // Find the 2 nearest sites by brute force.
    std::vector<std::pair<double, size_t>> order;
    for (size_t i = 0; i < sites.size(); ++i) {
      order.emplace_back(L2DistSq(sites[i], q, 2), i);
    }
    std::sort(order.begin(), order.end());
    std::vector<size_t> top2 = {order[0].second, order[1].second};
    Polygon2D cell =
        ComputeOrderMCell2D(sites, top2, HyperRect::UnitCube(2));
    EXPECT_TRUE(cell.Contains(x, y)) << "trial " << trial;
  }
}

TEST(OrderMVoronoiTest, FullSubsetIsWholeSpace) {
  PointSet pts(2);
  pts.Add({0.2, 0.2});
  pts.Add({0.8, 0.8});
  std::vector<const double*> sites = {pts[0], pts[1]};
  Polygon2D cell =
      ComputeOrderMCell2D(sites, {0, 1}, HyperRect::UnitCube(2));
  EXPECT_NEAR(cell.Area(), 1.0, 1e-12);
}

// The central oracle test: in 2-D the LP-based MBR approximation (Correct
// algorithm) must equal the MBR of the exactly clipped Voronoi polygon.
TEST(CellApproximatorTest, MatchesExact2DVoronoiMbr) {
  Rng rng(123);
  for (int trial = 0; trial < 15; ++trial) {
    PointSet pts(2);
    size_t n = 5 + rng.NextIndex(40);
    for (size_t i = 0; i < n; ++i)
      pts.Add({rng.NextDouble(), rng.NextDouble()});
    CellApproximator approx(2, HyperRect::UnitCube(2));
    for (size_t i = 0; i < pts.size(); ++i) {
      auto others = AllOthers(pts, i);
      HyperRect lp_mbr = approx.ApproximateMbr(pts[i], others);
      HyperRect exact =
          ComputeNNCell2D(pts[i], others, HyperRect::UnitCube(2)).Mbr();
      for (size_t k = 0; k < 2; ++k) {
        EXPECT_NEAR(lp_mbr.lo(k), exact.lo(k), 1e-7)
            << "trial " << trial << " cell " << i;
        EXPECT_NEAR(lp_mbr.hi(k), exact.hi(k), 1e-7)
            << "trial " << trial << " cell " << i;
      }
    }
  }
}

// Lemma 1: optimized (subset-constraint) approximations only grow.
TEST(CellApproximatorTest, SubsetConstraintsGiveLargerMbr) {
  Rng rng(321);
  for (int trial = 0; trial < 10; ++trial) {
    size_t d = 2 + rng.NextIndex(7);
    PointSet pts(d);
    size_t n = 20 + rng.NextIndex(30);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> p(d);
      for (auto& v : p) v = rng.NextDouble();
      pts.Add(p);
    }
    CellApproximator approx(d, HyperRect::UnitCube(d));
    size_t owner = rng.NextIndex(n);
    auto all = AllOthers(pts, owner);
    HyperRect correct = approx.ApproximateMbr(pts[owner], all);
    // Random subset of the constraints.
    std::vector<const double*> subset;
    for (const double* p : all) {
      if (rng.NextDouble() < 0.4) subset.push_back(p);
    }
    HyperRect opt = approx.ApproximateMbr(pts[owner], subset);
    for (size_t k = 0; k < d; ++k) {
      EXPECT_LE(opt.lo(k), correct.lo(k) + 1e-7);
      EXPECT_GE(opt.hi(k), correct.hi(k) - 1e-7);
    }
  }
}

// The MBR must contain the owner and every sampled in-cell point.
TEST(CellApproximatorTest, MbrCoversCellSamples) {
  Rng rng(555);
  for (size_t d : {2u, 4u, 8u}) {
    PointSet pts(d);
    for (int i = 0; i < 40; ++i) {
      std::vector<double> p(d);
      for (auto& v : p) v = rng.NextDouble();
      pts.Add(p);
    }
    CellApproximator approx(d, HyperRect::UnitCube(d));
    for (size_t owner = 0; owner < 5; ++owner) {
      auto others = AllOthers(pts, owner);
      HyperRect mbr = approx.ApproximateMbr(pts[owner], others);
      EXPECT_TRUE(mbr.ContainsPoint(pts[owner]));
      for (int s = 0; s < 300; ++s) {
        std::vector<double> x(d);
        for (auto& v : x) v = rng.NextDouble();
        if (IsInCell(x.data(), pts[owner], others, d)) {
          for (size_t k = 0; k < d; ++k) {
            EXPECT_GE(x[k], mbr.lo(k) - 1e-7);
            EXPECT_LE(x[k], mbr.hi(k) + 1e-7);
          }
        }
      }
    }
  }
}

TEST(CellApproximatorTest, RegularGridGivesExactCells) {
  // Fig. 2c/d: on a regular multidimensional grid, MBR approximations equal
  // the NN-cells (axis-aligned boxes) and do not overlap.
  const size_t d = 2;
  PointSet pts(d);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      pts.Add({(i + 0.5) / 4.0, (j + 0.5) / 4.0});
    }
  }
  CellApproximator approx(d, HyperRect::UnitCube(d));
  double total_volume = 0.0;
  for (size_t i = 0; i < pts.size(); ++i) {
    HyperRect mbr = approx.ApproximateMbr(pts[i], AllOthers(pts, i));
    EXPECT_NEAR(mbr.Volume(), 1.0 / 16.0, 1e-9);
    total_volume += mbr.Volume();
  }
  EXPECT_NEAR(total_volume, 1.0, 1e-8);  // tiling, no overlap
}

TEST(CellApproximatorTest, SparseDataCellsNearSpace) {
  // Fig. 2e/f worst case: two far-apart points in high-d; each MBR covers
  // nearly the whole space along most dimensions.
  const size_t d = 8;
  std::vector<double> a(d, 0.3), b(d, 0.7);
  PointSet pts(d);
  pts.Add(a);
  pts.Add(b);
  CellApproximator approx(d, HyperRect::UnitCube(d));
  HyperRect mbr = approx.ApproximateMbr(pts[0], {pts[1]});
  // The bisector cuts the diagonal; the MBR still reaches the space bounds
  // in every dimension on the owner's side.
  for (size_t k = 0; k < d; ++k) {
    EXPECT_NEAR(mbr.lo(k), 0.0, 1e-9);
    EXPECT_GT(mbr.hi(k), 0.9);
  }
}

TEST(CellApproximatorTest, ClippedMbrRespectsClipAndCell) {
  Rng rng(888);
  const size_t d = 3;
  PointSet pts(d);
  for (int i = 0; i < 25; ++i) {
    pts.Add({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()});
  }
  CellApproximator approx(d, HyperRect::UnitCube(d));
  auto others = AllOthers(pts, 0);
  HyperRect full = approx.ApproximateMbr(pts[0], others);
  // Clip to the lower half in dim 0.
  HyperRect clip = full;
  clip.hi(0) = 0.5 * (full.lo(0) + full.hi(0));
  HyperRect piece = approx.ApproximateClippedMbr(pts[0], others, clip);
  if (!piece.IsEmpty()) {
    for (size_t k = 0; k < d; ++k) {
      EXPECT_GE(piece.lo(k), clip.lo(k) - 1e-7);
      EXPECT_LE(piece.hi(k), clip.hi(k) + 1e-7);
    }
    // Every sampled cell point inside the clip must be covered.
    for (int s = 0; s < 500; ++s) {
      std::vector<double> x(d);
      for (auto& v : x) v = rng.NextDouble();
      if (clip.ContainsPoint(x.data()) &&
          IsInCell(x.data(), pts[0], others, d)) {
        for (size_t k = 0; k < d; ++k) {
          EXPECT_GE(x[k], piece.lo(k) - 1e-7);
          EXPECT_LE(x[k], piece.hi(k) + 1e-7);
        }
      }
    }
  }
}

TEST(CellApproximatorTest, EmptyClipDetected) {
  const size_t d = 2;
  PointSet pts(d);
  pts.Add({0.1, 0.1});
  pts.Add({0.9, 0.9});
  CellApproximator approx(d, HyperRect::UnitCube(d));
  // The cell of point 0 is the lower-left half; clip to a box fully on the
  // other side of the bisector.
  HyperRect clip({0.9, 0.9}, {1.0, 1.0});
  HyperRect piece = approx.ApproximateClippedMbr(pts[0], {pts[1]}, clip);
  EXPECT_TRUE(piece.IsEmpty());
}

TEST(SelectorTest, SphereRadiusShrinksWithN) {
  EXPECT_GT(DefaultSphereRadius(10, 4), DefaultSphereRadius(1000, 4));
  EXPECT_GT(DefaultSphereRadius(1000, 16), DefaultSphereRadius(1000, 4));
}

TEST(SelectorTest, NNDirectionBudgetAndContents) {
  Rng rng(32);
  const size_t d = 6;
  PointSet pts(d);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> p(d);
    for (auto& v : p) v = rng.NextDouble();
    pts.Add(p);
  }
  auto cands = SelectNNDirectionCandidates(
      pts, pts[0], 0, std::vector<uint8_t>(pts.size(), 1));
  EXPECT_LE(cands.size(), 4 * d);
  EXPECT_GT(cands.size(), 0u);
  for (size_t j : cands) EXPECT_NE(j, 0u);
  // The global nearest neighbor must be among the candidates (it is the
  // directional NN of whichever axis its displacement leans on).
  size_t global_nn = 1;
  double best = L2DistSq(pts[1], pts[0], d);
  for (size_t j = 2; j < pts.size(); ++j) {
    double dd = L2DistSq(pts[j], pts[0], d);
    if (dd < best) {
      best = dd;
      global_nn = j;
    }
  }
  EXPECT_NE(std::find(cands.begin(), cands.end(), global_nn), cands.end());
}

TEST(SelectorTest, NNDirectionOnAxisPoints) {
  // Points exactly on the axes: each must be picked for its direction.
  const size_t d = 3;
  PointSet pts(d);
  pts.Add({0.5, 0.5, 0.5});  // owner
  pts.Add({0.9, 0.5, 0.5});  // +x
  pts.Add({0.1, 0.5, 0.5});  // -x
  pts.Add({0.5, 0.9, 0.5});  // +y
  pts.Add({0.5, 0.5, 0.1});  // -z
  auto cands = SelectNNDirectionCandidates(
      pts, pts[0], 0, std::vector<uint8_t>(pts.size(), 1));
  EXPECT_EQ(cands.size(), 4u);
}

// The index's form of the call: a new owner outside the set (self names
// no point) and tombstoned ids, which must never become constraints.
TEST(SelectorTest, NNDirectionSkipsSelfAndDeadIds) {
  PointSet pts(2);
  pts.Add({0.9, 0.5});  // +x
  pts.Add({0.1, 0.5});  // -x
  pts.Add({0.5, 0.9});  // +y
  const double owner[2] = {0.5, 0.5};
  constexpr size_t kNew = std::numeric_limits<size_t>::max();
  std::vector<uint8_t> alive(pts.size(), 1);
  EXPECT_EQ(SelectNNDirectionCandidates(pts, owner, kNew, alive),
            (std::vector<size_t>{0, 1, 2}));
  alive[1] = 0;
  EXPECT_EQ(SelectNNDirectionCandidates(pts, owner, kNew, alive),
            (std::vector<size_t>{0, 2}));
  EXPECT_EQ(SelectNNDirectionCandidates(pts, owner, 0, alive),
            (std::vector<size_t>{2}));
}

TEST(ApproxAlgorithmTest, Names) {
  EXPECT_STREQ(ApproxAlgorithmName(ApproxAlgorithm::kCorrect), "Correct");
  EXPECT_STREQ(ApproxAlgorithmName(ApproxAlgorithm::kPoint), "Point");
  EXPECT_STREQ(ApproxAlgorithmName(ApproxAlgorithm::kSphere), "Sphere");
  EXPECT_STREQ(ApproxAlgorithmName(ApproxAlgorithm::kNNDirection),
               "NN-Direction");
}

}  // namespace
}  // namespace nncell
