// Randomized property suites cutting across modules: LP optima versus
// sampling, tree structural invariants under mixed insert/delete
// workloads, and NN-cell correctness under adversarial point layouts.

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/rng.h"
#include "data/generators.h"
#include "geom/bisector.h"
#include "geom/cell_approximator.h"
#include "lp/active_set_solver.h"
#include "lp/audit.h"
#include "lp/linalg.h"
#include "lp/lp_problem.h"
#include "nncell/nncell_index.h"
#include "rstar/rstar_tree.h"
#include "rstar/validate.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "xtree/xtree.h"

namespace nncell {
namespace {

class LpVsSamplingTest : public ::testing::TestWithParam<size_t> {};

// For random NN-cell systems, the LP face value must dominate every
// sampled in-cell point and be attained up to tolerance by some direction.
TEST_P(LpVsSamplingTest, FaceDominatesSamples) {
  const size_t d = GetParam();
  Rng rng(9000 + d);
  for (int trial = 0; trial < 8; ++trial) {
    PointSet pts(d);
    size_t n = 10 + rng.NextIndex(40);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> p(d);
      for (auto& v : p) v = rng.NextDouble();
      pts.Add(p);
    }
    size_t owner = rng.NextIndex(n);
    std::vector<const double*> others;
    for (size_t i = 0; i < n; ++i) {
      if (i != owner) others.push_back(pts[i]);
    }
    CellApproximator approx(d, HyperRect::UnitCube(d));
    HyperRect mbr = approx.ApproximateMbr(pts[owner], others);

    double max_seen = -1.0;  // max coordinate 0 among in-cell samples
    for (int s = 0; s < 2000; ++s) {
      std::vector<double> x(d);
      for (auto& v : x) v = rng.NextDouble();
      if (!IsInCell(x.data(), pts[owner], others, d)) continue;
      max_seen = std::max(max_seen, x[0]);
      EXPECT_LE(x[0], mbr.hi(0) + 1e-7);
      EXPECT_GE(x[0], mbr.lo(0) - 1e-7);
    }
    if (max_seen >= 0.0) {
      EXPECT_LE(max_seen, mbr.hi(0) + 1e-7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, LpVsSamplingTest,
                         ::testing::Values(2, 3, 4, 6, 8, 12));

template <typename TreeT>
void MixedWorkloadInvariants(uint64_t seed) {
  Rng rng(seed);
  PageFile file(1024);
  BufferPool pool(&file, 4096);
  TreeOptions opts;
  opts.dim = 3;
  TreeT tree(&pool, opts);

  struct Live {
    std::vector<double> p;
    uint64_t id;
  };
  std::vector<Live> live;
  uint64_t next_id = 0;

  for (int step = 0; step < 3000; ++step) {
    double roll = rng.NextDouble();
    if (roll < 0.65 || live.empty()) {
      std::vector<double> p = {rng.NextDouble(), rng.NextDouble(),
                               rng.NextDouble()};
      tree.Insert(HyperRect::FromPoint(p), next_id);
      live.push_back(Live{p, next_id});
      ++next_id;
    } else {
      size_t pick = rng.NextIndex(live.size());
      ASSERT_TRUE(
          tree.Delete(HyperRect::FromPoint(live[pick].p), live[pick].id));
      live.erase(live.begin() + pick);
    }
    if (step % 500 == 499) {
      ASSERT_EQ(tree.Validate(), "") << "step " << step;
      ASSERT_EQ(tree.size(), live.size());
    }
  }
  ASSERT_EQ(tree.Validate(), "");
  ASSERT_TRUE(rstar::ValidateTree(tree).ok());
  ASSERT_TRUE(pool.AuditPins().ok());

  // Final: every live point findable, sampled NN queries exact.
  for (size_t i = 0; i < live.size(); i += 13) {
    auto hits = tree.PointQuery(live[i].p.data());
    bool found = false;
    for (uint64_t h : hits) found |= h == live[i].id;
    EXPECT_TRUE(found);
  }
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()};
    auto knn = tree.KnnQuery(q.data(), 1);
    ASSERT_EQ(knn.size(), 1u);
    double best = 1e300;
    for (const auto& l : live) {
      best = std::min(best, L2Dist(l.p.data(), q.data(), 3));
    }
    EXPECT_NEAR(knn[0].dist, best, 1e-12);
  }
}

TEST(MixedWorkloadTest, RStarTreeSurvivesChurn) {
  MixedWorkloadInvariants<RStarTree>(111);
}

TEST(MixedWorkloadTest, XTreeSurvivesChurn) {
  MixedWorkloadInvariants<XTree>(222);
}

TEST(AdversarialLayoutTest, CollinearPoints) {
  // All points on a line: cells are slabs; LP systems are degenerate in
  // d-1 dimensions.
  const size_t d = 4;
  PointSet pts(d);
  for (int i = 0; i < 20; ++i) {
    double t = 0.05 + 0.9 * i / 19.0;
    pts.Add({t, t, t, t});
  }
  PageFile file(2048);
  BufferPool pool(&file, 1024);
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kCorrect;
  NNCellIndex index(&pool, d, opts);
  ASSERT_TRUE(index.BulkBuild(pts).ok());
  Rng rng(5);
  for (int t = 0; t < 100; ++t) {
    std::vector<double> q(d);
    for (auto& v : q) v = rng.NextDouble();
    auto r = index.Query(q.data());
    ASSERT_TRUE(r.ok());
    double best = 1e300;
    for (size_t i = 0; i < pts.size(); ++i) {
      best = std::min(best, L2Dist(pts[i], q.data(), d));
    }
    EXPECT_NEAR(r->dist, best, 1e-9);
  }
}

TEST(AdversarialLayoutTest, CoplanarGridWithOutlier) {
  const size_t d = 3;
  PointSet pts(d);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      pts.Add({0.1 + 0.2 * i, 0.1 + 0.2 * j, 0.5});  // plane z=0.5
    }
  }
  pts.Add({0.5, 0.5, 0.01});  // outlier below the plane
  PageFile file(2048);
  BufferPool pool(&file, 1024);
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kCorrect;
  NNCellIndex index(&pool, d, opts);
  ASSERT_TRUE(index.BulkBuild(pts).ok());
  // Queries near the outlier find it; queries above the plane never do.
  auto low = index.Query(std::vector<double>{0.5, 0.5, 0.05}.data());
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low->id, 25u);
  auto high = index.Query(std::vector<double>{0.33, 0.61, 0.9}.data());
  ASSERT_TRUE(high.ok());
  EXPECT_NE(high->id, 25u);
}

TEST(AdversarialLayoutTest, PointsOnSpaceBoundary) {
  const size_t d = 3;
  PointSet pts(d);
  pts.Add({0.0, 0.0, 0.0});
  pts.Add({1.0, 1.0, 1.0});
  pts.Add({0.0, 1.0, 0.0});
  pts.Add({1.0, 0.0, 1.0});
  pts.Add({0.5, 0.5, 0.5});
  PageFile file(2048);
  BufferPool pool(&file, 1024);
  NNCellOptions opts;
  NNCellIndex index(&pool, d, opts);
  ASSERT_TRUE(index.BulkBuild(pts).ok());
  Rng rng(77);
  for (int t = 0; t < 200; ++t) {
    std::vector<double> q(d);
    for (auto& v : q) v = rng.NextDouble();
    auto r = index.Query(q.data());
    ASSERT_TRUE(r.ok());
    double best = 1e300;
    for (size_t i = 0; i < pts.size(); ++i) {
      best = std::min(best, L2Dist(pts[i], q.data(), d));
    }
    EXPECT_NEAR(r->dist, best, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Randomized LP-solver audit suite. Every solve of a random bisector system
// is (a) independently verified by lp::AuditSolution (feasibility + KKT via
// NNLS) and (b) in d <= 3, cross-checked against a brute-force vertex
// enumerator: a bounded LP attains its optimum at a vertex, and with few
// constraints every d-subset can be intersected exhaustively.

// Maximum of c . x over all feasible vertices of the (bounded) problem,
// found by solving every d-subset of constraint rows. Returns -inf when no
// feasible vertex exists.
double BruteForceVertexOptimum(const LpProblem& problem,
                               const std::vector<double>& c) {
  const size_t d = problem.dim();
  const size_t m = problem.num_constraints();
  double best = -std::numeric_limits<double>::infinity();

  std::vector<size_t> subset(d, 0);
  // Odometer over strictly increasing index d-tuples.
  for (size_t i = 0; i < d; ++i) subset[i] = i;
  if (m < d) return best;
  while (true) {
    std::vector<double> mat(d * d), rhs(d);
    for (size_t i = 0; i < d; ++i) {
      const double* row = problem.row(subset[i]);
      std::copy(row, row + d, mat.begin() + i * d);
      rhs[i] = problem.rhs(subset[i]);
    }
    if (SolveLinearSystem(mat, rhs, d)) {
      // rhs now holds the intersection point of the d hyperplanes.
      if (problem.MaxViolation(rhs.data()) <= 1e-8) {
        best = std::max(best, Dot(c.data(), rhs.data(), d));
      }
    }
    // Advance the odometer.
    size_t pos = d;
    while (pos > 0) {
      --pos;
      if (subset[pos] + (d - pos) < m) break;
      if (pos == 0) return best;
    }
    ++subset[pos];
    for (size_t i = pos + 1; i < d; ++i) subset[i] = subset[i - 1] + 1;
  }
}

class LpAuditPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LpAuditPropertyTest, RandomBisectorSystemsPassAuditAndMatchVertices) {
  const size_t d = GetParam();
  Rng rng(3100 + d);
  ActiveSetSolver solver;
  for (int trial = 0; trial < 30; ++trial) {
    // A small random NN-cell system: the owner's cell within the unit cube.
    size_t n = 2 + rng.NextIndex(6);
    std::vector<std::vector<double>> storage(n + 1, std::vector<double>(d));
    for (auto& p : storage) {
      for (auto& v : p) v = rng.NextDouble();
    }
    const double* owner = storage[0].data();
    std::vector<const double*> candidates;
    for (size_t i = 1; i < storage.size(); ++i) {
      candidates.push_back(storage[i].data());
    }
    LpProblem problem =
        BuildCellProblem(owner, candidates, d, HyperRect::UnitCube(d));

    // Random objective direction (components in [-1, 1], not all ~0).
    std::vector<double> c(d);
    double norm2 = 0.0;
    for (auto& v : c) {
      v = rng.NextDouble(-1.0, 1.0);
      norm2 += v * v;
    }
    if (norm2 < 1e-4) c[0] = 1.0;

    std::vector<double> start(owner, owner + d);
    LpResult up = solver.Maximize(problem, c, start);
    LpResult dn = solver.Minimize(problem, c, start);

    // Independent audit: feasibility, objective consistency, KKT.
    ASSERT_TRUE(
        lp::AuditSolution(problem, c, up, lp::LpSense::kMaximize).ok())
        << "trial " << trial << ": "
        << lp::AuditSolution(problem, c, up, lp::LpSense::kMaximize)
               .message();
    ASSERT_TRUE(
        lp::AuditSolution(problem, c, dn, lp::LpSense::kMinimize).ok())
        << "trial " << trial << ": "
        << lp::AuditSolution(problem, c, dn, lp::LpSense::kMinimize)
               .message();

    // Exhaustive cross-check (d <= 3 keeps the subset count tractable).
    ASSERT_EQ(up.status, LpStatus::kOptimal);
    ASSERT_EQ(dn.status, LpStatus::kOptimal);
    double vertex_max = BruteForceVertexOptimum(problem, c);
    std::vector<double> neg_c(d);
    for (size_t i = 0; i < d; ++i) neg_c[i] = -c[i];
    double vertex_min = -BruteForceVertexOptimum(problem, neg_c);
    ASSERT_TRUE(std::isfinite(vertex_max));
    EXPECT_NEAR(up.objective, vertex_max, 1e-7) << "trial " << trial;
    EXPECT_NEAR(dn.objective, vertex_min, 1e-7) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, LpAuditPropertyTest, ::testing::Values(2, 3));

TEST(LpAuditTest, RejectsCorruptedOptimum) {
  // Take a genuinely optimal solve, then perturb it: the audit must flag
  // an interior point posing as an optimum (KKT failure) and an infeasible
  // point (primal violation).
  const size_t d = 2;
  std::vector<double> owner = {0.3, 0.4};
  std::vector<double> other = {0.8, 0.7};
  std::vector<const double*> candidates = {other.data()};
  LpProblem problem = BuildCellProblem(owner.data(), candidates, d,
                                       HyperRect::UnitCube(d));
  std::vector<double> c = {1.0, 0.0};
  ActiveSetSolver solver;
  LpResult r = solver.Maximize(problem, c, owner);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  ASSERT_TRUE(lp::AuditSolution(problem, c, r, lp::LpSense::kMaximize).ok());

  // Interior point claiming optimality: stationarity cannot hold.
  LpResult interior = r;
  interior.x = owner;
  interior.objective = owner[0];
  EXPECT_FALSE(
      lp::AuditSolution(problem, c, interior, lp::LpSense::kMaximize).ok());

  // Point outside the feasible region: primal audit must fire.
  LpResult outside = r;
  outside.x = {1.5, 0.5};
  outside.objective = 1.5;
  EXPECT_FALSE(
      lp::AuditSolution(problem, c, outside, lp::LpSense::kMaximize).ok());

  // Objective not matching c . x.
  LpResult lied = r;
  lied.objective += 0.25;
  EXPECT_FALSE(
      lp::AuditSolution(problem, c, lied, lp::LpSense::kMaximize).ok());
}

TEST(LpAuditTest, NnlsRecoversConicCombination) {
  // g built as a known non-negative combination of columns: NNLS must
  // reproduce it with ~zero residual. A column pointing away must get a
  // zero multiplier.
  const size_t d = 3;
  std::vector<double> a1 = {1.0, 0.0, 0.0};
  std::vector<double> a2 = {0.0, 1.0, 0.0};
  std::vector<double> a3 = {-1.0, -1.0, -1.0};  // never needed
  std::vector<const double*> cols = {a1.data(), a2.data(), a3.data()};
  std::vector<double> g = {2.0, 3.0, 0.0};  // = 2*a1 + 3*a2
  std::vector<double> lambda;
  double res = lp::NonNegativeLeastSquares(cols, d, g, &lambda);
  EXPECT_LT(res, 1e-9);
  ASSERT_EQ(lambda.size(), 3u);
  EXPECT_NEAR(lambda[0], 2.0, 1e-9);
  EXPECT_NEAR(lambda[1], 3.0, 1e-9);
  EXPECT_NEAR(lambda[2], 0.0, 1e-9);
  for (double v : lambda) EXPECT_GE(v, 0.0);
}

TEST(AdversarialLayoutTest, NearDuplicateClusters) {
  // Pairs of points separated by 1e-7: razor-thin cells.
  const size_t d = 2;
  Rng rng(88);
  PointSet pts(d);
  for (int i = 0; i < 15; ++i) {
    double x = rng.NextDouble(0.1, 0.9), y = rng.NextDouble(0.1, 0.9);
    pts.Add({x, y});
    pts.Add({x + 1e-7, y});
  }
  PageFile file(2048);
  BufferPool pool(&file, 1024);
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kCorrect;
  NNCellIndex index(&pool, d, opts);
  ASSERT_TRUE(index.BulkBuild(pts).ok());
  for (int t = 0; t < 100; ++t) {
    std::vector<double> q = {rng.NextDouble(), rng.NextDouble()};
    auto r = index.Query(q.data());
    ASSERT_TRUE(r.ok());
    double best = 1e300;
    for (size_t i = 0; i < pts.size(); ++i) {
      best = std::min(best, L2Dist(pts[i], q.data(), d));
    }
    EXPECT_NEAR(r->dist, best, 1e-9);
  }
}

}  // namespace
}  // namespace nncell
