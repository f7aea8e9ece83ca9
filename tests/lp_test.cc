#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lp/active_set_solver.h"
#include "lp/audit.h"
#include "lp/linalg.h"
#include "lp/lp_problem.h"

namespace nncell {
namespace {

TEST(LinalgTest, Solve2x2) {
  // [2 1; 1 3] y = [5; 10] -> y = (1, 3)
  std::vector<double> m = {2, 1, 1, 3};
  std::vector<double> r = {5, 10};
  ASSERT_TRUE(SolveLinearSystem(m, r, 2));
  EXPECT_NEAR(r[0], 1.0, 1e-12);
  EXPECT_NEAR(r[1], 3.0, 1e-12);
}

TEST(LinalgTest, SingularDetected) {
  std::vector<double> m = {1, 2, 2, 4};
  std::vector<double> r = {1, 2};
  EXPECT_FALSE(SolveLinearSystem(m, r, 2));
}

TEST(LinalgTest, SolveNeedsPivoting) {
  // Leading zero forces a row swap.
  std::vector<double> m = {0, 1, 1, 0};
  std::vector<double> r = {2, 3};
  ASSERT_TRUE(SolveLinearSystem(m, r, 2));
  EXPECT_NEAR(r[0], 3.0, 1e-12);
  EXPECT_NEAR(r[1], 2.0, 1e-12);
}

TEST(LinalgTest, RandomSystemsRoundTrip) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    size_t k = 1 + rng.NextIndex(8);
    std::vector<double> m(k * k), x(k), r(k, 0.0);
    for (auto& v : m) v = rng.NextDouble(-1, 1);
    for (auto& v : x) v = rng.NextDouble(-1, 1);
    for (size_t i = 0; i < k; ++i)
      for (size_t j = 0; j < k; ++j) r[i] += m[i * k + j] * x[j];
    std::vector<double> m_copy = m, r_copy = r;
    if (!SolveLinearSystem(m_copy, r_copy, k)) continue;  // unlucky singular
    for (size_t i = 0; i < k; ++i) EXPECT_NEAR(r_copy[i], x[i], 1e-8);
  }
}

TEST(LinalgTest, OrthonormalBasisRankAndOrthogonality) {
  std::vector<double> r1 = {1, 0, 0};
  std::vector<double> r2 = {1, 1, 0};
  std::vector<double> r3 = {2, 1, 0};  // dependent on r1, r2
  std::vector<const double*> rows = {r1.data(), r2.data(), r3.data()};
  std::vector<double> basis;
  size_t rank = OrthonormalBasis(rows, 3, basis);
  EXPECT_EQ(rank, 2u);
  // Orthonormal: q0.q0 = 1, q0.q1 = 0.
  double q00 = basis[0] * basis[0] + basis[1] * basis[1] + basis[2] * basis[2];
  double q01 = basis[0] * basis[3] + basis[1] * basis[4] + basis[2] * basis[5];
  EXPECT_NEAR(q00, 1.0, 1e-12);
  EXPECT_NEAR(q01, 0.0, 1e-12);
}

TEST(LpProblemTest, BoxConstraintsAndViolation) {
  LpProblem p(2);
  p.AddBoxConstraints(HyperRect({0.0, 0.0}, {1.0, 2.0}));
  EXPECT_EQ(p.num_constraints(), 4u);
  double inside[2] = {0.5, 1.0};
  double outside[2] = {1.5, 1.0};
  EXPECT_LE(p.MaxViolation(inside), 0.0);
  EXPECT_NEAR(p.MaxViolation(outside), 0.5, 1e-12);
}

class BoxLpTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BoxLpTest, MaximizeCoordinateOverBox) {
  const size_t d = GetParam();
  LpProblem p(d);
  HyperRect box = HyperRect::UnitCube(d);
  for (size_t i = 0; i < d; ++i) {
    box.lo(i) = 0.1 * static_cast<double>(i);
    box.hi(i) = 1.0 + 0.2 * static_cast<double>(i);
  }
  p.AddBoxConstraints(box);
  ActiveSetSolver solver;
  std::vector<double> start(d);
  for (size_t i = 0; i < d; ++i) start[i] = 0.5 * (box.lo(i) + box.hi(i));
  for (size_t i = 0; i < d; ++i) {
    std::vector<double> c(d, 0.0);
    c[i] = 1.0;
    LpResult up = solver.Maximize(p, c, start);
    ASSERT_EQ(up.status, LpStatus::kOptimal);
    EXPECT_NEAR(up.objective, box.hi(i), 1e-9);
    LpResult dn = solver.Minimize(p, c, start);
    ASSERT_EQ(dn.status, LpStatus::kOptimal);
    EXPECT_NEAR(dn.objective, box.lo(i), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, BoxLpTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 24));

TEST(ActiveSetSolverTest, DiagonalObjective) {
  // max x + y over the unit square -> corner (1,1).
  LpProblem p(2);
  p.AddBoxConstraints(HyperRect::UnitCube(2));
  ActiveSetSolver solver;
  LpResult r = solver.Maximize(p, {1.0, 1.0}, {0.25, 0.75});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(ActiveSetSolverTest, TriangleVertex) {
  // max x subject to x + y <= 1, x,y >= 0 -> (1, 0).
  LpProblem p(2);
  p.AddConstraint({1.0, 1.0}, 1.0);
  p.AddConstraint({-1.0, 0.0}, 0.0);
  p.AddConstraint({0.0, -1.0}, 0.0);
  ActiveSetSolver solver;
  LpResult r = solver.Maximize(p, {1.0, 0.0}, {0.2, 0.2});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 0.0, 1e-9);
  EXPECT_TRUE(lp::AuditSolution(p, {1.0, 0.0}, r).ok());
}

TEST(ActiveSetSolverTest, StartOnBoundary) {
  LpProblem p(2);
  p.AddBoxConstraints(HyperRect::UnitCube(2));
  ActiveSetSolver solver;
  // Start exactly at a vertex.
  LpResult r = solver.Maximize(p, {1.0, 0.5}, {0.0, 0.0});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(ActiveSetSolverTest, RedundantConstraintsAndDegeneracy) {
  // Many redundant copies of the same faces; degenerate vertex at (1,1).
  LpProblem p(2);
  for (int k = 0; k < 5; ++k) {
    p.AddConstraint({1.0, 0.0}, 1.0);
    p.AddConstraint({0.0, 1.0}, 1.0);
    p.AddConstraint({1.0, 1.0}, 2.0);  // touches the same vertex
    p.AddConstraint({-1.0, 0.0}, 0.0);
    p.AddConstraint({0.0, -1.0}, 0.0);
  }
  ActiveSetSolver solver;
  LpResult r = solver.Maximize(p, {1.0, 2.0}, {0.5, 0.5});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
}

TEST(ActiveSetSolverTest, UnboundedDetected) {
  LpProblem p(2);
  p.AddConstraint({-1.0, 0.0}, 0.0);  // x >= 0 only
  ActiveSetSolver solver;
  LpResult r = solver.Maximize(p, {1.0, 0.0}, {1.0, 0.0});
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
  // The audit independently certifies a feasible improving ray.
  EXPECT_TRUE(lp::AuditSolution(p, {1.0, 0.0}, r).ok());
}

TEST(ActiveSetSolverTest, InfeasibleStartDetected) {
  LpProblem p(2);
  p.AddBoxConstraints(HyperRect::UnitCube(2));
  ActiveSetSolver solver;
  LpResult r = solver.Maximize(p, {1.0, 0.0}, {5.0, 5.0});
  EXPECT_EQ(r.status, LpStatus::kInfeasibleStart);
  // The audit confirms the start really violates a constraint.
  EXPECT_TRUE(lp::AuditSolution(p, {1.0, 0.0}, r).ok());
}

TEST(ActiveSetSolverTest, ZeroObjective) {
  LpProblem p(2);
  p.AddBoxConstraints(HyperRect::UnitCube(2));
  ActiveSetSolver solver;
  LpResult r = solver.Maximize(p, {0.0, 0.0}, {0.5, 0.5});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-12);
}

TEST(ActiveSetSolverTest, GeneralDirectionObjective) {
  // max 3x + 2y s.t. x + y <= 4, x <= 3, y <= 3, x,y >= 0.
  // Optimum at (3, 1) -> 11.
  LpProblem p(2);
  p.AddConstraint({1.0, 1.0}, 4.0);
  p.AddConstraint({1.0, 0.0}, 3.0);
  p.AddConstraint({0.0, 1.0}, 3.0);
  p.AddConstraint({-1.0, 0.0}, 0.0);
  p.AddConstraint({0.0, -1.0}, 0.0);
  ActiveSetSolver solver;
  LpResult r = solver.Maximize(p, {3.0, 2.0}, {1.0, 1.0});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 11.0, 1e-9);
  EXPECT_NEAR(r.x[0], 3.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
  EXPECT_TRUE(lp::AuditSolution(p, {3.0, 2.0}, r).ok());
}

// Property: on random polytopes (random half-spaces through a ball around
// the start), the solver's optimum must (a) be feasible and (b) beat every
// feasible sample point.
TEST(ActiveSetSolverTest, RandomPolytopesOptimumDominatesSamples) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    size_t d = 2 + rng.NextIndex(6);
    LpProblem p(d);
    p.AddBoxConstraints(HyperRect::UnitCube(d));
    std::vector<double> center(d, 0.5);
    size_t m = 5 + rng.NextIndex(30);
    for (size_t i = 0; i < m; ++i) {
      std::vector<double> a(d);
      for (auto& v : a) v = rng.NextGaussian();
      // Offset so the center stays feasible with slack.
      double b = 0.0;
      for (size_t j = 0; j < d; ++j) b += a[j] * center[j];
      b += rng.NextDouble(0.05, 0.5);
      p.AddConstraint(a, b);
    }
    std::vector<double> c(d);
    for (auto& v : c) v = rng.NextGaussian();

    ActiveSetSolver solver;
    LpResult r = solver.Maximize(p, c, center);
    ASSERT_EQ(r.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_LE(p.MaxViolation(r.x.data()), 1e-7);
    Status audit = lp::AuditSolution(p, c, r);
    EXPECT_TRUE(audit.ok()) << "trial " << trial << ": " << audit.message();

    for (int s = 0; s < 200; ++s) {
      std::vector<double> x(d);
      for (auto& v : x) v = rng.NextDouble();
      if (p.MaxViolation(x.data()) > 0.0) continue;
      double obj = 0.0;
      for (size_t j = 0; j < d; ++j) obj += c[j] * x[j];
      EXPECT_LE(obj, r.objective + 1e-7) << "trial " << trial;
    }
  }
}

TEST(FeasibilityTest, FeasibleHintFastPath) {
  LpProblem p(2);
  p.AddBoxConstraints(HyperRect::UnitCube(2));
  auto r = FindFeasiblePoint(p, {0.5, 0.5});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<double>{0.5, 0.5}));
}

TEST(FeasibilityTest, FindsPointFromOutside) {
  LpProblem p(2);
  p.AddBoxConstraints(HyperRect({0.4, 0.4}, {0.6, 0.6}));
  auto r = FindFeasiblePoint(p, {0.0, 0.0});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(p.MaxViolation(r->data()), 1e-9);
}

TEST(FeasibilityTest, DetectsEmptyRegion) {
  LpProblem p(1);
  p.AddConstraint({1.0}, 0.0);    // x <= 0
  p.AddConstraint({-1.0}, -1.0);  // x >= 1
  auto r = FindFeasiblePoint(p, {0.5});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(FeasibilityTest, ThinSliceFound) {
  // Nearly-degenerate feasible strip.
  LpProblem p(2);
  p.AddBoxConstraints(HyperRect::UnitCube(2));
  p.AddConstraint({1.0, 0.0}, 0.500001);
  p.AddConstraint({-1.0, 0.0}, -0.5);  // 0.5 <= x <= 0.500001
  auto r = FindFeasiblePoint(p, {0.9, 0.9});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(p.MaxViolation(r->data()), 1e-9);
}

TEST(FeasibilityTest, RandomRegionsMatchSampling) {
  // Phase-I verdicts must agree with dense sampling verdicts when sampling
  // finds a feasible point.
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    size_t d = 2 + rng.NextIndex(4);
    LpProblem p(d);
    p.AddBoxConstraints(HyperRect::UnitCube(d));
    size_t m = 3 + rng.NextIndex(10);
    for (size_t i = 0; i < m; ++i) {
      std::vector<double> a(d);
      for (auto& v : a) v = rng.NextGaussian();
      p.AddConstraint(a, rng.NextDouble(-0.5, 1.5));
    }
    bool sample_feasible = false;
    for (int s = 0; s < 500 && !sample_feasible; ++s) {
      std::vector<double> x(d);
      for (auto& v : x) v = rng.NextDouble();
      sample_feasible = p.MaxViolation(x.data()) <= 0.0;
    }
    std::vector<double> hint(d, 0.5);
    auto r = FindFeasiblePoint(p, hint);
    if (sample_feasible) {
      ASSERT_TRUE(r.ok()) << "trial " << trial;
      EXPECT_LE(p.MaxViolation(r->data()), 1e-9);
    }
    if (r.ok()) {
      EXPECT_LE(p.MaxViolation(r->data()), 1e-9);
    }
  }
}

}  // namespace
}  // namespace nncell
