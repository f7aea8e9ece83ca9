// Property suite for the optimized LP hot path (bisector pre-pruning and
// ray-shoot warm starts, PR: LP hot-path overhaul). The optimizations
// promise *exact* equivalence, not an enlargement: the pruned system
// describes the same polytope as the full one, and warm/skipped face
// solves reach the same optimum as the seed's cold solver. The suites
// here hold the pipeline to that promise:
//
//   * face-value equivalence of the optimized vs cold pipeline across all
//     four ApproxAlgorithms and d in {2, 4, 8, 16}, at the index level;
//   * a randomized pruning audit over > 1000 cells (uniform and clustered
//     data) requiring zero face mismatches;
//   * an explicit lp::AuditSolution (feasibility + KKT) pass over every
//     face the optimized pipeline emits, covering the skipped, warm and
//     cold answer paths;
//   * unit tests of the FaceSolveSession ray-shoot itself.

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/hyper_rect.h"
#include "common/rng.h"
#include "data/generators.h"
#include "geom/bisector.h"
#include "geom/cell_approximator.h"
#include "lp/active_set_solver.h"
#include "lp/audit.h"
#include "lp/face_solve_session.h"
#include "lp/lp_problem.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

// The per-face tolerance of the equivalence contract. The optimized and
// cold pipelines may walk different pivot paths, so face values can differ
// by solver snap-refinement dust -- but never by more than this.
constexpr double kFaceTol = 1e-9;

CellApproxOptions ColdOptions() {
  CellApproxOptions o;
  o.prune_bisectors = false;
  o.warm_start = false;
  return o;
}

std::vector<const double*> AllOthers(const PointSet& pts, size_t owner) {
  std::vector<const double*> others;
  others.reserve(pts.size() - 1);
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i != owner) others.push_back(pts[i]);
  }
  return others;
}

// ---------------------------------------------------------------------------
// Index-level equivalence: the optimized pipeline must reproduce the seed
// pipeline's cell rectangles for every algorithm and dimensionality.

struct BuiltIndex {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<NNCellIndex> index;
};

BuiltIndex BuildIndex(const PointSet& pts, ApproxAlgorithm algorithm,
                      const CellApproxOptions& approx) {
  BuiltIndex b;
  b.file = std::make_unique<PageFile>(2048);
  b.pool = std::make_unique<BufferPool>(b.file.get(), 512);
  NNCellOptions options;
  options.algorithm = algorithm;
  options.approx = approx;
  b.index = std::make_unique<NNCellIndex>(b.pool.get(), pts.dim(), options);
  Status built = b.index->BulkBuild(pts);
  EXPECT_TRUE(built.ok()) << built.ToString();
  return b;
}

class LpPipelineEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LpPipelineEquivalenceTest, OptimizedFacesMatchColdAcrossAlgorithms) {
  const size_t d = GetParam();
  const PointSet pts = GenerateUniform(120, d, 1234 + d);
  for (ApproxAlgorithm algorithm :
       {ApproxAlgorithm::kCorrect, ApproxAlgorithm::kPoint,
        ApproxAlgorithm::kSphere, ApproxAlgorithm::kNNDirection}) {
    SCOPED_TRACE(ApproxAlgorithmName(algorithm));
    BuiltIndex opt = BuildIndex(pts, algorithm, CellApproxOptions());
    BuiltIndex cold = BuildIndex(pts, algorithm, ColdOptions());

    // The optimized build must actually have taken the optimized paths --
    // equivalence with nothing exercised would be vacuous.
    const ApproxStats& s = opt.index->build_stats().approx;
    EXPECT_GT(s.skipped_faces + s.warm_faces, 0u);
    EXPECT_EQ(cold.index->build_stats().approx.skipped_faces, 0u);
    EXPECT_EQ(cold.index->build_stats().approx.warm_faces, 0u);

    for (uint64_t id = 0; id < pts.size(); ++id) {
      const std::vector<HyperRect>& a = opt.index->CellRects(id);
      const std::vector<HyperRect>& b = cold.index->CellRects(id);
      ASSERT_EQ(a.size(), b.size()) << "id " << id;
      for (size_t r = 0; r < a.size(); ++r) {
        for (size_t k = 0; k < d; ++k) {
          EXPECT_NEAR(a[r].lo(k), b[r].lo(k), kFaceTol)
              << "id " << id << " rect " << r << " dim " << k;
          EXPECT_NEAR(a[r].hi(k), b[r].hi(k), kFaceTol)
              << "id " << id << " rect " << r << " dim " << k;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, LpPipelineEquivalenceTest,
                         ::testing::Values(2u, 4u, 8u, 16u));

// ---------------------------------------------------------------------------
// Randomized pruning audit: > 1000 cells, zero face mismatches allowed.
// Pruning runs alone (warm starts off) so a mismatch here indicts the
// pruner specifically, and the audit spans uniform and clustered layouts
// (clusters make bisector rows far more redundant, the pruner's best and
// therefore riskiest regime).

TEST(BisectorPrunerAuditTest, RandomizedThousandCellAuditHasZeroMismatches) {
  CellApproxOptions prune_only;
  prune_only.warm_start = false;

  size_t cells = 0;
  size_t mismatches = 0;
  size_t cells_with_pruning = 0;
  for (size_t d : {2u, 4u, 8u, 16u}) {
    for (int layout = 0; layout < 2; ++layout) {
      const uint64_t seed = 7000 + 10 * d + layout;
      const PointSet pts = layout == 0
                               ? GenerateUniform(135, d, seed)
                               : GenerateClusters(135, d, /*clusters=*/6,
                                                  /*stddev=*/0.05, seed);
      CellApproximator pruned(d, HyperRect::UnitCube(d), prune_only);
      CellApproximator cold(d, HyperRect::UnitCube(d), ColdOptions());
      for (size_t owner = 0; owner < pts.size(); ++owner) {
        auto others = AllOthers(pts, owner);
        ApproxStats stats;
        HyperRect a = pruned.ApproximateMbr(pts[owner], others, &stats);
        HyperRect b = cold.ApproximateMbr(pts[owner], others);
        ++cells;
        if (stats.pruned_rows > 0) ++cells_with_pruning;
        for (size_t k = 0; k < d; ++k) {
          if (std::abs(a.lo(k) - b.lo(k)) > kFaceTol ||
              std::abs(a.hi(k) - b.hi(k)) > kFaceTol) {
            ++mismatches;
            ADD_FAILURE() << "cell " << owner << " d=" << d << " layout "
                          << layout << " dim " << k << ": pruned ["
                          << a.lo(k) << ", " << a.hi(k) << "] vs cold ["
                          << b.lo(k) << ", " << b.hi(k) << "]";
          }
        }
      }
    }
  }
  EXPECT_GE(cells, 1000u);
  EXPECT_EQ(mismatches, 0u);
  // The audit must have exercised real pruning, not 1000 vacuous passes.
  EXPECT_GT(cells_with_pruning, 100u);
}

// ---------------------------------------------------------------------------
// Explicit per-face KKT audit of the optimized pipeline. The approximator
// DCHECK-audits faces in debug builds only; this test keeps the audit in
// every build, and proves all three answer paths (skipped / warm / cold)
// both occur and certify.

TEST(LpPipelineAuditTest, EveryOptimizedFacePassesFeasibilityAndKktAudit) {
  size_t skipped = 0, warm = 0, cold = 0;
  FaceSolveSession session;
  BisectorPruner pruner;
  for (size_t d : {2u, 4u, 8u, 16u}) {
    const PointSet pts = GenerateUniform(90, d, 4321 + d);
    const HyperRect space = HyperRect::UnitCube(d);
    for (size_t owner = 0; owner < 25; ++owner) {
      auto others = AllOthers(pts, owner);
      LpProblem& problem = session.problem();
      problem.Reset(d);
      pruner.BuildPruned(pts[owner], others, d, space, &problem);
      std::vector<double> start(pts[owner], pts[owner] + d);
      session.BeginCell(/*warm_start=*/true);
      session.PrepareFaces(problem, start);
      std::vector<double> c(d, 0.0);
      for (size_t i = 0; i < d; ++i) {
        c[i] = 1.0;
        for (bool maximize : {true, false}) {
          LpResult res = session.SolveFace(problem, c, i, maximize, start);
          switch (session.last_face_kind()) {
            case FaceSolveSession::FaceKind::kSkipped: ++skipped; break;
            case FaceSolveSession::FaceKind::kWarm: ++warm; break;
            case FaceSolveSession::FaceKind::kCold: ++cold; break;
          }
          ASSERT_EQ(res.status, LpStatus::kOptimal);
          Status audit = lp::AuditSolution(
              problem, c, res,
              maximize ? lp::LpSense::kMaximize : lp::LpSense::kMinimize);
          EXPECT_TRUE(audit.ok())
              << "d=" << d << " owner=" << owner << " axis=" << i
              << (maximize ? " max: " : " min: ") << audit.ToString();
        }
        c[i] = 0.0;
      }
    }
  }
  // All three answer paths must have been audited. (Skipped faces dominate
  // in high d where cells reach the data-space box; warm faces dominate in
  // low d where a bisector blocks the ray first.)
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(warm, 0u);
}

// ---------------------------------------------------------------------------
// FaceSolveSession ray-shoot unit tests.

TEST(FaceSolveSessionTest, BoxOnlyCellSkipsEveryFaceExactly) {
  const size_t d = 4;
  FaceSolveSession session;
  LpProblem& problem = session.problem();
  problem.Reset(d);
  problem.AddBoxConstraints(HyperRect::UnitCube(d));
  std::vector<double> start(d, 0.3);
  session.BeginCell(/*warm_start=*/true);
  session.PrepareFaces(problem, start);
  std::vector<double> c(d, 0.0);
  for (size_t i = 0; i < d; ++i) {
    c[i] = 1.0;
    LpResult up = session.SolveFace(problem, c, i, /*maximize=*/true, start);
    EXPECT_EQ(session.last_face_kind(), FaceSolveSession::FaceKind::kSkipped);
    LpResult dn = session.SolveFace(problem, c, i, /*maximize=*/false, start);
    EXPECT_EQ(session.last_face_kind(), FaceSolveSession::FaceKind::kSkipped);
    // Box rows are +-e_i with rhs 1 / 0: certified values are exact.
    EXPECT_EQ(up.objective, 1.0);
    EXPECT_EQ(dn.objective, 0.0);
    EXPECT_EQ(up.iterations, 0u);
    EXPECT_EQ(dn.iterations, 0u);
    c[i] = 0.0;
  }
}

TEST(FaceSolveSessionTest, DisabledWarmStartAlwaysSolvesCold) {
  const size_t d = 3;
  const PointSet pts = GenerateUniform(20, d, 99);
  FaceSolveSession session;
  LpProblem& problem = session.problem();
  problem.Reset(d);
  BuildCellProblemInto(pts[0], AllOthers(pts, 0), d, HyperRect::UnitCube(d),
                       &problem);
  std::vector<double> start(pts[0], pts[0] + d);
  session.BeginCell(/*warm_start=*/false);
  session.PrepareFaces(problem, start);  // must be a no-op
  std::vector<double> c(d, 0.0);
  c[0] = 1.0;
  LpResult res = session.SolveFace(problem, c, 0, /*maximize=*/true, start);
  EXPECT_EQ(session.last_face_kind(), FaceSolveSession::FaceKind::kCold);
  ActiveSetSolver reference;
  LpResult want = reference.Maximize(problem, c, start);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, want.objective, kFaceTol);
}

TEST(FaceSolveSessionTest, WarmAndSkippedFacesMatchColdSolverOnRandomCells) {
  Rng rng(31337);
  FaceSolveSession session;
  ActiveSetSolver reference;
  for (int trial = 0; trial < 30; ++trial) {
    const size_t d = 2 + rng.NextIndex(7);
    PointSet pts(d);
    const size_t n = 15 + rng.NextIndex(25);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> p(d);
      for (auto& v : p) v = rng.NextDouble();
      pts.Add(p);
    }
    const size_t owner = rng.NextIndex(n);
    LpProblem& problem = session.problem();
    problem.Reset(d);
    BuildCellProblemInto(pts[owner], AllOthers(pts, owner), d,
                         HyperRect::UnitCube(d), &problem);
    std::vector<double> start(pts[owner], pts[owner] + d);
    session.BeginCell(/*warm_start=*/true);
    session.PrepareFaces(problem, start);
    std::vector<double> c(d, 0.0);
    for (size_t i = 0; i < d; ++i) {
      c[i] = 1.0;
      for (bool maximize : {true, false}) {
        LpResult res = session.SolveFace(problem, c, i, maximize, start);
        LpResult want = maximize ? reference.Maximize(problem, c, start)
                                 : reference.Minimize(problem, c, start);
        ASSERT_EQ(res.status, LpStatus::kOptimal);
        ASSERT_EQ(want.status, LpStatus::kOptimal);
        EXPECT_NEAR(res.objective, want.objective, kFaceTol)
            << "trial " << trial << " axis " << i;
      }
      c[i] = 0.0;
    }
  }
}

TEST(FaceSolveSessionTest, BeginCellResetsPreparedStateBetweenCells) {
  // A session prepared on one cell must not leak ray data into the next:
  // after BeginCell + PrepareFaces on cell B, every face answer must match
  // a fresh session's. (This is the invariant behind parallel-build
  // determinism -- worker threads reuse one session across many cells.)
  const size_t d = 4;
  const PointSet pts = GenerateUniform(30, d, 777);
  FaceSolveSession reused;
  std::vector<double> c(d, 0.0);
  for (size_t owner = 0; owner < 10; ++owner) {
    LpProblem& problem = reused.problem();
    problem.Reset(d);
    BuildCellProblemInto(pts[owner], AllOthers(pts, owner), d,
                         HyperRect::UnitCube(d), &problem);
    std::vector<double> start(pts[owner], pts[owner] + d);
    reused.BeginCell(/*warm_start=*/true);
    reused.PrepareFaces(problem, start);

    FaceSolveSession fresh;
    LpProblem& fresh_problem = fresh.problem();
    fresh_problem.Reset(d);
    BuildCellProblemInto(pts[owner], AllOthers(pts, owner), d,
                         HyperRect::UnitCube(d), &fresh_problem);
    fresh.BeginCell(/*warm_start=*/true);
    fresh.PrepareFaces(fresh_problem, start);

    for (size_t i = 0; i < d; ++i) {
      c[i] = 1.0;
      for (bool maximize : {true, false}) {
        LpResult a = reused.SolveFace(problem, c, i, maximize, start);
        LpResult b = fresh.SolveFace(fresh_problem, c, i, maximize, start);
        EXPECT_EQ(reused.last_face_kind(), fresh.last_face_kind());
        EXPECT_EQ(a.objective, b.objective) << "owner " << owner;
        EXPECT_EQ(a.iterations, b.iterations);
      }
      c[i] = 0.0;
    }
  }
}

// ---------------------------------------------------------------------------
// Pruner outer bound: R must contain the computed MBR (the soundness
// argument rests on cell subset R throughout the shave).

TEST(BisectorPrunerTest, OuterBoundContainsComputedMbr) {
  Rng rng(2468);
  BisectorPruner pruner;
  for (int trial = 0; trial < 20; ++trial) {
    const size_t d = 2 + rng.NextIndex(7);
    PointSet pts(d);
    const size_t n = 40 + rng.NextIndex(60);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> p(d);
      for (auto& v : p) v = rng.NextDouble();
      pts.Add(p);
    }
    const size_t owner = rng.NextIndex(n);
    auto others = AllOthers(pts, owner);
    LpProblem problem(d);
    pruner.BuildPruned(pts[owner], others, d, HyperRect::UnitCube(d),
                       &problem);
    CellApproximator cold(d, HyperRect::UnitCube(d), ColdOptions());
    HyperRect mbr = cold.ApproximateMbr(pts[owner], others);
    const HyperRect& bound = pruner.outer_bound();
    for (size_t k = 0; k < d; ++k) {
      EXPECT_LE(bound.lo(k), mbr.lo(k) + kFaceTol) << "dim " << k;
      EXPECT_GE(bound.hi(k), mbr.hi(k) - kFaceTol) << "dim " << k;
    }
  }
}

}  // namespace
}  // namespace nncell
