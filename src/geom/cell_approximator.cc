#include "geom/cell_approximator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/distance.h"
#include "common/metrics.h"
#include "common/metrics_names.h"
#include "geom/bisector.h"
#include "lp/audit.h"

namespace nncell {

const char* ApproxAlgorithmName(ApproxAlgorithm a) {
  switch (a) {
    case ApproxAlgorithm::kCorrect: return "Correct";
    case ApproxAlgorithm::kPoint: return "Point";
    case ApproxAlgorithm::kSphere: return "Sphere";
    case ApproxAlgorithm::kNNDirection: return "NN-Direction";
  }
  return "?";
}

namespace {

// Per-thread pipeline scratch: the face-solve session (packed problem,
// solver workspace, warm chain, phase-I system), the pruner, and the
// objective vector. One high-water allocation per worker thread; warm
// state is reset per cell, so results stay a pure function of the cell.
struct ApproxScratch {
  FaceSolveSession session;
  BisectorPruner pruner;
  std::vector<double> c;
};

ApproxScratch& LocalScratch() {
  thread_local ApproxScratch scratch;
  return scratch;
}

// Registry handles for the LP pipeline. Every handle is resolved once; the
// hot loop batches its tallies locally and pushes one add per metric per
// MBR, so instrumentation cost stays independent of dim.
struct LpMetrics {
  metrics::Counter* runs;
  metrics::Counter* iterations;
  metrics::Counter* failures;
  metrics::Counter* rows_entered;
  metrics::Counter* rows_pruned;
  metrics::Counter* faces_skipped;
  metrics::Counter* faces_warm;
  metrics::Counter* faces_cold;
};

[[maybe_unused]] const LpMetrics& Metrics() {
  static const LpMetrics m = {
      metrics::Registry::Global().counter(metrics::kLpRuns),
      metrics::Registry::Global().counter(metrics::kLpIterations),
      metrics::Registry::Global().counter(metrics::kLpFailures),
      metrics::Registry::Global().counter(metrics::kLpConstraintRows),
      metrics::Registry::Global().counter(metrics::kLpPrunedRows),
      metrics::Registry::Global().counter(metrics::kLpFacesSkipped),
      metrics::Registry::Global().counter(metrics::kLpFacesWarm),
      metrics::Registry::Global().counter(metrics::kLpFacesCold),
  };
  return m;
}

}  // namespace

CellApproximator::CellApproximator(size_t dim, HyperRect space,
                                   CellApproxOptions approx_opts)
    : dim_(dim), space_(std::move(space)), approx_opts_(approx_opts) {
  NNCELL_CHECK(space_.dim() == dim_);
}

HyperRect CellApproximator::SolveFaces(FaceSolveSession& session,
                                       const LpProblem& problem,
                                       const std::vector<double>& start,
                                       ApproxStats* stats,
                                       std::vector<double>* optima) const {
  HyperRect mbr = HyperRect::Empty(dim_);
  bool optima_ok = true;
  if (optima != nullptr) optima->resize(2 * dim_ * dim_);
  std::vector<double>& c = LocalScratch().c;
  c.assign(dim_, 0.0);
  // Local tallies; flushed to `stats` and the metrics registry once per MBR.
  uint64_t skipped = 0, warm = 0, cold = 0;
  uint64_t runs = 0, iterations = 0, failures = 0;
  auto count_face = [&](FaceSolveSession::FaceKind kind) {
    switch (kind) {
      case FaceSolveSession::FaceKind::kSkipped: ++skipped; break;
      case FaceSolveSession::FaceKind::kWarm: ++warm; break;
      case FaceSolveSession::FaceKind::kCold: ++cold; break;
    }
  };
  for (size_t i = 0; i < dim_; ++i) {
    c[i] = 1.0;
    LpResult up = session.SolveFace(problem, c, i, /*maximize=*/true, start);
    count_face(session.last_face_kind());
    LpResult dn = session.SolveFace(problem, c, i, /*maximize=*/false, start);
    count_face(session.last_face_kind());
    // Debug builds re-verify every face value independently (feasibility +
    // KKT); a wrong face only enlarges the MBR, which nothing downstream
    // would ever notice (Lemma 1) until it causes a false dismissal.
    NNCELL_DCHECK_OK(lp::AuditSolution(problem, c, up, lp::LpSense::kMaximize));
    NNCELL_DCHECK_OK(lp::AuditSolution(problem, c, dn, lp::LpSense::kMinimize));
    c[i] = 0.0;
    runs += 2;
    iterations += up.iterations + dn.iterations;
    if (up.status == LpStatus::kOptimal) {
      mbr.hi(i) = up.objective;
    } else {
      mbr.hi(i) = space_.hi(i);  // conservative fallback
      ++failures;
      optima_ok = false;
    }
    if (dn.status == LpStatus::kOptimal) {
      mbr.lo(i) = dn.objective;
    } else {
      mbr.lo(i) = space_.lo(i);
      ++failures;
      optima_ok = false;
    }
    // Guard against numerical inversion on degenerate (flat) cells.
    if (mbr.lo(i) > mbr.hi(i)) {
      std::swap(mbr.lo(i), mbr.hi(i));
      optima_ok = false;
    }
    if (optima != nullptr && optima_ok) {
      std::copy(up.x.begin(), up.x.end(), optima->begin() + 2 * i * dim_);
      std::copy(dn.x.begin(), dn.x.end(),
                optima->begin() + (2 * i + 1) * dim_);
    }
  }
  if (optima != nullptr && !optima_ok) optima->clear();
  if (stats) {
    stats->skipped_faces += skipped;
    stats->warm_faces += warm;
    stats->cold_faces += cold;
    stats->lp_runs += runs;
    stats->lp_iterations += iterations;
    stats->lp_failures += failures;
  }
  NNCELL_METRIC_COUNT(Metrics().faces_skipped, skipped);
  NNCELL_METRIC_COUNT(Metrics().faces_warm, warm);
  NNCELL_METRIC_COUNT(Metrics().faces_cold, cold);
  NNCELL_METRIC_COUNT(Metrics().runs, runs);
  NNCELL_METRIC_COUNT(Metrics().iterations, iterations);
  NNCELL_METRIC_COUNT(Metrics().failures, failures);
  return mbr;
}

HyperRect CellApproximator::SolveMbr(const LpProblem& problem,
                                     const std::vector<double>& start,
                                     ApproxStats* stats,
                                     std::vector<double>* optima) const {
  FaceSolveSession& session = LocalScratch().session;
  session.BeginCell(approx_opts_.warm_start);
  session.PrepareFaces(problem, start);  // no-op when warm starts are off
  return SolveFaces(session, problem, start, stats, optima);
}

HyperRect CellApproximator::ApproximateMbr(
    const double* owner, const std::vector<const double*>& candidates,
    ApproxStats* stats, std::vector<double>* optima) const {
  ApproxScratch& sc = LocalScratch();
  LpProblem& problem = sc.session.problem();
  problem.Reset(dim_);
  size_t pruned = 0;
  if (approx_opts_.prune_bisectors) {
    pruned = sc.pruner.BuildPruned(owner, candidates, dim_, space_, &problem);
  } else {
    BuildCellProblemInto(owner, candidates, dim_, space_, &problem);
  }
  if (stats) {
    stats->constraint_rows += candidates.size() - pruned;
    stats->pruned_rows += pruned;
  }
  NNCELL_METRIC_COUNT(Metrics().rows_entered, candidates.size() - pruned);
  NNCELL_METRIC_COUNT(Metrics().rows_pruned, pruned);
  std::vector<double>& start = sc.session.start_buffer();
  start.assign(owner, owner + dim_);
  return SolveMbr(problem, start, stats, optima);
}

HyperRect CellApproximator::ApproximateClippedMbr(
    const double* owner, const std::vector<const double*>& candidates,
    const HyperRect& clip, ApproxStats* stats) const {
  ApproxScratch& sc = LocalScratch();
  LpProblem& problem = sc.session.problem();
  problem.Reset(dim_);
  size_t pruned = 0;
  if (approx_opts_.prune_bisectors) {
    pruned = sc.pruner.BuildPruned(owner, candidates, dim_, space_, &problem,
                                   &clip);
  } else {
    BuildCellProblemInto(owner, candidates, dim_, space_, &problem);
  }
  problem.AddBoxConstraints(clip);
  if (stats) {
    stats->constraint_rows += candidates.size() - pruned;
    stats->pruned_rows += pruned;
  }
  NNCELL_METRIC_COUNT(Metrics().rows_entered, candidates.size() - pruned);
  NNCELL_METRIC_COUNT(Metrics().rows_pruned, pruned);

  // The owner is feasible for its cell but maybe not for the clip box:
  // clamp it into the box as a phase-I hint.
  std::vector<double>& hint = sc.session.start_buffer();
  hint.assign(owner, owner + dim_);
  for (size_t i = 0; i < dim_; ++i) {
    hint[i] = std::clamp(hint[i], clip.lo(i), clip.hi(i));
  }
  StatusOr<std::vector<double>> start =
      FindFeasiblePoint(problem, hint, &sc.session.phase_one_scratch());
  if (!start.ok()) return HyperRect::Empty(dim_);  // empty slice
  return SolveMbr(problem, start.value(), stats);
}

double DefaultSphereRadius(size_t n, size_t dim) {
  NNCELL_CHECK(n > 0 && dim > 0);
  // Expected NN distance of n uniform points in [0,1]^d scales as
  // (1/n)^(1/d) (volume argument); the paper's heuristic takes about twice
  // that so the sphere reliably covers the cell-defining neighbors.
  return 2.0 * std::pow(1.0 / static_cast<double>(n),
                        1.0 / static_cast<double>(dim));
}

std::vector<size_t> SelectNNDirectionCandidates(
    const PointSet& pts, const double* owner, size_t self,
    const std::vector<uint8_t>& alive) {
  const size_t d = pts.dim();
  constexpr size_t kNone = std::numeric_limits<size_t>::max();

  // For each of the 2d signed axis directions: the nearest point whose
  // displacement has a positive component along the direction, and the
  // point whose displacement is most parallel to the direction.
  std::vector<size_t> nn_idx(2 * d, kNone), ax_idx(2 * d, kNone);
  std::vector<double> nn_best(2 * d, std::numeric_limits<double>::infinity());
  std::vector<double> ax_best(2 * d, -1.0);  // cosine, larger is better

  for (size_t j = 0; j < pts.size(); ++j) {
    if (j == self || !alive[j]) continue;
    const double* p = pts[j];
    double dist2 = L2DistSq(p, owner, d);
    if (dist2 == 0.0) continue;  // duplicate; contributes no half-space
    double inv_norm = 1.0 / std::sqrt(dist2);
    for (size_t i = 0; i < d; ++i) {
      double comp = p[i] - owner[i];
      for (int sign = 0; sign < 2; ++sign) {
        double along = sign ? -comp : comp;
        if (along <= 0.0) continue;
        size_t slot = 2 * i + sign;
        if (dist2 < nn_best[slot]) {
          nn_best[slot] = dist2;
          nn_idx[slot] = j;
        }
        double cosine = along * inv_norm;
        if (cosine > ax_best[slot]) {
          ax_best[slot] = cosine;
          ax_idx[slot] = j;
        }
      }
    }
  }

  std::vector<size_t> out;
  out.reserve(4 * d);
  for (size_t s = 0; s < 2 * d; ++s) {
    if (nn_idx[s] != kNone) out.push_back(nn_idx[s]);
    if (ax_idx[s] != kNone) out.push_back(ax_idx[s]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace nncell
