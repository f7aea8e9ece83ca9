#ifndef NNCELL_GEOM_CELL_APPROXIMATOR_H_
#define NNCELL_GEOM_CELL_APPROXIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hyper_rect.h"
#include "common/point_set.h"
#include "lp/active_set_solver.h"
#include "lp/face_solve_session.h"
#include "lp/lp_problem.h"

namespace nncell {

// The four strategies of the paper for choosing the points whose bisector
// constraints enter the LP (Section 2):
//   kCorrect     -- all N-1 points (exact MBR, most expensive),
//   kPoint       -- points whose indexed cell rectangle contains the owner,
//   kSphere      -- points whose indexed rectangle intersects a sphere
//                   around the owner,
//   kNNDirection -- the 2d directional nearest neighbors plus the 2d points
//                   with smallest angular deviation from the axes.
enum class ApproxAlgorithm { kCorrect, kPoint, kSphere, kNNDirection };

const char* ApproxAlgorithmName(ApproxAlgorithm a);

// Build-pipeline knobs of the LP hot path. Both default on; both preserve
// the computed MBRs (pruning keeps the feasible region identical, warm
// starting only changes the path the solver walks to the same optimum) and
// exist as flags for A/B benchmarks and differential tests against the
// cold pipeline.
struct CellApproxOptions {
  // Drop bisector rows that provably cannot touch the cell before any LP
  // runs (BisectorPruner).
  bool prune_bisectors = true;
  // Run the per-cell axis ray-shoot (FaceSolveSession::PrepareFaces): one
  // matrix pass that certifies box-capped faces outright (no LP) and
  // warm-starts the remaining faces at their first blocking row.
  bool warm_start = true;
};

// Aggregate counters filled by the approximator (for Fig. 4a style
// reporting and debugging).
struct ApproxStats {
  size_t lp_runs = 0;
  size_t lp_iterations = 0;
  size_t lp_failures = 0;      // faces that fell back to the space bound
  size_t constraint_rows = 0;  // bisector rows that entered LP systems
  size_t pruned_rows = 0;      // bisector rows discarded before any LP ran
  size_t skipped_faces = 0;    // faces certified by the ray-shoot (no LP)
  size_t warm_faces = 0;       // face solves warm-started at the ray hit
  size_t cold_faces = 0;       // face solves started cold
};

// Computes MBR approximations of NN-cells by running 2d linear programs per
// cell (Definition 3 of the paper).
class CellApproximator {
 public:
  explicit CellApproximator(size_t dim, HyperRect space,
                            CellApproxOptions approx_opts = CellApproxOptions());

  const HyperRect& space() const { return space_; }
  size_t dim() const { return dim_; }
  const CellApproxOptions& approx_options() const { return approx_opts_; }

  // MBR of the cell of `owner` induced by the candidate constraint points.
  // `owner` must be distinct from every candidate. Faces whose LP fails
  // fall back to the data-space bound (conservative, keeps Lemma 1).
  // `optima`, when given, receives the 2d face optima as 2d rows of dim()
  // coordinates (row 2i maximizes x_i, row 2i+1 minimizes it), or is left
  // empty when a face failed or inverted.
  HyperRect ApproximateMbr(const double* owner,
                           const std::vector<const double*>& candidates,
                           ApproxStats* stats = nullptr,
                           std::vector<double>* optima = nullptr) const;

  // Same, but for the cell clipped to `clip` (used by the decomposition:
  // MBR(cell ∩ slice)). Returns Empty(dim) when the clipped cell is empty.
  HyperRect ApproximateClippedMbr(const double* owner,
                                  const std::vector<const double*>& candidates,
                                  const HyperRect& clip,
                                  ApproxStats* stats = nullptr) const;

  // MBR faces for a prebuilt constraint system with a known feasible start.
  HyperRect SolveMbr(const LpProblem& problem, const std::vector<double>& start,
                     ApproxStats* stats,
                     std::vector<double>* optima = nullptr) const;

 private:
  // Runs the 2d face solves over `problem` on a session that BeginCell()
  // was already called on, assembling the MBR (and `optima`, as for
  // ApproximateMbr).
  HyperRect SolveFaces(FaceSolveSession& session, const LpProblem& problem,
                       const std::vector<double>& start, ApproxStats* stats,
                       std::vector<double>* optima) const;

  size_t dim_;
  HyperRect space_;
  CellApproxOptions approx_opts_;
};

// Candidate selectors that need no index structure (pure scans); the
// index-assisted Point/Sphere selection lives in the NN-cell index.

// The heuristic sphere radius of the paper: roughly twice the expected
// nearest-neighbor distance of n uniform points in [0,1]^d.
double DefaultSphereRadius(size_t n, size_t dim);

// NN-Direction heuristic: for each of the 2d axis directions, the nearest
// point of `pts` lying in that half-space around `owner`, plus the point
// with the smallest angular deviation from that axis. Skips index `self`
// (the owner's own id, or any id not in pts for a new point) and every j
// with !alive[j]. At most 4d candidates, ascending, duplicates removed.
std::vector<size_t> SelectNNDirectionCandidates(
    const PointSet& pts, const double* owner, size_t self,
    const std::vector<uint8_t>& alive);

}  // namespace nncell

#endif  // NNCELL_GEOM_CELL_APPROXIMATOR_H_
