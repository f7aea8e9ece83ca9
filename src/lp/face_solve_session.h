#ifndef NNCELL_LP_FACE_SOLVE_SESSION_H_
#define NNCELL_LP_FACE_SOLVE_SESSION_H_

#include <cstddef>
#include <vector>

#include "lp/active_set_solver.h"
#include "lp/lp_problem.h"

namespace nncell {

// Shared state for the 2d face solves of one NN-cell MBR (Definition 3 of
// the paper). All faces optimize +-x_i over the *same* packed constraint
// system from the *same* feasible start point, which the session exploits
// with one axis ray-shoot pass per cell (PrepareFaces): a single O(m*d)
// sweep over the matrix finds, for every signed axis direction, the first
// constraint row blocking the ray x0 + t e_i. That pass replaces work in
// every face solve twice over:
//
//   * If the blocking row of direction +e_i is axis-aligned (a positive
//     multiple of e_i -- always true for the data-space box rows, the
//     common case in high dimensions where cells span the box), the face
//     value is already proven: the row caps x_i at b/alpha and the hit
//     point attains the cap, so the face solve is skipped outright
//     (0 LP iterations).
//   * Otherwise the face solve warm-starts at the hit point with the
//     blocking row as its working set -- exactly the state a cold solve
//     reaches after its first iteration.
//
// The session also owns every scratch buffer of the pipeline (the packed
// LpProblem, the solver workspace, the phase-I system), so a bulk build
// reuses one allocation high-water mark per thread instead of
// reallocating per face.
//
// No state crosses cells: BeginCell() resets the prepared ray data, which
// keeps the per-cell results a pure function of the cell (parallel builds
// stay byte-identical to serial ones regardless of which cells a worker
// thread solved before).
class FaceSolveSession {
 public:
  // How the last SolveFace was answered.
  enum class FaceKind {
    kSkipped,  // certified by the ray-shoot, no LP run
    kWarm,     // LP run warm-started at the ray hit point
    kCold,     // plain solve from the cold start
  };

  // Starts a new cell: clears the prepared ray-shoot state. `warm_start`
  // false degrades every face to a cold solve (the seed behavior; used for
  // A/B benchmarks and differential tests).
  void BeginCell(bool warm_start = true);

  // The per-cell ray-shoot pass from the shared feasible start `x0`. Call
  // after the constraint system is fully assembled and before the face
  // solves; a no-op when warm starts are disabled. If `x0` turns out to
  // violate a row beyond tolerance (a phase-I start on a degenerate system
  // can), the pass declines and every face solves cold -- certificates and
  // warm starts are only sound from a feasible start.
  void PrepareFaces(const LpProblem& problem, const std::vector<double>& x0);

  // Optimizes c . x over `problem` for face `axis` (c must be the signed
  // unit objective e_axis of that face) in the given sense, using the
  // prepared ray data when available. `cold_start` must be feasible; it
  // serves any face the ray data cannot, and any face whose warm attempt
  // fails (the retry keeps its iteration count in the total so the stats
  // never hide it). result.objective is always c . x.
  LpResult SolveFace(const LpProblem& problem, const std::vector<double>& c,
                     size_t axis, bool maximize,
                     const std::vector<double>& cold_start);

  // How the last SolveFace was answered.
  FaceKind last_face_kind() const { return last_face_kind_; }

  // Scratch accessors for callers that assemble the constraint system in
  // place (geometry layer) or need phase-I reuse.
  LpProblem& problem() { return problem_; }
  LpScratch& lp_scratch() { return lp_scratch_; }
  PhaseOneScratch& phase_one_scratch() { return phase_one_; }
  std::vector<double>& start_buffer() { return start_; }

 private:
  static constexpr size_t kNoRow = static_cast<size_t>(-1);

  ActiveSetSolver solver_;
  LpProblem problem_{1};
  LpScratch lp_scratch_;
  PhaseOneScratch phase_one_;
  std::vector<double> start_;

  bool warm_enabled_ = true;
  bool prepared_ = false;
  FaceKind last_face_kind_ = FaceKind::kCold;

  // Ray-shoot state of the current cell. Slot 2i is direction +e_i, slot
  // 2i+1 is -e_i: the step length to the first blocking row, its index,
  // and whether that row is axis-aligned (face value certified).
  std::vector<double> x0_;
  std::vector<double> sx0_;  // per-row a_r . x0
  std::vector<double> hit_t_;
  std::vector<size_t> hit_row_;
  std::vector<char> axis_row_;

  // Hint buffers for the warm attempt.
  std::vector<double> warm_x_;
  std::vector<double> warm_sx_;  // row products at the hit point
  std::vector<size_t> warm_active_;
};

}  // namespace nncell

#endif  // NNCELL_LP_FACE_SOLVE_SESSION_H_
