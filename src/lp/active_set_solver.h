#ifndef NNCELL_LP_ACTIVE_SET_SOLVER_H_
#define NNCELL_LP_ACTIVE_SET_SOLVER_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "lp/lp_problem.h"

namespace nncell {

enum class LpStatus {
  kOptimal,
  kUnbounded,
  kInfeasibleStart,
  kIterationLimit,
};

struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  std::vector<double> x;     // best point found
  double objective = 0.0;    // c . x at that point
  size_t iterations = 0;
  // Final working set (sorted row indices) when the solve ended kOptimal;
  // the warm-start hint for the next face solve of the same system.
  std::vector<size_t> active;
};

// Reusable solver workspace. One solve allocates about ten vectors (the
// working set, basis, direction, multiplier system, and the A.x / A.p row
// caches); a cell-approximation build runs 2d solves per cell over up to
// N-1 rows, so handing the solver a per-thread scratch removes every
// per-face heap allocation from the hot path. A default-constructed
// scratch is valid; buffers grow to the high-water mark and stay.
struct LpScratch {
  std::vector<size_t> active;
  std::vector<double> basis, p, gram, rhs, neg_c, warm_v;
  std::vector<const double*> rows;
  std::vector<double> sx, sp;  // per-row a_i . x and a_i . p caches
};

// Active-set method for linear programs with few variables and many
// inequality constraints -- the Best & Ritter style algorithm the paper
// uses for computing NN-cell MBR faces. The solver walks from a supplied
// feasible point along projected-gradient directions, adding blocking
// constraints to the working set and dropping constraints with negative
// Lagrange multipliers (Bland's smallest-index rule on ties/degeneracy).
//
// Cost per iteration is O(m * d) for the ratio test plus O(d^3) algebra,
// which is exactly the right shape for the paper's workload (d <= ~32,
// m up to N-1 bisector constraints). The ratio test maintains the per-row
// products a_i . x incrementally and computes a_i . p with one streaming
// pass over the packed constraint matrix, so each iteration reads the
// matrix once instead of twice. Directions and multipliers are tested
// against a tolerance of 1e-9, and a solve stops after 100 * (m + d) + 1000
// iterations (kIterationLimit).
class ActiveSetSolver {
 public:
  // Maximizes c . x subject to the problem's constraints, starting from the
  // feasible point x0. x0 may lie on the boundary. Returns kInfeasibleStart
  // when x0 violates a constraint by more than the tolerance.
  LpResult Maximize(const LpProblem& problem, const std::vector<double>& c,
                    const std::vector<double>& x0) const;

  // Minimizes c . x (maximizes -c . x); result.objective is c . x.
  LpResult Minimize(const LpProblem& problem, const std::vector<double>& c,
                    const std::vector<double>& x0) const;

  // Warm-startable variants. `warm_active` (may be null) proposes an
  // initial working set -- e.g. the first constraint row blocking the ray
  // from a cell's interior start (FaceSolveSession). Rows that are not
  // tight at x0 or not linearly independent are silently dropped, so any
  // hint is safe. `scratch` (may be null) supplies the reusable workspace.
  // `sx0` (may be null) supplies the m precomputed row products a_i . x0,
  // saving the solver's initial pass over the matrix -- callers that solve
  // many objectives from related starts over one system maintain these
  // incrementally. Values must match a_i . x0 to well below the
  // feasibility tolerance; they are drift-refreshed like any other sx
  // state.
  LpResult Maximize(const LpProblem& problem, const std::vector<double>& c,
                    const std::vector<double>& x0,
                    const std::vector<size_t>* warm_active,
                    LpScratch* scratch, const double* sx0 = nullptr) const;
  LpResult Minimize(const LpProblem& problem, const std::vector<double>& c,
                    const std::vector<double>& x0,
                    const std::vector<size_t>* warm_active,
                    LpScratch* scratch, const double* sx0 = nullptr) const;

 private:
  LpResult Run(const LpProblem& problem, const std::vector<double>& c,
               const std::vector<double>& x0,
               const std::vector<size_t>* warm_active, LpScratch& scratch,
               const double* sx0) const;
};

// Reusable workspace of FindFeasiblePoint: the extended (d+1)-dimensional
// phase-I system and its solver scratch.
struct PhaseOneScratch {
  LpProblem ext{1};
  std::vector<double> start, c;
  LpScratch lp;
};

// Phase-I helper: finds a feasible point of `problem`, or returns NotFound
// when the feasible region is (numerically) empty. `hint` seeds the search
// (any point; does not need to be feasible). Internally solves the LP
//   minimize t  s.t.  a_i . x - t <= b_i,  t >= -1
// in d+1 dimensions with the same active-set solver.
StatusOr<std::vector<double>> FindFeasiblePoint(
    const LpProblem& problem, const std::vector<double>& hint,
    PhaseOneScratch* scratch = nullptr);

}  // namespace nncell

#endif  // NNCELL_LP_ACTIVE_SET_SOLVER_H_
