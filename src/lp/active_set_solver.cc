#include "lp/active_set_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/distance.h"
#include "lp/linalg.h"

namespace nncell {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Numerical tolerance for directions and multipliers.
constexpr double kTol = 1e-9;

// Removes `value` from a sorted vector.
void EraseSorted(std::vector<size_t>& v, size_t value) {
  auto it = std::lower_bound(v.begin(), v.end(), value);
  NNCELL_DCHECK(it != v.end() && *it == value);
  v.erase(it);
}

void InsertSorted(std::vector<size_t>& v, size_t value) {
  v.insert(std::upper_bound(v.begin(), v.end(), value), value);
}

}  // namespace

LpResult ActiveSetSolver::Run(const LpProblem& problem,
                              const std::vector<double>& c,
                              const std::vector<double>& x0,
                              const std::vector<size_t>* warm_active,
                              LpScratch& scratch, const double* sx0) const {
  const size_t d = problem.dim();
  const size_t m = problem.num_constraints();
  NNCELL_CHECK(c.size() == d);
  NNCELL_CHECK(x0.size() == d);

  const double c_scale = std::max(1.0, std::sqrt(L2NormSq(c.data(), d)));
  const double dir_tol = kTol * c_scale;
  const size_t max_iter = 100 * (m + d) + 1000;

  LpResult result;
  result.x = x0;
  std::vector<double>& x = result.x;

  // Row products a_i . x, maintained incrementally across iterations (one
  // axpy per step instead of a full pass) and refreshed from the matrix
  // periodically to cap drift.
  std::vector<double>& sx = scratch.sx;
  std::vector<double>& sp = scratch.sp;
  sx.resize(m);
  sp.resize(m);
  if (sx0 != nullptr) {
    std::copy(sx0, sx0 + m, sx.data());
  } else {
    MatVec(problem.matrix(), m, d, problem.stride(), x.data(), sx.data());
  }

  // Feasibility of the start (allow tolerance-level violation).
  const double feas_tol = 1e-7;
  double violation = -kInf;
  for (size_t i = 0; i < m; ++i) {
    violation = std::max(violation, sx[i] - problem.rhs(i));
  }
  if (m > 0 && violation > feas_tol) {
    result.status = LpStatus::kInfeasibleStart;
    result.objective = Dot(c.data(), x.data(), d);
    return result;
  }

  std::vector<size_t>& active = scratch.active;  // sorted working set
  std::vector<double>& basis = scratch.basis;  // orthonormal basis of rows
  std::vector<double>& p = scratch.p;          // search direction
  active.clear();
  p.resize(d);

  // Scratch for the multiplier system.
  std::vector<double>& gram = scratch.gram;
  std::vector<double>& rhs = scratch.rhs;
  std::vector<const double*>& rows = scratch.rows;

  // Seed the working set from the hint: keep rows that are tight at x0 and
  // linearly independent of the rows already kept (incremental MGS against
  // the basis built so far). A stale or foreign hint degrades to a cold
  // start row by row instead of corrupting the walk.
  if (warm_active != nullptr && !warm_active->empty()) {
    basis.clear();
    std::vector<double>& v = scratch.warm_v;  // MGS residual buffer
    v.resize(d);
    size_t rank = 0;
    for (size_t i : *warm_active) {
      if (i >= m) continue;
      const double* ai = problem.row(i);
      double row_scale = std::max(1.0, std::abs(problem.rhs(i)));
      if (std::abs(sx[i] - problem.rhs(i)) > 1e-8 * row_scale) continue;
      if (rank == d) break;
      std::copy(ai, ai + d, v.begin());
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t q = 0; q < rank; ++q) {
          const double* bq = basis.data() + q * d;
          double proj = Dot(v.data(), bq, d);
          for (size_t k = 0; k < d; ++k) v[k] -= proj * bq[k];
        }
      }
      // Stricter than the 1e-10 of OrthonormalBasis: rows admitted here
      // must stay independent under the per-iteration re-orthogonalization.
      double norm = std::sqrt(L2NormSq(v.data(), d));
      if (norm < 1e-8) continue;
      double inv = 1.0 / norm;
      for (size_t k = 0; k < d; ++k) v[k] *= inv;
      basis.insert(basis.end(), v.begin(), v.end());
      ++rank;
      InsertSorted(active, i);
    }
  }

  for (size_t iter = 0; iter < max_iter; ++iter) {
    result.iterations = iter + 1;

    // Project the gradient c onto the null space of the active rows.
    rows.clear();
    for (size_t i : active) rows.push_back(problem.row(i));
    size_t rank = OrthonormalBasis(rows, d, basis);
    NNCELL_DCHECK(rank == active.size());
    (void)rank;

    for (size_t i = 0; i < d; ++i) p[i] = c[i];
    for (size_t q = 0; q < active.size(); ++q) {
      const double* bq = basis.data() + q * d;
      double proj = Dot(p.data(), bq, d);
      for (size_t i = 0; i < d; ++i) p[i] -= proj * bq[i];
    }
    double p_norm = std::sqrt(L2NormSq(p.data(), d));

    if (p_norm <= dir_tol) {
      // c lies in the span of the active normals: check optimality via
      // Lagrange multipliers (c = sum lambda_i a_i, lambda >= 0 optimal).
      if (active.empty()) {
        result.status = LpStatus::kOptimal;  // c == 0
        break;
      }
      const size_t k = active.size();
      gram.assign(k * k, 0.0);
      rhs.assign(k, 0.0);
      for (size_t i = 0; i < k; ++i) {
        const double* ai = problem.row(active[i]);
        rhs[i] = Dot(ai, c.data(), d);
        for (size_t j = 0; j < k; ++j) {
          gram[i * k + j] = Dot(ai, problem.row(active[j]), d);
        }
      }
      if (!SolveLinearSystem(gram, rhs, k)) {
        // Should not happen (rows are kept independent); treat the most
        // recently added constraint as removable to make progress.
        EraseSorted(active, active.back());
        continue;
      }
      // Bland: drop the smallest-index constraint with negative multiplier.
      size_t drop = m;  // sentinel
      for (size_t i = 0; i < k; ++i) {
        if (rhs[i] < -kTol * c_scale) {
          if (drop == m || active[i] < drop) drop = active[i];
        }
      }
      if (drop == m) {
        result.status = LpStatus::kOptimal;
        break;
      }
      EraseSorted(active, drop);
      continue;
    }

    // Ratio test: largest step alpha with x + alpha p feasible. One
    // streaming pass computes every a_i . p; slacks come from the
    // maintained sx cache.
    MatVec(problem.matrix(), m, d, problem.stride(), p.data(), sp.data());
    if ((iter & 31u) == 31u) {
      MatVec(problem.matrix(), m, d, problem.stride(), x.data(), sx.data());  // drift refresh
    }
    double alpha = kInf;
    size_t blocker = m;  // sentinel
    {
      size_t w = 0;  // cursor into sorted active set
      for (size_t i = 0; i < m; ++i) {
        if (w < active.size() && active[w] == i) {
          ++w;
          continue;
        }
        double s = sp[i];
        if (s <= dir_tol) continue;  // not blocking along p
        double slack = problem.rhs(i) - sx[i];
        double a = std::max(0.0, slack) / s;
        // Bland's rule: strict improvement, or equal step with smaller
        // index, keeps the method from cycling on degenerate vertices.
        if (a < alpha - 1e-15) {
          alpha = a;
          blocker = i;
        }
      }
    }

    if (blocker == m) {
      result.status = LpStatus::kUnbounded;
      result.objective = kInf;
      return result;
    }

    if (alpha > 0.0) {
      for (size_t i = 0; i < d; ++i) x[i] += alpha * p[i];
      Axpy(alpha, sp.data(), sx.data(), m);
    }
    InsertSorted(active, blocker);
  }

  if (result.status != LpStatus::kOptimal &&
      result.status != LpStatus::kUnbounded) {
    result.status = (result.iterations >= max_iter) ? LpStatus::kIterationLimit
                                                    : result.status;
  }

  // Refine: snap x onto the active face (one Newton correction in the span
  // of the active normals) to reduce drift accumulated by line searches.
  if (result.status == LpStatus::kOptimal && !active.empty()) {
    const size_t k = active.size();
    gram.assign(k * k, 0.0);
    rhs.assign(k, 0.0);
    for (size_t i = 0; i < k; ++i) {
      const double* ai = problem.row(active[i]);
      rhs[i] = problem.rhs(active[i]) - Dot(ai, x.data(), d);
      for (size_t j = 0; j < k; ++j) {
        gram[i * k + j] = Dot(ai, problem.row(active[j]), d);
      }
    }
    if (SolveLinearSystem(gram, rhs, k)) {
      for (size_t i = 0; i < k; ++i) {
        Axpy(rhs[i], problem.row(active[i]), x.data(), d);
      }
    }
  }

  if (result.status == LpStatus::kOptimal) result.active = active;
  result.objective = Dot(c.data(), x.data(), d);
  return result;
}

LpResult ActiveSetSolver::Maximize(const LpProblem& problem,
                                   const std::vector<double>& c,
                                   const std::vector<double>& x0) const {
  LpScratch scratch;
  return Run(problem, c, x0, nullptr, scratch, nullptr);
}

LpResult ActiveSetSolver::Maximize(const LpProblem& problem,
                                   const std::vector<double>& c,
                                   const std::vector<double>& x0,
                                   const std::vector<size_t>* warm_active,
                                   LpScratch* scratch,
                                   const double* sx0) const {
  if (scratch != nullptr) {
    return Run(problem, c, x0, warm_active, *scratch, sx0);
  }
  LpScratch local;
  return Run(problem, c, x0, warm_active, local, sx0);
}

LpResult ActiveSetSolver::Minimize(const LpProblem& problem,
                                   const std::vector<double>& c,
                                   const std::vector<double>& x0) const {
  return Minimize(problem, c, x0, nullptr, nullptr);
}

LpResult ActiveSetSolver::Minimize(const LpProblem& problem,
                                   const std::vector<double>& c,
                                   const std::vector<double>& x0,
                                   const std::vector<size_t>* warm_active,
                                   LpScratch* scratch,
                                   const double* sx0) const {
  LpScratch local;
  LpScratch& sc = scratch != nullptr ? *scratch : local;
  std::vector<double>& neg = sc.neg_c;
  neg.resize(c.size());
  for (size_t i = 0; i < c.size(); ++i) neg[i] = -c[i];
  LpResult r = Run(problem, neg, x0, warm_active, sc, sx0);
  r.objective = -r.objective;
  return r;
}

StatusOr<std::vector<double>> FindFeasiblePoint(const LpProblem& problem,
                                                const std::vector<double>& hint,
                                                PhaseOneScratch* scratch) {
  const size_t d = problem.dim();
  NNCELL_CHECK(hint.size() == d);

  // Fast path: the hint itself is feasible.
  if (problem.MaxViolation(hint.data()) <= 0.0) return hint;

  PhaseOneScratch local;
  PhaseOneScratch& sc = scratch != nullptr ? *scratch : local;

  // Extended LP over (x, t): minimize t s.t. a_i.x - t <= b_i, -t <= 1.
  LpProblem& ext = sc.ext;
  ext.Reset(d + 1);
  ext.Reserve(problem.num_constraints() + 1);
  for (size_t i = 0; i < problem.num_constraints(); ++i) {
    const double* ai = problem.row(i);
    double* row = ext.AppendRow(problem.rhs(i));
    std::copy(ai, ai + d, row);
    row[d] = -1.0;
  }
  double* last = ext.AppendRow(1.0);  // t >= -1 keeps the LP bounded
  std::fill(last, last + d, 0.0);
  last[d] = -1.0;

  std::vector<double>& start = sc.start;
  start.assign(d + 1, 0.0);
  std::copy(hint.begin(), hint.end(), start.begin());
  start[d] = std::max(0.0, problem.MaxViolation(hint.data())) + 1.0;

  std::vector<double>& c = sc.c;
  c.assign(d + 1, 0.0);
  c[d] = 1.0;

  ActiveSetSolver solver;
  LpResult r = solver.Minimize(ext, c, start, nullptr, &sc.lp);
  if (r.status != LpStatus::kOptimal) {
    return Status::Internal("phase-I LP did not converge");
  }
  double t_star = r.x[d];
  if (t_star > 1e-9) {
    return Status::NotFound("constraint system is infeasible");
  }
  return std::vector<double>(r.x.begin(), r.x.begin() + d);
}

}  // namespace nncell
