#include "lp/face_solve_session.h"

#include <cmath>
#include <limits>

#include "lp/linalg.h"

namespace nncell {

void FaceSolveSession::BeginCell(bool warm_start) {
  warm_enabled_ = warm_start;
  prepared_ = false;
  last_face_kind_ = FaceKind::kCold;
}

void FaceSolveSession::PrepareFaces(const LpProblem& problem,
                                    const std::vector<double>& x0) {
  prepared_ = false;
  if (!warm_enabled_) return;
  const size_t d = problem.dim();
  const size_t m = problem.num_constraints();
  if (m == 0 || x0.size() != d) return;

  x0_.assign(x0.begin(), x0.end());
  sx0_.resize(m);
  MatVec(problem.matrix(), m, d, problem.stride(), x0_.data(), sx0_.data());

  // Every certificate below rests on x0 being feasible: a skipped face
  // reuses x0's coordinates verbatim, and a warm start assumes the hit
  // point is inside the polytope. A phase-I start can miss feasibility by
  // far more than its t* acceptance threshold on degenerate systems
  // (solver drift), which the cold solver silently repairs through its
  // pivots but a certificate would faithfully expose. Such cells fall
  // back to the cold pipeline wholesale.
  for (size_t r = 0; r < m; ++r) {
    double viol = sx0_[r] - problem.rhs(r);
    if (viol > 1e-9 * (1.0 + std::abs(problem.rhs(r)) + std::abs(sx0_[r]))) {
      return;
    }
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  hit_t_.assign(2 * d, kInf);
  hit_row_.assign(2 * d, kNoRow);
  const double* a = problem.matrix();
  const size_t stride = problem.stride();
  for (size_t r = 0; r < m; ++r, a += stride) {
    // Slack of the start; feasibility dust (a phase-I point may sit a hair
    // outside a row) clamps to a zero-length step rather than a negative
    // one.
    double s = problem.rhs(r) - sx0_[r];
    if (s < 0.0) s = 0.0;
    for (size_t i = 0; i < d; ++i) {
      double coef = a[i];
      if (coef > 0.0) {
        double t = s / coef;
        // Strict '<': the earliest row wins ties, and the data-space box
        // rows come first -- so a tie between a box face and a coincident
        // bisector certifies via the (axis-aligned) box row.
        if (t < hit_t_[2 * i]) {
          hit_t_[2 * i] = t;
          hit_row_[2 * i] = r;
        }
      } else if (coef < 0.0) {
        double t = s / -coef;
        if (t < hit_t_[2 * i + 1]) {
          hit_t_[2 * i + 1] = t;
          hit_row_[2 * i + 1] = r;
        }
      }
    }
  }

  // A blocking row that is a (sign-correct) multiple of e_i certifies its
  // face: the row alone caps x_i, and the hit point attains the cap.
  axis_row_.assign(2 * d, 0);
  for (size_t slot = 0; slot < 2 * d; ++slot) {
    const size_t r = hit_row_[slot];
    if (r == kNoRow) continue;
    const double* row = problem.row(r);
    const size_t i = slot / 2;
    bool axis = true;
    for (size_t k = 0; k < d; ++k) {
      if (k != i && row[k] != 0.0) {
        axis = false;
        break;
      }
    }
    axis_row_[slot] = axis ? 1 : 0;
  }
  prepared_ = true;
}

LpResult FaceSolveSession::SolveFace(const LpProblem& problem,
                                     const std::vector<double>& c, size_t axis,
                                     bool maximize,
                                     const std::vector<double>& cold_start) {
  last_face_kind_ = FaceKind::kCold;
  if (prepared_ && axis < problem.dim()) {
    const size_t slot = 2 * axis + (maximize ? 0 : 1);
    const size_t r = hit_row_[slot];
    if (r != kNoRow) {
      if (axis_row_[slot]) {
        // Certified face: row r is alpha * (+-e_axis) with the sign that
        // blocks this direction, so every feasible x obeys
        // +-x_axis <= b_r / |alpha| and the ray hit point (feasible as the
        // first boundary crossing from a feasible start) attains it. This
        // is the exact optimum the LP would return -- emitted with its
        // KKT certificate ({r} active, multiplier 1/|alpha| >= 0) and zero
        // iterations.
        LpResult res;
        res.status = LpStatus::kOptimal;
        res.x = x0_;
        res.x[axis] = problem.rhs(r) / problem.row(r)[axis];
        res.objective = c[axis] * res.x[axis];
        res.iterations = 0;
        res.active.assign(1, r);
        last_face_kind_ = FaceKind::kSkipped;
        return res;
      }
      // Warm start at the hit point with the blocking row active -- the
      // state a cold solve reaches after its first iteration. The hit
      // point differs from x0 in one coordinate, so its row products come
      // from the cached a_r . x0 plus one column of the matrix instead of
      // a full matrix pass.
      warm_x_ = x0_;
      const double step = maximize ? hit_t_[slot] : -hit_t_[slot];
      warm_x_[axis] += step;
      const size_t m = problem.num_constraints();
      const size_t stride = problem.stride();
      warm_sx_ = sx0_;
      const double* col = problem.matrix() + axis;
      for (size_t i = 0; i < m; ++i) warm_sx_[i] += step * col[i * stride];
      warm_active_.assign(1, r);
      LpResult result =
          maximize
              ? solver_.Maximize(problem, c, warm_x_, &warm_active_,
                                 &lp_scratch_, warm_sx_.data())
              : solver_.Minimize(problem, c, warm_x_, &warm_active_,
                                 &lp_scratch_, warm_sx_.data());
      if (result.status == LpStatus::kOptimal ||
          result.status == LpStatus::kUnbounded) {
        last_face_kind_ = FaceKind::kWarm;
        return result;
      }
      // Numerically stale hit point: fall back to the cold path, keeping
      // the spent iterations in the total so the stats never hide the
      // retry.
      size_t spent = result.iterations;
      result = maximize ? solver_.Maximize(problem, c, cold_start, nullptr,
                                           &lp_scratch_)
                        : solver_.Minimize(problem, c, cold_start, nullptr,
                                           &lp_scratch_);
      result.iterations += spent;
      return result;
    }
  }
  return maximize ? solver_.Maximize(problem, c, cold_start, nullptr,
                                     &lp_scratch_)
                  : solver_.Minimize(problem, c, cold_start, nullptr,
                                     &lp_scratch_);
}

}  // namespace nncell
