#include "xtree/xsplit.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "rstar/split.h"

namespace nncell {

double SplitOverlap(const double* alo, const double* ahi, const double* blo,
                    const double* bhi, size_t dim) {
  double inter = RawOverlapVolume(alo, ahi, blo, bhi, dim);
  if (inter <= 0.0) return 0.0;
  double uni = RawVolume(alo, ahi, dim) + RawVolume(blo, bhi, dim) - inter;
  if (uni <= 0.0) return 1.0;  // degenerate: fully coincident flat rects
  return inter / uni;
}

std::optional<std::pair<std::vector<Entry>, std::vector<Entry>>>
OverlapMinimalSplit(std::vector<Entry> entries, size_t dim, size_t min_fill,
                    double* achieved_overlap) {
  const size_t n = entries.size();
  NNCELL_CHECK(n >= 2);
  size_t m = std::min(min_fill, n / 2);
  m = std::max<size_t>(m, 1);

  size_t best_axis = 0, best_split = 0;
  bool best_by_lower = true;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_balance = std::numeric_limits<double>::infinity();

  const size_t w = 2 * dim;
  std::vector<double> prefix, suffix;
  for (size_t axis = 0; axis < dim; ++axis) {
    for (bool by_lower : {true, false}) {
      SortOnAxis(entries, axis, by_lower, /*tie_break=*/false);
      SweepMbrs(entries, dim, &prefix, &suffix);
      for (size_t k = m; k + m <= n; ++k) {
        const double* l = prefix.data() + (k - 1) * w;
        const double* r = suffix.data() + k * w;
        double overlap = SplitOverlap(l, l + dim, r, r + dim, dim);
        double balance =
            std::abs(static_cast<double>(k) - static_cast<double>(n - k));
        if (overlap < best_overlap - 1e-15 ||
            (overlap <= best_overlap + 1e-15 && balance < best_balance)) {
          best_overlap = std::min(overlap, best_overlap);
          best_balance = balance;
          best_axis = axis;
          best_split = k;
          best_by_lower = by_lower;
        }
      }
    }
  }

  if (best_split == 0) return std::nullopt;  // no balanced split possible

  SortOnAxis(entries, best_axis, best_by_lower, /*tie_break=*/false);
  if (achieved_overlap != nullptr) *achieved_overlap = best_overlap;
  std::vector<Entry> left(std::make_move_iterator(entries.begin()),
                          std::make_move_iterator(entries.begin() + best_split));
  std::vector<Entry> right(std::make_move_iterator(entries.begin() + best_split),
                           std::make_move_iterator(entries.end()));
  return std::make_pair(std::move(left), std::move(right));
}

}  // namespace nncell
