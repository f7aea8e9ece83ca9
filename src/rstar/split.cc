#include "rstar/split.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace nncell {

void SortOnAxis(std::vector<Entry>& entries, size_t axis, bool by_lower,
                bool tie_break) {
  std::stable_sort(entries.begin(), entries.end(),
                   [=](const Entry& a, const Entry& b) {
                     double ka = by_lower ? a.rect.lo(axis) : a.rect.hi(axis);
                     double kb = by_lower ? b.rect.lo(axis) : b.rect.hi(axis);
                     if (ka != kb || !tie_break) return ka < kb;
                     double sa = by_lower ? a.rect.hi(axis) : a.rect.lo(axis);
                     double sb = by_lower ? b.rect.hi(axis) : b.rect.lo(axis);
                     return sa < sb;
                   });
}

void SweepMbrs(const std::vector<Entry>& entries, size_t dim,
               std::vector<double>* prefix, std::vector<double>* suffix) {
  const size_t n = entries.size();
  const size_t w = 2 * dim;
  prefix->resize(n * w);
  suffix->resize(n * w);
  double* p = prefix->data();
  std::copy_n(entries[0].rect.lo(), w, p);
  for (size_t i = 1; i < n; ++i) {
    double* acc = p + i * w;
    std::copy_n(acc - w, w, acc);
    RawExpand(acc, acc + dim, entries[i].rect.lo(), entries[i].rect.hi(), dim);
  }
  double* s = suffix->data();
  std::copy_n(entries[n - 1].rect.lo(), w, s + (n - 1) * w);
  for (size_t i = n - 1; i-- > 0;) {
    double* acc = s + i * w;
    std::copy_n(acc + w, w, acc);
    RawExpand(acc, acc + dim, entries[i].rect.lo(), entries[i].rect.hi(), dim);
  }
}

std::pair<std::vector<Entry>, std::vector<Entry>> RStarSplit(
    std::vector<Entry> entries, size_t dim, size_t min_fill) {
  const size_t n = entries.size();
  NNCELL_CHECK(n >= 2);
  size_t m = std::min(min_fill, n / 2);
  m = std::max<size_t>(m, 1);
  const size_t w = 2 * dim;
  std::vector<double> prefix, suffix;

  // --- ChooseSplitAxis: minimize total margin over all distributions. ---
  size_t best_axis = 0;
  bool best_axis_by_lower = true;
  double best_margin_sum = std::numeric_limits<double>::infinity();
  for (size_t axis = 0; axis < dim; ++axis) {
    for (bool by_lower : {true, false}) {
      SortOnAxis(entries, axis, by_lower, /*tie_break=*/true);
      SweepMbrs(entries, dim, &prefix, &suffix);
      double margin_sum = 0.0;
      for (size_t k = m; k + m <= n; ++k) {
        const double* l = prefix.data() + (k - 1) * w;
        const double* r = suffix.data() + k * w;
        margin_sum += RawMargin(l, l + dim, dim) + RawMargin(r, r + dim, dim);
      }
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best_axis = axis;
        best_axis_by_lower = by_lower;
      }
    }
  }

  // --- ChooseSplitIndex along the best axis. ---
  // Consider both sort orders on the chosen axis (the R* paper fixes the
  // axis by margin but evaluates distributions of both sortings).
  size_t best_split = m;
  bool best_by_lower = best_axis_by_lower;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (bool by_lower : {true, false}) {
    SortOnAxis(entries, best_axis, by_lower, /*tie_break=*/true);
    SweepMbrs(entries, dim, &prefix, &suffix);
    for (size_t k = m; k + m <= n; ++k) {
      const double* l = prefix.data() + (k - 1) * w;
      const double* r = suffix.data() + k * w;
      double overlap = RawOverlapVolume(l, l + dim, r, r + dim, dim);
      double area = RawVolume(l, l + dim, dim) + RawVolume(r, r + dim, dim);
      if (overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_split = k;
        best_by_lower = by_lower;
      }
    }
  }

  SortOnAxis(entries, best_axis, best_by_lower, /*tie_break=*/true);
  std::vector<Entry> left(std::make_move_iterator(entries.begin()),
                          std::make_move_iterator(entries.begin() + best_split));
  std::vector<Entry> right(std::make_move_iterator(entries.begin() + best_split),
                           std::make_move_iterator(entries.end()));
  return {std::move(left), std::move(right)};
}

}  // namespace nncell
