#include "rstar/bulk_load.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/check.h"
#include "rstar/split.h"

namespace nncell {

namespace {

// Splits [begin, end) of `entries` into `parts` nearly equal consecutive
// ranges and invokes fn(range_begin, range_end) on each.
template <typename Fn>
void ForEqualRanges(size_t begin, size_t end, size_t parts, Fn&& fn) {
  size_t n = end - begin;
  size_t base = n / parts;
  size_t extra = n % parts;
  size_t pos = begin;
  for (size_t i = 0; i < parts; ++i) {
    size_t len = base + (i < extra ? 1 : 0);
    if (len == 0) continue;
    fn(pos, pos + len);
    pos += len;
  }
  NNCELL_DCHECK(pos == end);
}

void StrRec(std::vector<Entry>& entries, size_t begin, size_t end,
            size_t dim_index, size_t dim, size_t capacity,
            std::vector<std::vector<Entry>>* groups) {
  size_t n = end - begin;
  if (n <= capacity) {
    std::vector<Entry> group;
    group.reserve(n);
    for (size_t i = begin; i < end; ++i) group.push_back(std::move(entries[i]));
    groups->push_back(std::move(group));
    return;
  }
  size_t num_groups = (n + capacity - 1) / capacity;
  std::sort(entries.begin() + begin, entries.begin() + end,
            [dim_index](const Entry& a, const Entry& b) {
              return a.rect.lo(dim_index) + a.rect.hi(dim_index) <
                     b.rect.lo(dim_index) + b.rect.hi(dim_index);
            });
  if (dim_index + 1 >= dim) {
    // Last dimension: chunk into balanced runs of <= capacity.
    ForEqualRanges(begin, end, num_groups, [&](size_t lo, size_t hi) {
      std::vector<Entry> group;
      group.reserve(hi - lo);
      for (size_t i = lo; i < hi; ++i) group.push_back(std::move(entries[i]));
      groups->push_back(std::move(group));
    });
    return;
  }
  // Number of slabs along this dimension: P^(1/dims_remaining).
  size_t dims_remaining = dim - dim_index;
  size_t slabs = static_cast<size_t>(std::ceil(
      std::pow(static_cast<double>(num_groups),
               1.0 / static_cast<double>(dims_remaining))));
  slabs = std::max<size_t>(1, std::min(slabs, num_groups));
  ForEqualRanges(begin, end, slabs, [&](size_t lo, size_t hi) {
    StrRec(entries, lo, hi, dim_index + 1, dim, capacity, groups);
  });
}

// Copies the MBR of entries [begin, end) into out (2*dim doubles, lo then
// hi), grown entry by entry with RawExpand.
void RangeMbr(const std::vector<Entry>& entries, size_t begin, size_t end,
              size_t dim, double* out) {
  std::copy_n(entries[begin].rect.lo(), 2 * dim, out);
  for (size_t i = begin + 1; i < end; ++i) {
    RawExpand(out, out + dim, entries[i].rect.lo(), entries[i].rect.hi(), dim);
  }
}

void SplitRec(std::vector<Entry> entries, size_t capacity, size_t dim,
              std::vector<std::vector<Entry>>* groups) {
  const size_t n = entries.size();
  if (n <= capacity) {
    groups->push_back(std::move(entries));
    return;
  }
  const size_t parts = (n + capacity - 1) / capacity;
  const size_t k = n * (parts / 2) / parts;
  std::vector<double> mbrs(4 * dim);
  double* left = mbrs.data();
  double* right = left + 2 * dim;
  size_t best_axis = 0;
  bool best_by_lower = true;
  double best_margin = std::numeric_limits<double>::infinity();
  for (size_t axis = 0; axis < dim; ++axis) {
    for (bool by_lower : {true, false}) {
      SortOnAxis(entries, axis, by_lower, /*tie_break=*/true);
      RangeMbr(entries, 0, k, dim, left);
      RangeMbr(entries, k, n, dim, right);
      const double margin = RawMargin(left, left + dim, dim) +
                            RawMargin(right, right + dim, dim);
      if (margin < best_margin) {
        best_margin = margin;
        best_axis = axis;
        best_by_lower = by_lower;
      }
    }
  }
  SortOnAxis(entries, best_axis, best_by_lower, /*tie_break=*/true);
  std::vector<Entry> tail(std::make_move_iterator(entries.begin() + k),
                          std::make_move_iterator(entries.end()));
  entries.resize(k);
  SplitRec(std::move(entries), capacity, dim, groups);
  SplitRec(std::move(tail), capacity, dim, groups);
}

}  // namespace

std::vector<std::vector<Entry>> StrPartition(std::vector<Entry> entries,
                                             size_t capacity, size_t dim) {
  NNCELL_CHECK(capacity >= 1);
  std::vector<std::vector<Entry>> groups;
  if (entries.empty()) return groups;
  groups.reserve(entries.size() / capacity + 1);
  StrRec(entries, 0, entries.size(), 0, dim, capacity, &groups);
  return groups;
}

std::vector<std::vector<Entry>> SplitPartition(std::vector<Entry> entries,
                                               size_t capacity, size_t dim) {
  NNCELL_CHECK(capacity >= 1);
  std::vector<std::vector<Entry>> groups;
  if (entries.empty()) return groups;
  groups.reserve(entries.size() / capacity + 1);
  SplitRec(std::move(entries), capacity, dim, &groups);
  return groups;
}

}  // namespace nncell
