#include "geom/decomposition.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace nncell {

namespace {

// Ranks dimensions by obliqueness (volume saved by a midpoint split), most
// oblique first.
std::vector<size_t> RankObliqueDims(
    const CellApproximator& approximator, const double* owner,
    const std::vector<const double*>& candidates, const HyperRect& full_mbr,
    ApproxStats* stats) {
  const size_t d = full_mbr.dim();
  std::vector<double> score(d, 0.0);
  const double full_vol = full_mbr.Volume();
  for (size_t i = 0; i < d; ++i) {
    if (full_mbr.Extent(i) <= 1e-12) {
      score[i] = -1.0;  // nothing to split
      continue;
    }
    double mid = 0.5 * (full_mbr.lo(i) + full_mbr.hi(i));
    HyperRect left = full_mbr;
    left.hi(i) = mid;
    HyperRect right = full_mbr;
    right.lo(i) = mid;
    double vol = 0.0;
    for (const HyperRect& half : {left, right}) {
      HyperRect piece =
          approximator.ApproximateClippedMbr(owner, candidates, half, stats);
      vol += piece.Volume();
    }
    score[i] = full_vol - vol;  // volume saved by a midpoint split
  }

  std::vector<size_t> order(d);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return score[a] > score[b]; });
  // Drop dimensions with no useful extent.
  while (!order.empty() && full_mbr.Extent(order.back()) <= 1e-12) {
    order.pop_back();
  }
  return order;
}

}  // namespace

std::vector<size_t> PlanSliceCounts(size_t num_dims, size_t budget) {
  std::vector<size_t> counts(num_dims, 1);
  if (num_dims == 0 || budget <= 1) return counts;
  // Equal base count n with n^num_dims <= budget, then hand out extra
  // factors to the most oblique dimensions while the product stays within
  // budget (counts stay non-increasing).
  size_t product = 1;
  bool grew = true;
  while (grew) {
    grew = false;
    for (size_t i = 0; i < num_dims; ++i) {
      // Keep non-increasing: may only grow counts[i] to counts[i-1].
      if (i > 0 && counts[i] >= counts[i - 1]) continue;
      size_t next_product = product / counts[i] * (counts[i] + 1);
      if (next_product <= budget) {
        product = next_product;
        ++counts[i];
        grew = true;
      }
    }
    if (!grew) {
      // Try growing the first dimension beyond the others.
      size_t next_product = product / counts[0] * (counts[0] + 1);
      if (next_product <= budget) {
        product = next_product;
        ++counts[0];
        grew = true;
      }
    }
  }
  return counts;
}

std::vector<HyperRect> DecomposeCell(
    const CellApproximator& approximator, const double* owner,
    const std::vector<const double*>& candidates, const HyperRect& full_mbr,
    const DecompositionOptions& options, ApproxStats* stats) {
  std::vector<HyperRect> result;
  if (options.max_partitions <= 1 || options.max_split_dims == 0 ||
      full_mbr.IsEmpty()) {
    result.push_back(full_mbr);
    return result;
  }

  std::vector<size_t> order =
      RankObliqueDims(approximator, owner, candidates, full_mbr, stats);
  size_t num_split = std::min(options.max_split_dims, order.size());
  order.resize(num_split);
  if (order.empty()) {
    result.push_back(full_mbr);
    return result;
  }

  std::vector<size_t> counts = PlanSliceCounts(num_split, options.max_partitions);
  // Drop dimensions that ended up with a single slice.
  while (!counts.empty() && counts.back() == 1) {
    counts.pop_back();
    order.pop_back();
  }
  if (counts.empty()) {
    result.push_back(full_mbr);
    return result;
  }

  // Enumerate the grid of slices over the chosen dimensions.
  size_t total = 1;
  for (size_t c : counts) total *= c;
  std::vector<size_t> idx(counts.size(), 0);
  for (size_t cell = 0; cell < total; ++cell) {
    HyperRect slice = full_mbr;
    size_t rem = cell;
    for (size_t j = 0; j < counts.size(); ++j) {
      size_t i = rem % counts[j];
      rem /= counts[j];
      size_t dim_j = order[j];
      double step = full_mbr.Extent(dim_j) / static_cast<double>(counts[j]);
      slice.lo(dim_j) = full_mbr.lo(dim_j) + step * static_cast<double>(i);
      slice.hi(dim_j) = (i + 1 == counts[j])
                            ? full_mbr.hi(dim_j)
                            : full_mbr.lo(dim_j) + step * static_cast<double>(i + 1);
    }
    HyperRect piece =
        approximator.ApproximateClippedMbr(owner, candidates, slice, stats);
    if (!piece.IsEmpty()) result.push_back(piece);
  }

  if (result.empty()) {
    // Defensive: never lose the cell (correctness over quality).
    result.push_back(full_mbr);
  }
  return result;
}

}  // namespace nncell
