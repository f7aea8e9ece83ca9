#ifndef NNCELL_GEOM_DECOMPOSITION_H_
#define NNCELL_GEOM_DECOMPOSITION_H_

#include <cstddef>
#include <vector>

#include "common/hyper_rect.h"
#include "geom/cell_approximator.h"

namespace nncell {

// Section 3 of the paper: fight MBR overlap by linearly decomposing each
// NN-cell in its most "oblique" dimensions and indexing the MBR of every
// non-empty piece. A dimension is the more oblique the more splitting the
// cell MBR at its midpoint shrinks the summed piece volume (greedy volume
// reduction, which directly optimizes Definition 4's objective).

struct DecompositionOptions {
  // Total partition budget k = prod(n_i); the paper keeps k <= ~10 so the
  // index does not blow up. k <= 1 disables decomposition.
  size_t max_partitions = 1;
  // Maximum number of dimensions d' to decompose (paper: d' <= 7).
  size_t max_split_dims = 3;
};

// Per-dimension slice counts n_1 >= n_2 >= ... for the chosen oblique
// dimensions under the budget k (paper: equal counts, decreasing with
// obliqueness). Exposed for testing.
std::vector<size_t> PlanSliceCounts(size_t num_dims, size_t budget);

// Decomposes the NN-cell of `owner` (induced by `candidates`, bounded by
// the approximator's data space) into disjoint sub-MBRs covering the cell.
// `full_mbr` is the cell's one-piece MBR approximation (Definition 3); if
// the decomposition cannot improve on it, {full_mbr} is returned.
std::vector<HyperRect> DecomposeCell(
    const CellApproximator& approximator, const double* owner,
    const std::vector<const double*>& candidates, const HyperRect& full_mbr,
    const DecompositionOptions& options, ApproxStats* stats = nullptr);

}  // namespace nncell

#endif  // NNCELL_GEOM_DECOMPOSITION_H_
