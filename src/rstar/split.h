#ifndef NNCELL_RSTAR_SPLIT_H_
#define NNCELL_RSTAR_SPLIT_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "rstar/node.h"

namespace nncell {

// The R*-tree topological split [BKSS 90]:
//  1. ChooseSplitAxis: the axis minimizing the summed margin over all
//     candidate distributions (entries sorted by lower and by upper value).
//  2. ChooseSplitIndex: along that axis, the distribution with minimal
//     overlap between the two groups (ties: minimal summed area).
// Each group ends up with at least `min_fill` entries.
std::pair<std::vector<Entry>, std::vector<Entry>> RStarSplit(
    std::vector<Entry> entries, size_t dim, size_t min_fill);

// The sweep both tree splits score their distributions with.

// Stable sort by the lower (`by_lower`) or upper bound on `axis`. With
// `tie_break`, equal keys order by the other bound (the R* split);
// without, they keep their order (the X-tree's overlap-minimal split).
void SortOnAxis(std::vector<Entry>& entries, size_t axis, bool by_lower,
                bool tie_break);

// The MBRs of every prefix and every suffix of `entries`, flat, 2*dim
// doubles (lo, then hi) each: the k-th block of *prefix bounds entries
// [0, k], that of *suffix entries [k, n). Each is grown entry by entry
// with RawExpand, so it has the bits of ExpandToRect over the same range.
void SweepMbrs(const std::vector<Entry>& entries, size_t dim,
               std::vector<double>* prefix, std::vector<double>* suffix);

}  // namespace nncell

#endif  // NNCELL_RSTAR_SPLIT_H_
