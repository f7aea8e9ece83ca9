#ifndef NNCELL_XTREE_XSPLIT_H_
#define NNCELL_XTREE_XSPLIT_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "rstar/node.h"

namespace nncell {

// X-tree directory split machinery [BKK 96].

// Overlap measure of a binary split: intersection volume over union volume
// of the two group MBRs [alo, ahi] and [blo, bhi] (0 = overlap-free,
// 1 = identical).
double SplitOverlap(const double* alo, const double* ahi, const double* blo,
                    const double* bhi, size_t dim);

// Searches all axes and sweep positions for the split with minimal overlap
// between the two groups, requiring at least `min_fill` entries per group.
// Returns nullopt when no balanced split exists (then the X-tree creates a
// supernode). When several splits achieve the minimal overlap, the most
// balanced one wins.
std::optional<std::pair<std::vector<Entry>, std::vector<Entry>>>
OverlapMinimalSplit(std::vector<Entry> entries, size_t dim, size_t min_fill,
                    double* achieved_overlap);

}  // namespace nncell

#endif  // NNCELL_XTREE_XSPLIT_H_
