#ifndef NNCELL_RSTAR_BULK_LOAD_H_
#define NNCELL_RSTAR_BULK_LOAD_H_

#include <cstddef>
#include <vector>

#include "rstar/node.h"

namespace nncell {

// A packing for RTreeCore::BulkLoad: partitions a static entry set into
// groups of at most `capacity` entries, one group per packed node. Group
// sizes are balanced (about capacity/2 or more when more than one group
// exists), so packed nodes respect R*-style minimum fill.
using PartitionFn = std::vector<std::vector<Entry>> (*)(
    std::vector<Entry> entries, size_t capacity, size_t dim);

// Sort-Tile-Recursive packing [Leutenegger, Lopez, Edgington 1997]:
// locality-preserving tiling on the rectangle centers. Packs the point
// tree, whose entries are points.
std::vector<std::vector<Entry>> StrPartition(std::vector<Entry> entries,
                                             size_t capacity, size_t dim);

// Balanced top-down packing with the R* split's own criteria: while a set
// of n entries needs L = ceil(n / capacity) > 1 groups, cut it after
// k = floor(n * floor(L/2) / L) entries in the sort order (each axis, by
// lower and by upper bound, R* tie-break) whose two halves have the least
// summed margin (the first order wins ties), and recurse on both halves.
// Packs the cell tree: for fat, heavily overlapping cell MBRs it groups by
// rectangle similarity, where center-based STR tiles by position only.
std::vector<std::vector<Entry>> SplitPartition(std::vector<Entry> entries,
                                               size_t capacity, size_t dim);

}  // namespace nncell

#endif  // NNCELL_RSTAR_BULK_LOAD_H_
