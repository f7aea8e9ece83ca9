#ifndef NNCELL_RSTAR_TREE_OPTIONS_H_
#define NNCELL_RSTAR_TREE_OPTIONS_H_

#include <cstddef>

namespace nncell {

// Shared configuration of the page-based spatial trees (R*-tree, X-tree).
struct TreeOptions {
  // Dimensionality of indexed rectangles.
  size_t dim = 2;

  // Upper bound on X-tree supernode size, in pages (the R*-tree pins 1).
  size_t max_supernode_pages = 32;
};

}  // namespace nncell

#endif  // NNCELL_RSTAR_TREE_OPTIONS_H_
