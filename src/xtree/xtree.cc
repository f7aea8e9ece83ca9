#include "xtree/xtree.h"

#include <sstream>

#include "common/metrics.h"
#include "common/metrics_names.h"
#include "rstar/split.h"
#include "xtree/xsplit.h"

namespace nncell {

namespace {

// Maximum tolerated directory split overlap before the overlap-minimal
// split / supernode machinery kicks in (X-tree paper: MAX_OVERLAP = 20%).
constexpr double kMaxOverlap = 0.2;

}  // namespace

XTree::XTree(BufferPool* pool, TreeOptions options)
    : RTreeCore(pool, options) {
  NNCELL_CHECK(options.max_supernode_pages >= 1);
}

size_t XTree::MaxEntries(const Node& node) const {
  // A node may fill its current page span before overflow treatment runs.
  return store().Capacity(node.page_span());
}

std::optional<std::pair<std::vector<Entry>, std::vector<Entry>>>
XTree::SplitNode(const Node& node) {
  const size_t dim = options().dim;
  const size_t min_fill = MinFill();

  // Data nodes always use the R* topological split (the X-tree changes the
  // directory only).
  if (node.is_leaf) {
    return RStarSplit(node.entries, dim, min_fill);
  }

  // 1. Topological (R*) split attempt.
  auto topo = RStarSplit(node.entries, dim, min_fill);
  const HyperRect left = MbrOf(topo.first, dim);
  const HyperRect right = MbrOf(topo.second, dim);
  if (SplitOverlap(left.lo(), left.hi(), right.lo(), right.hi(), dim) <=
      kMaxOverlap) {
    return topo;
  }

  // 2. Overlap-minimal split attempt.
  double achieved = 1.0;
  auto minimal =
      OverlapMinimalSplit(node.entries, dim, min_fill, &achieved);
  if (minimal.has_value() && achieved <= kMaxOverlap) {
    return minimal;
  }

  // 3. Supernode: grow instead of splitting, as long as the budget allows.
  if (node.page_span() < options().max_supernode_pages) {
    ++supernode_events_;
    [[maybe_unused]] static metrics::Counter* const supernode_counter =
        metrics::Registry::Global().counter(metrics::kIndexSupernodeEvents);
    NNCELL_METRIC_COUNT(supernode_counter, 1);
    return std::nullopt;
  }

  // Budget exhausted: fall back to the least bad split available.
  if (minimal.has_value()) return minimal;
  return topo;
}

std::string XTree::ValidateNode(const Node& node, PageId pid,
                                bool /*is_root*/) const {
  std::ostringstream err;
  if (node.is_leaf && node.page_span() != 1) {
    err << "node " << pid << ": data node became a supernode (spans "
        << node.page_span() << " pages)";
    return err.str();
  }
  if (node.page_span() > options().max_supernode_pages) {
    err << "node " << pid << ": supernode spans " << node.page_span()
        << " pages, budget is " << options().max_supernode_pages;
    return err.str();
  }
  if (node.page_span() > 1 &&
      node.entries.size() <= store().Capacity(1)) {
    err << "node " << pid << ": supernode holds only " << node.entries.size()
        << " entries, which fit a single page";
    return err.str();
  }
  return "";
}

}  // namespace nncell
