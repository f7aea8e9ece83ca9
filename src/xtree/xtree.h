#ifndef NNCELL_XTREE_XTREE_H_
#define NNCELL_XTREE_XTREE_H_

#include <optional>
#include <utility>
#include <vector>

#include "rstar/rtree_core.h"

namespace nncell {

// The X-tree [BKK 96]: an R*-tree variant built for high-dimensional data.
// Directory splits that would introduce more than MAX_OVERLAP = 20% overlap
// are replaced by an overlap-minimal split; when no balanced overlap-minimal
// split exists the node becomes a supernode spanning multiple pages instead
// of being split. This keeps the directory (nearly) overlap-free, which is
// what makes it the strongest baseline in the paper's evaluation.
class XTree : public RTreeCore {
 public:
  XTree(BufferPool* pool, TreeOptions options);

  // Number of supernode-growth decisions taken (for tests/benchmarks).
  size_t supernode_events() const { return supernode_events_; }

 protected:
  size_t MaxEntries(const Node& node) const override;

  std::optional<std::pair<std::vector<Entry>, std::vector<Entry>>> SplitNode(
      const Node& node) override;

  // Supernode invariants (checked by Validate): data nodes never become
  // supernodes, directory supernodes respect the configured page budget,
  // and a multi-page node genuinely needs its span (a supernode that fits
  // one page should have been shrunk on its last Write).
  std::string ValidateNode(const Node& node, PageId pid,
                           bool is_root) const override;

 private:
  size_t supernode_events_ = 0;
};

}  // namespace nncell

#endif  // NNCELL_XTREE_XTREE_H_
