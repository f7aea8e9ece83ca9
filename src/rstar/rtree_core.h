#ifndef NNCELL_RSTAR_RTREE_CORE_H_
#define NNCELL_RSTAR_RTREE_CORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/approx.h"
#include "common/hyper_rect.h"
#include "rstar/bulk_load.h"
#include "rstar/node.h"
#include "rstar/tree_options.h"
#include "storage/buffer_pool.h"

namespace nncell {

// Shared engine of the page-based spatial trees. Implements the full
// R*-tree insert path (ChooseSubtree, forced reinsert, topological split),
// deletion with tree condensation, and the query algorithms (point, range,
// best-first kNN of [HS 95] with MINDIST pruning). The X-tree derives from
// this engine and overrides the split decision and node capacity to add
// overlap-minimal splits and supernodes.
class RTreeCore {
 public:
  // One k-NN answer: a leaf entry and its squared MINDIST to the query
  // (the squared Euclidean distance for point data).
  struct Hit {
    uint64_t id = 0;
    double dist_sq = 0.0;
  };

  struct TreeInfo {
    size_t height = 0;
    size_t size = 0;          // leaf entries
    size_t num_nodes = 0;     // logical nodes
    size_t num_leaves = 0;
    size_t num_supernodes = 0;
    size_t total_pages = 0;   // pages spanned by all nodes
  };

  RTreeCore(BufferPool* pool, TreeOptions options);
  virtual ~RTreeCore() = default;

  RTreeCore(const RTreeCore&) = delete;
  RTreeCore& operator=(const RTreeCore&) = delete;

  const TreeOptions& options() const { return options_; }
  size_t dim() const { return options_.dim; }
  size_t size() const { return size_; }
  size_t height() const { return height_; }
  BufferPool* pool() const { return pool_; }

  // Inserts a leaf entry.
  void Insert(const HyperRect& rect, uint64_t id);

  // Builds the tree from a static entry set in one bottom-up pass:
  // `partition` packs the entries into single-page leaves, then each
  // directory level over the level below, until one level fits the root.
  // Requires an empty tree; afterwards the tree supports all dynamic
  // operations. The NN-cell index packs its point tree with StrPartition
  // and its cell tree with SplitPartition (bulk_load.h).
  void BulkLoad(std::vector<Entry> entries, PartitionFn partition);

  // Removes the leaf entry matching (rect, id) exactly. Returns false when
  // no such entry exists.
  bool Delete(const HyperRect& rect, uint64_t id);

  // Overwrites the leaf entry matching (rect, id) exactly with `shrunk`,
  // which must lie inside `rect`, and tightens the directory rectangles
  // above it. The entry keeps its leaf, so this costs one root-to-leaf
  // descent instead of a Delete + Insert. Returns false when no such entry
  // exists.
  bool ShrinkEntry(const HyperRect& rect, uint64_t id,
                   const HyperRect& shrunk);

  // Ids of all leaf entries whose rectangle contains q (the paper's point
  // query), in depth-first traversal order.
  std::vector<uint64_t> PointQuery(const double* q) const;

  // All leaf entries whose rectangle intersects `range`.
  std::vector<Entry> RangeQuery(const HyperRect& range) const;

  // Ids of the same entries, in depth-first traversal order; spares the
  // rectangle copies RangeQuery makes.
  std::vector<uint64_t> RangeQueryIds(const HyperRect& range) const;

  // Page-granular query used by the paper's Point/Sphere candidate
  // selection: the ids of ALL entries of every leaf node whose page region
  // lies within `radius` of q (radius 0: contains q), in depth-first
  // traversal order.
  std::vector<uint64_t> LeafPageSphereQuery(const double* q,
                                            double radius) const;

  // The k nearest leaf entries to q by MINDIST: best-first search [HS 95],
  // optimal in page accesses, with the certified / bounded-effort knobs of
  // the approximate query tier (docs/APPROXIMATE.md):
  //   - epsilon rule: stop once the k-th best squared distance is within
  //     (1+epsilon)^2 of the tightest remaining subtree MINDIST;
  //   - effort budget: stop after max_leaf_visits leaf pages (0 = none);
  //   - a per-query certificate (bound on unvisited entries, leaf pages
  //     scanned, how the search ended).
  // Default options are the exact search: the hits are the true k nearest,
  // ties at equal distance resolved to the smaller id, i.e. ascending by
  // (dist_sq, id) like the exact scan.
  struct ApproxNnResult {
    std::vector<Hit> hits;         // ascending (dist_sq, id), up to k
    uint64_t leaf_visits = 0;      // leaf pages scanned
    uint64_t entries_scanned = 0;  // leaf entries scored
    double bound_sq = 0.0;         // squared lower bound on unvisited entries
    bool terminated_early = false; // epsilon rule fired before exactness
    bool truncated = false;        // budget ran out with subtrees pending
  };
  ApproxNnResult KnnQuery(const double* q, size_t k,
                          const ApproxOptions& approx = {}) const;

  // Nearest neighbor by the depth-first branch-and-bound of [RKV 95]:
  // children sorted by MINDIST, pruned with MINMAXDIST. This is the
  // "classic NN search" of the paper's evaluation -- it sorts and scores
  // every visited directory node, which is exactly the CPU cost the
  // NN-cell approach eliminates. Returns nullopt on an empty tree.
  std::optional<Hit> NnBranchAndBound(const double* q) const;

  // ChooseSubtree of the R*-tree: the index of the entry of directory
  // node `node` that an insert of `rect` descends into. Above the leaf
  // parents, least area enlargement (ties: least area); at a leaf parent
  // (`children_are_leaves`), least overlap enlargement against the
  // siblings (ties: area enlargement, then area), where a node of more
  // than 32 entries scores only the 32 of least area enlargement. A pure
  // function of its arguments.
  static size_t ChooseSubtree(const Node& node, const HyperRect& rect,
                              bool children_are_leaves);

  // Structural statistics (walks the tree; costs page accesses).
  TreeInfo Info() const;

  // Persistence support: the logical state that lives outside the pages.
  struct PersistentState {
    PageId root = kInvalidPageId;
    uint64_t height = 1;
    uint64_t size = 0;
  };
  PersistentState SaveState() const {
    return PersistentState{root_, height_, size_};
  }
  // Re-attaches the tree to a page image restored into the pool's
  // PageFile (see PageFile::LoadFrom); discards the empty root the
  // constructor created.
  void RestoreState(const PersistentState& state) {
    root_ = state.root;
    height_ = static_cast<size_t>(state.height);
    size_ = static_cast<size_t>(state.size);
  }

  // Deep structural validation: MBR consistency (parent rectangles are the
  // tight union of their children -- Lemma 1 would silently absorb an
  // enlarged one, so bit-for-bit equality is enforced), uniform leaf depth,
  // minimum fill, entry count, well-formed rectangles (no NaN / inverted
  // bounds), page-span bookkeeping, double-reference and double-free
  // detection, and page reachability: every allocated page of the
  // underlying file is either part of exactly one node or on the free list
  // (no orphans).
  // Subclasses add their own node invariants via ValidateNode. Returns an
  // error description or "". Prefer the rstar::ValidateTree wrapper in
  // validate.h for new call sites.
  std::string Validate() const;

 protected:
  // Capacity of this node before it overflows. The base returns the
  // single-page capacity; the X-tree returns the supernode capacity.
  virtual size_t MaxEntries(const Node& node) const;

  // Splits an overflowing node's entries into two groups, or returns
  // nullopt to keep the node whole (X-tree supernode growth).
  virtual std::optional<std::pair<std::vector<Entry>, std::vector<Entry>>>
  SplitNode(const Node& node);

  size_t MinFill() const { return min_fill_; }
  const NodeStore& store() const { return store_; }

  // Structure-specific node invariants checked by Validate (e.g. the
  // X-tree's supernode rules). The base engine only ever produces
  // single-page nodes. Returns "" or an error description.
  virtual std::string ValidateNode(const Node& node, PageId pid,
                                   bool is_root) const;

 private:
  struct PathStep {
    PageId pid = kInvalidPageId;
    Node node;
    size_t child_idx = 0;
  };

  // Inserts an entry at the given level (0 = leaf). Drives overflow
  // treatment (reinsert / split / supernode) and root growth.
  void InsertEntry(Entry entry, size_t target_level);

  // Writes updated child MBRs up the path.
  void PropagateMbrs(std::vector<PathStep>& path, const HyperRect& child_mbr);

  // Depth-first over the tree: `emit` receives every leaf entry whose
  // rectangle contains q (q != nullptr) or else intersects *range. Each
  // node is tested by the box_hits kernel, 64 entries per call.
  template <class Emit>
  void CollectMatches(const HyperRect* range, const double* q,
                      Emit emit) const;

  void BranchAndBoundRec(PageId pid, const double* q, Hit* best) const;

  // Condensation helper for Delete.
  struct Orphan {
    Entry entry;
    size_t level;
  };

  // Depth-first descent (Delete, ShrinkEntry) to the leaf entry matching
  // (rect, id) exactly, through children whose rectangle contains `rect`.
  // On success `path` (empty on entry) holds the directory steps, root
  // first, and *leaf the leaf's page, node and entry index. Only the nodes
  // on the found path are kept.
  bool FindLeafEntry(PageId pid, size_t level, const HyperRect& rect,
                     uint64_t id, std::vector<PathStep>& path, PathStep* leaf);

  void InfoRec(PageId pid, size_t level, TreeInfo* info) const;
  std::string ValidateRec(PageId pid, size_t level, const HyperRect* expected,
                          size_t* entry_count,
                          std::unordered_set<PageId>* reachable) const;

  BufferPool* pool_;
  TreeOptions options_;
  NodeStore store_;
  PageId root_;
  size_t height_ = 1;  // 1 == root is a leaf
  size_t size_ = 0;
  size_t min_fill_;
  std::vector<bool> reinserted_;  // per level, during one Insert
};

}  // namespace nncell

#endif  // NNCELL_RSTAR_RTREE_CORE_H_
