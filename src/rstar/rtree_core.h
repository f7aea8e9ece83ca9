#ifndef NNCELL_RSTAR_RTREE_CORE_H_
#define NNCELL_RSTAR_RTREE_CORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hyper_rect.h"
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
  struct Match {
    HyperRect rect;
    uint64_t id = 0;
    std::vector<double> aux;
  };

  struct KnnResult {
    uint64_t id = 0;
    double dist = 0.0;  // Euclidean distance to the entry rectangle
    HyperRect rect;
    std::vector<double> aux;
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

  // Inserts a leaf entry. `aux` must supply options().aux_per_entry doubles
  // (nullptr allowed when that is 0).
  void Insert(const HyperRect& rect, uint64_t id, const double* aux = nullptr);

  // Builds the tree from a static entry set with Sort-Tile-Recursive
  // packing [LLE 97]: near-full, locality-preserving leaves and a
  // bottom-up directory. Requires an empty tree; afterwards the tree
  // supports all dynamic operations. Used for the one-shot precomputation
  // of the NN-cell index.
  void BulkLoad(std::vector<Entry> entries);

  // Removes the leaf entry matching (rect, id) exactly. Returns false when
  // no such entry exists.
  bool Delete(const HyperRect& rect, uint64_t id);

  // Ids of all leaf entries whose rectangle contains q (the paper's point
  // query), in depth-first traversal order.
  std::vector<uint64_t> PointQuery(const double* q) const;

  // All leaf entries whose rectangle intersects `range`.
  std::vector<Match> RangeQuery(const HyperRect& range) const;

  // Page-granular queries used by the paper's Point/Sphere candidate
  // selection: return the ids of ALL entries of every leaf node whose page
  // region contains q (LeafPageQuery) or lies within `radius` of q
  // (LeafPageSphereQuery), in depth-first traversal order.
  std::vector<uint64_t> LeafPageQuery(const double* q) const;
  std::vector<uint64_t> LeafPageSphereQuery(const double* q,
                                            double radius) const;

  // k nearest entry rectangles to q by MINDIST (exact NN for point data).
  // Best-first search [HS 95]: optimal in page accesses.
  std::vector<KnnResult> KnnQuery(const double* q, size_t k) const;

  // Certified / bounded-effort best-first k-NN (the approximate query
  // tier, docs/APPROXIMATE.md). Same [HS 95] traversal as KnnQuery plus:
  //   - epsilon rule: stop once the k-th best squared distance is within
  //     (1+epsilon)^2 of the tightest remaining subtree MINDIST;
  //   - effort budget: stop after max_leaf_visits leaf pages (0 = none);
  //   - a per-query certificate (bound on unvisited entries, leaf pages
  //     scanned, how the search ended).
  // Ties at equal distance resolve to the smaller id, matching the exact
  // scan's ordering. With epsilon == 0 and no budget the hits equal the
  // true k nearest (callers still dispatch to the exact path for
  // bit-identity of metrics and candidate accounting).
  struct ApproxNnResult {
    struct Hit {
      uint64_t id = 0;
      double dist_sq = 0.0;
    };
    std::vector<Hit> hits;         // ascending (dist_sq, id), up to k
    uint64_t leaf_visits = 0;      // leaf pages scanned
    uint64_t entries_scanned = 0;  // leaf entries scored
    double bound_sq = 0.0;         // squared lower bound on unvisited entries
    bool terminated_early = false; // epsilon rule fired before exactness
    bool truncated = false;        // budget ran out with subtrees pending
  };
  ApproxNnResult ApproxNnQuery(const double* q, size_t k, double epsilon,
                               uint64_t max_leaf_visits) const;

  // Nearest neighbor by the depth-first branch-and-bound of [RKV 95]:
  // children sorted by MINDIST, pruned with MINMAXDIST. This is the
  // "classic NN search" of the paper's evaluation -- it sorts and scores
  // every visited directory node, which is exactly the CPU cost the
  // NN-cell approach eliminates. Returns nullopt on an empty tree.
  std::optional<KnnResult> NnBranchAndBound(const double* q) const;

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
  // enlarged one, so equality is enforced), uniform leaf depth, minimum
  // fill, entry count, well-formed rectangles (no NaN / inverted bounds),
  // page-span bookkeeping, double-reference and double-free detection, and
  // page reachability: every allocated page of the underlying file is
  // either part of exactly one node or on the free list (no orphans).
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

  size_t MinFill(bool is_leaf) const {
    return is_leaf ? min_fill_leaf_ : min_fill_internal_;
  }
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

  // ChooseSubtree of the R*-tree.
  size_t ChooseSubtree(const Node& node, const HyperRect& rect,
                       bool children_are_leaves) const;

  // Writes updated child MBRs up the path.
  void PropagateMbrs(std::vector<PathStep>& path, const HyperRect& child_mbr);

  // Depth-first over the tree: `emit` receives every leaf entry whose
  // rectangle contains q (q != nullptr) or else intersects *range.
  template <class Emit>
  void CollectMatches(const HyperRect* range, const double* q,
                      Emit emit) const;

  void CollectLeafPages(const double* q, double radius_sq,
                        std::vector<uint64_t>* out) const;

  void BranchAndBoundRec(PageId pid, const double* q, double* best_dist_sq,
                         KnnResult* best) const;

  // Condensation helper for Delete.
  struct Orphan {
    Entry entry;
    size_t level;
  };
  bool DeleteRec(PageId pid, size_t level, const HyperRect& rect, uint64_t id,
                 std::vector<PathStep>& path);

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
  size_t min_fill_leaf_;
  size_t min_fill_internal_;
  std::vector<bool> reinserted_;  // per level, during one Insert
};

}  // namespace nncell

#endif  // NNCELL_RSTAR_RTREE_CORE_H_
