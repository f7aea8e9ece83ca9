#include "rstar/rtree_core.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <sstream>

#include "common/distance.h"
#include "common/kernels/kernels.h"
#include "common/metrics.h"
#include "common/metrics_names.h"
#include "rstar/bulk_load.h"
#include "rstar/split.h"

namespace nncell {

namespace {

// Registry handles for the directory-traversal counters (aggregated over
// every tree in the process: cell index, point index, baselines).
struct TreeMetrics {
  metrics::Counter* node_visits;
  metrics::Counter* leaf_visits;
  metrics::Counter* node_splits;
};

[[maybe_unused]] const TreeMetrics& Metrics() {
  static const TreeMetrics m = {
      metrics::Registry::Global().counter(metrics::kIndexNodeVisits),
      metrics::Registry::Global().counter(metrics::kIndexLeafVisits),
      metrics::Registry::Global().counter(metrics::kIndexNodeSplits),
  };
  return m;
}

}  // namespace

RTreeCore::RTreeCore(BufferPool* pool, TreeOptions options)
    : pool_(pool), options_(options),
      store_(pool, options.dim, options.aux_per_entry) {
  NNCELL_CHECK(options_.min_fill > 0.0 && options_.min_fill <= 0.5);
  min_fill_leaf_ = std::max<size_t>(
      1, static_cast<size_t>(options_.min_fill *
                             static_cast<double>(store_.Capacity(true, 1))));
  min_fill_internal_ = std::max<size_t>(
      1, static_cast<size_t>(options_.min_fill *
                             static_cast<double>(store_.Capacity(false, 1))));
  root_ = store_.AllocateNode();
  Node root;
  root.is_leaf = true;
  store_.Write(root_, &root);
}

size_t RTreeCore::MaxEntries(const Node& node) const {
  return store_.Capacity(node.is_leaf, 1);
}

std::optional<std::pair<std::vector<Entry>, std::vector<Entry>>>
RTreeCore::SplitNode(const Node& node) {
  return RStarSplit(node.entries, options_.dim, MinFill(node.is_leaf));
}

void RTreeCore::Insert(const HyperRect& rect, uint64_t id, const double* aux) {
  NNCELL_CHECK(rect.dim() == options_.dim);
  Entry e;
  e.rect = rect;
  e.id = id;
  if (options_.aux_per_entry > 0) {
    NNCELL_CHECK_MSG(aux != nullptr, "entry payload required");
    e.aux.assign(aux, aux + options_.aux_per_entry);
  }
  reinserted_.assign(height_ + 1, false);
  InsertEntry(std::move(e), 0);
  ++size_;
}

void RTreeCore::BulkLoad(std::vector<Entry> entries) {
  NNCELL_CHECK_MSG(size_ == 0 && height_ == 1, "BulkLoad needs an empty tree");
  if (entries.empty()) return;
  size_ = entries.size();

  bool is_leaf = true;
  size_t levels = 1;
  std::vector<Entry> level = std::move(entries);
  while (true) {
    size_t capacity = store_.Capacity(is_leaf, 1);
    if (level.size() <= capacity) {
      // This level fits into the (pre-allocated) root page.
      Node root;
      root.is_leaf = is_leaf;
      root.entries = std::move(level);
      store_.Write(root_, &root);
      height_ = levels;
      return;
    }
    std::vector<std::vector<Entry>> groups =
        StrPartition(std::move(level), capacity, options_.dim);
    std::vector<Entry> parents;
    parents.reserve(groups.size());
    for (auto& group : groups) {
      PageId pid = store_.AllocateNode();
      Node node;
      node.is_leaf = is_leaf;
      node.entries = std::move(group);
      store_.Write(pid, &node);
      Entry parent;
      parent.rect = node.ComputeMbr(options_.dim);
      parent.id = pid;
      parents.push_back(std::move(parent));
    }
    level = std::move(parents);
    is_leaf = false;
    ++levels;
  }
}

size_t RTreeCore::ChooseSubtree(const Node& node, const HyperRect& rect,
                                bool children_are_leaves) const {
  const size_t n = node.entries.size();
  NNCELL_CHECK(n > 0);
  size_t best = 0;
  if (children_are_leaves) {
    // Minimal overlap enlargement (ties: area enlargement, then area).
    // The full scan is O(n^2) overlap computations; on X-tree supernodes
    // (n in the hundreds) that dominates bulk builds, so for large nodes
    // only the kOverlapCandidates entries of least area enlargement enter
    // the overlap test -- the optimization proposed with the original
    // R*-tree -- each still scored against every sibling.
    constexpr size_t kOverlapCandidates = 32;
    std::vector<size_t> order;
    order.reserve(n);
    for (size_t i = 0; i < n; ++i) order.push_back(i);
    size_t considered = n;
    if (n > kOverlapCandidates) {
      considered = kOverlapCandidates;
      std::partial_sort(order.begin(), order.begin() + considered,
                        order.end(), [&](size_t a, size_t b) {
                          double ea = node.entries[a].rect.Enlargement(rect);
                          double eb = node.entries[b].rect.Enlargement(rect);
                          if (ea != eb) return ea < eb;
                          double va = node.entries[a].rect.Volume();
                          double vb = node.entries[b].rect.Volume();
                          if (va != vb) return va < vb;
                          return a < b;  // deterministic tie-break
                        });
    }
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_enlarge = best_overlap, best_area = best_overlap;
    best = order[0];
    for (size_t oi = 0; oi < considered; ++oi) {
      const size_t i = order[oi];
      HyperRect enlarged = HyperRect::Union(node.entries[i].rect, rect);
      double overlap_delta = 0.0;
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        overlap_delta +=
            HyperRect::OverlapVolume(enlarged, node.entries[j].rect) -
            HyperRect::OverlapVolume(node.entries[i].rect,
                                     node.entries[j].rect);
      }
      double enlarge = node.entries[i].rect.Enlargement(rect);
      double area = node.entries[i].rect.Volume();
      if (overlap_delta < best_overlap ||
          (overlap_delta == best_overlap &&
           (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)))) {
        best_overlap = overlap_delta;
        best_enlarge = enlarge;
        best_area = area;
        best = i;
      }
    }
  } else {
    // Minimal area enlargement (ties: area).
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = best_enlarge;
    for (size_t i = 0; i < n; ++i) {
      double enlarge = node.entries[i].rect.Enlargement(rect);
      double area = node.entries[i].rect.Volume();
      if (enlarge < best_enlarge ||
          (enlarge == best_enlarge && area < best_area)) {
        best_enlarge = enlarge;
        best_area = area;
        best = i;
      }
    }
  }
  return best;
}

void RTreeCore::PropagateMbrs(std::vector<PathStep>& path,
                              const HyperRect& child_mbr) {
  HyperRect mbr = child_mbr;
  for (size_t i = path.size(); i-- > 0;) {
    PathStep& step = path[i];
    step.node.entries[step.child_idx].rect = mbr;
    store_.Write(step.pid, &step.node);
    mbr = step.node.ComputeMbr(options_.dim);
  }
}

void RTreeCore::InsertEntry(Entry entry, size_t target_level) {
  // Descend to the target level, remembering the path.
  std::vector<PathStep> path;
  PageId pid = root_;
  size_t level = height_ - 1;
  while (level > target_level) {
    Node node = store_.Read(pid);
    NNCELL_CHECK(!node.is_leaf);
    size_t child = ChooseSubtree(node, entry.rect,
                                 /*children_are_leaves=*/level == 1);
    PageId next = static_cast<PageId>(node.entries[child].id);
    path.push_back(PathStep{pid, std::move(node), child});
    pid = next;
    --level;
  }

  Node node = store_.Read(pid);
  node.entries.push_back(std::move(entry));

  while (true) {
    if (node.entries.size() <= MaxEntries(node)) {
      store_.Write(pid, &node);
      PropagateMbrs(path, node.ComputeMbr(options_.dim));
      return;
    }

    const bool is_root = path.empty();

    // R* forced reinsert: once per level per top-level insert.
    if (!is_root && options_.enable_reinsert && level < reinserted_.size() &&
        !reinserted_[level]) {
      reinserted_[level] = true;
      // Sort by distance of entry center to node center, farthest first.
      std::vector<double> center = node.ComputeMbr(options_.dim).Center();
      std::vector<std::pair<double, size_t>> order(node.entries.size());
      for (size_t i = 0; i < node.entries.size(); ++i) {
        std::vector<double> ec = node.entries[i].rect.Center();
        order[i] = {L2DistSq(ec, center), i};
      }
      std::sort(order.begin(), order.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      size_t p = std::max<size_t>(
          1, static_cast<size_t>(options_.reinsert_fraction *
                                 static_cast<double>(node.entries.size())));
      p = std::min(p, node.entries.size() - MinFill(node.is_leaf));
      std::vector<Entry> removed;
      std::vector<bool> take(node.entries.size(), false);
      for (size_t i = 0; i < p; ++i) take[order[i].second] = true;
      std::vector<Entry> kept;
      kept.reserve(node.entries.size() - p);
      for (size_t i = 0; i < node.entries.size(); ++i) {
        if (take[i]) {
          removed.push_back(std::move(node.entries[i]));
        } else {
          kept.push_back(std::move(node.entries[i]));
        }
      }
      node.entries = std::move(kept);
      store_.Write(pid, &node);
      PropagateMbrs(path, node.ComputeMbr(options_.dim));
      // Close reinsert: nearest first.
      std::reverse(removed.begin(), removed.end());
      for (Entry& r : removed) InsertEntry(std::move(r), level);
      return;
    }

    auto split = SplitNode(node);
    if (!split.has_value()) {
      // Supernode decision (X-tree): keep the node whole; Write grows its
      // page chain as needed.
      store_.Write(pid, &node);
      PropagateMbrs(path, node.ComputeMbr(options_.dim));
      return;
    }
    NNCELL_METRIC_COUNT(Metrics().node_splits, 1);

    Node left;
    left.is_leaf = node.is_leaf;
    left.extra_pages = node.extra_pages;  // Write shrinks the chain
    left.entries = std::move(split->first);
    Node right;
    right.is_leaf = node.is_leaf;
    right.entries = std::move(split->second);

    PageId right_pid = store_.AllocateNode();
    store_.Write(pid, &left);
    store_.Write(right_pid, &right);
    HyperRect left_mbr = left.ComputeMbr(options_.dim);
    HyperRect right_mbr = right.ComputeMbr(options_.dim);

    if (is_root) {
      Node new_root;
      new_root.is_leaf = false;
      Entry le;
      le.rect = left_mbr;
      le.id = pid;
      Entry re;
      re.rect = right_mbr;
      re.id = right_pid;
      new_root.entries.push_back(std::move(le));
      new_root.entries.push_back(std::move(re));
      root_ = store_.AllocateNode();
      store_.Write(root_, &new_root);
      ++height_;
      return;
    }

    // Replace the child entry in the parent and add the new sibling; the
    // parent may now overflow, so loop continues one level up.
    PathStep parent = std::move(path.back());
    path.pop_back();
    parent.node.entries[parent.child_idx].rect = left_mbr;
    Entry sibling;
    sibling.rect = right_mbr;
    sibling.id = right_pid;
    parent.node.entries.push_back(std::move(sibling));
    node = std::move(parent.node);
    pid = parent.pid;
    ++level;
  }
}

template <class Emit>
void RTreeCore::CollectMatches(const HyperRect* range, const double* q,
                               Emit emit) const {
  const size_t d = options_.dim;
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    PageId cur = stack.back();
    stack.pop_back();
    bool visited_leaf = store_.VisitNode(cur, [&](const EntryView& e,
                                                  bool is_leaf) {
      bool hit = q != nullptr
                     ? RawContainsPoint(e.lo, e.hi, q, d)
                     : RawIntersects(e.lo, e.hi, range->lo().data(),
                                     range->hi().data(), d);
      if (!hit) return;
      if (is_leaf) {
        emit(e);
      } else {
        stack.push_back(static_cast<PageId>(e.id));
      }
    });
    NNCELL_METRIC_COUNT(Metrics().node_visits, 1);
    if (visited_leaf) NNCELL_METRIC_COUNT(Metrics().leaf_visits, 1);
  }
}

std::vector<uint64_t> RTreeCore::PointQuery(const double* q) const {
  std::vector<uint64_t> out;
  CollectMatches(nullptr, q, [&](const EntryView& e) { out.push_back(e.id); });
  return out;
}

std::vector<RTreeCore::Match> RTreeCore::RangeQuery(
    const HyperRect& range) const {
  NNCELL_CHECK(range.dim() == options_.dim);
  const size_t d = options_.dim;
  const size_t aux = options_.aux_per_entry;
  std::vector<Match> out;
  CollectMatches(&range, nullptr, [&](const EntryView& e) {
    Match m;
    m.rect = HyperRect(std::vector<double>(e.lo, e.lo + d),
                       std::vector<double>(e.hi, e.hi + d));
    m.id = e.id;
    if (e.aux != nullptr) m.aux.assign(e.aux, e.aux + aux);
    out.push_back(std::move(m));
  });
  return out;
}

std::vector<uint64_t> RTreeCore::LeafPageQuery(const double* q) const {
  std::vector<uint64_t> out;
  CollectLeafPages(q, 0.0, &out);
  return out;
}

std::vector<uint64_t> RTreeCore::LeafPageSphereQuery(const double* q,
                                                     double radius) const {
  std::vector<uint64_t> out;
  CollectLeafPages(q, radius * radius, &out);
  return out;
}

void RTreeCore::CollectLeafPages(const double* q, double radius_sq,
                                 std::vector<uint64_t>* out) const {
  const size_t d = options_.dim;
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    PageId cur = stack.back();
    stack.pop_back();
    // A root leaf has no parent region; accumulate its MBR to test it.
    const bool at_root = cur == root_;
    HyperRect root_mbr;
    if (at_root) root_mbr = HyperRect::Empty(d);
    bool is_leaf = store_.VisitNode(cur, [&](const EntryView& e,
                                             bool leaf) {
      if (leaf) {
        if (at_root) {
          root_mbr.ExpandToPoint(e.lo);
          root_mbr.ExpandToPoint(e.hi);
        }
        // The parent region qualified: take everything on this page.
        out->push_back(e.id);
      } else if (RawMinDistSq(e.lo, e.hi, q, d) <= radius_sq) {
        stack.push_back(static_cast<PageId>(e.id));
      }
    });
    NNCELL_METRIC_COUNT(Metrics().node_visits, 1);
    if (is_leaf) NNCELL_METRIC_COUNT(Metrics().leaf_visits, 1);
    if (is_leaf && at_root && !root_mbr.IsEmpty() &&
        root_mbr.MinDistSq(q) > radius_sq) {
      out->clear();  // the sole (root) page does not qualify after all
    }
  }
}

std::vector<RTreeCore::KnnResult> RTreeCore::KnnQuery(const double* q,
                                                      size_t k) const {
  // Best-first search [HS 95]: a min-heap over MINDIST of nodes and entry
  // rectangles; popped leaf entries are final results.
  struct HeapItem {
    double dist_sq;
    bool is_node;
    PageId pid;          // when is_node
    size_t result_idx;   // when !is_node, index into pending results
  };
  struct Cmp {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      return a.dist_sq > b.dist_sq;
    }
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, Cmp> heap;
  std::vector<KnnResult> pending;  // leaf entries seen so far
  std::vector<KnnResult> results;
  if (k == 0 || size_ == 0) return results;

  const size_t d = options_.dim;
  const size_t aux = options_.aux_per_entry;
  heap.push(HeapItem{0.0, true, root_, 0});
  while (!heap.empty() && results.size() < k) {
    HeapItem item = heap.top();
    heap.pop();
    if (item.is_node) {
      store_.VisitNode(item.pid, [&](const EntryView& e, bool is_leaf) {
        double dist_sq = RawMinDistSq(e.lo, e.hi, q, d);
        if (is_leaf) {
          KnnResult r;
          r.id = e.id;
          r.dist = std::sqrt(dist_sq);
          r.rect = HyperRect(std::vector<double>(e.lo, e.lo + d),
                             std::vector<double>(e.hi, e.hi + d));
          if (e.aux != nullptr) r.aux.assign(e.aux, e.aux + aux);
          pending.push_back(std::move(r));
          heap.push(HeapItem{dist_sq, false, 0, pending.size() - 1});
        } else {
          heap.push(HeapItem{dist_sq, true, static_cast<PageId>(e.id), 0});
        }
      });
    } else {
      results.push_back(pending[item.result_idx]);
    }
  }
  return results;
}

RTreeCore::ApproxNnResult RTreeCore::ApproxNnQuery(
    const double* q, size_t k, double epsilon,
    uint64_t max_leaf_visits) const {
  ApproxNnResult out;
  if (k == 0 || size_ == 0) return out;
  const size_t d = options_.dim;
  const double slack_sq = (1.0 + epsilon) * (1.0 + epsilon);

  // Frontier of unexplored subtrees, nearest MINDIST first.
  struct NodeItem {
    double dist_sq;
    PageId pid;
  };
  struct NodeCmp {
    bool operator()(const NodeItem& a, const NodeItem& b) const {
      return a.dist_sq > b.dist_sq;
    }
  };
  std::priority_queue<NodeItem, std::vector<NodeItem>, NodeCmp> nodes;

  // Current k best entries as a max-heap on (dist_sq, id): the root is the
  // entry an improvement evicts, so at equal distance the larger id goes
  // first and the surviving set matches the exact scan's smaller-id-wins
  // tie-break.
  using Hit = ApproxNnResult::Hit;
  std::vector<Hit> best;
  best.reserve(k);
  auto closer = [](const Hit& a, const Hit& b) {
    return a.dist_sq < b.dist_sq || (a.dist_sq == b.dist_sq && a.id < b.id);
  };

  nodes.push(NodeItem{0.0, root_});
  bool exhausted = false;
  while (true) {
    if (nodes.empty()) {
      exhausted = true;
      break;
    }
    const NodeItem top = nodes.top();
    if (best.size() == k) {
      const double kth = best.front().dist_sq;
      if (kth <= top.dist_sq) {
        // Proven exact: no unexplored subtree can improve or tie-break in.
        out.bound_sq = top.dist_sq;
        break;
      }
      if (kth <= slack_sq * top.dist_sq) {
        // Certified: the k-th best is within (1+epsilon) of everything the
        // search would still look at.
        out.bound_sq = top.dist_sq;
        out.terminated_early = true;
        break;
      }
    }
    nodes.pop();
    bool is_leaf =
        store_.VisitNode(top.pid, [&](const EntryView& e, bool leaf) {
          double dist_sq = RawMinDistSq(e.lo, e.hi, q, d);
          if (leaf) {
            ++out.entries_scanned;
            Hit h{e.id, dist_sq};
            if (best.size() < k) {
              best.push_back(h);
              std::push_heap(best.begin(), best.end(), closer);
            } else if (closer(h, best.front())) {
              std::pop_heap(best.begin(), best.end(), closer);
              best.back() = h;
              std::push_heap(best.begin(), best.end(), closer);
            }
          } else if (best.size() < k || dist_sq <= best.front().dist_sq) {
            // Keep subtrees at exactly the k-th distance: they may hold an
            // equal-distance entry with a smaller id.
            nodes.push(NodeItem{dist_sq, static_cast<PageId>(e.id)});
          }
        });
    NNCELL_METRIC_COUNT(Metrics().node_visits, 1);
    if (is_leaf) {
      NNCELL_METRIC_COUNT(Metrics().leaf_visits, 1);
      ++out.leaf_visits;
      if (max_leaf_visits != 0 && out.leaf_visits >= max_leaf_visits &&
          !nodes.empty()) {
        out.bound_sq = nodes.top().dist_sq;
        out.truncated = true;
        break;
      }
    }
  }
  if (exhausted && !best.empty()) {
    // Every entry was scored or pruned against a k-th best no larger than
    // the final one, so the k-th best distance bounds the pruned remainder.
    out.bound_sq = best.front().dist_sq;
  }
  std::sort(best.begin(), best.end(), closer);
  out.hits = std::move(best);
  return out;
}

std::optional<RTreeCore::KnnResult> RTreeCore::NnBranchAndBound(
    const double* q) const {
  if (size_ == 0) return std::nullopt;
  KnnResult best;
  double best_dist_sq = std::numeric_limits<double>::infinity();
  BranchAndBoundRec(root_, q, &best_dist_sq, &best);
  best.dist = std::sqrt(best_dist_sq);
  return best;
}

void RTreeCore::BranchAndBoundRec(PageId pid, const double* q,
                                  double* best_dist_sq,
                                  KnnResult* best) const {
  const size_t dim = options_.dim;
  const size_t aux = options_.aux_per_entry;
  // Generate the active branch list: MINDIST and MINMAXDIST per child.
  // Internal bounds are staged into a flat scratch copy (EntryView
  // pointers die with the visit) and scored four children per call
  // through the batched MBR kernels — bit-equal to the per-rect path.
  struct Branch {
    double min_dist;
    double min_max_dist;
    PageId child;
  };
  std::vector<Branch> branches;
  std::vector<double> bounds;  // lo|hi pairs, 2*dim doubles per child
  bool is_leaf = store_.VisitNode(pid, [&](const EntryView& e, bool leaf) {
    if (leaf) {
      double d = RawMinDistSq(e.lo, e.hi, q, dim);
      if (d < *best_dist_sq) {
        *best_dist_sq = d;
        best->id = e.id;
        best->rect = HyperRect(std::vector<double>(e.lo, e.lo + dim),
                               std::vector<double>(e.hi, e.hi + dim));
        if (e.aux != nullptr) best->aux.assign(e.aux, e.aux + aux);
      }
    } else {
      bounds.insert(bounds.end(), e.lo, e.lo + dim);
      bounds.insert(bounds.end(), e.hi, e.hi + dim);
      branches.push_back(Branch{0.0, 0.0, static_cast<PageId>(e.id)});
    }
  });
  if (is_leaf) return;
  double best_min_max = std::numeric_limits<double>::infinity();
  {
    const size_t n = branches.size();
    const double* lo4[4];
    const double* hi4[4];
    double dmin[4];
    double dmax[4];
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      for (size_t t = 0; t < 4; ++t) {
        lo4[t] = bounds.data() + (j + t) * 2 * dim;
        hi4[t] = lo4[t] + dim;
      }
      kernels::MinDistSqBatch4(lo4, hi4, q, dim, dmin);
      kernels::MinMaxDistSqBatch4(lo4, hi4, q, dim, dmax);
      for (size_t t = 0; t < 4; ++t) {
        branches[j + t].min_dist = dmin[t];
        branches[j + t].min_max_dist = dmax[t];
      }
    }
    for (; j < n; ++j) {
      const double* lo = bounds.data() + j * 2 * dim;
      branches[j].min_dist = RawMinDistSq(lo, lo + dim, q, dim);
      branches[j].min_max_dist = RawMinMaxDistSq(lo, lo + dim, q, dim);
    }
    for (const Branch& b : branches) {
      best_min_max = std::min(best_min_max, b.min_max_dist);
    }
  }
  std::sort(branches.begin(), branches.end(),
            [](const Branch& a, const Branch& b) {
              return a.min_dist < b.min_dist;
            });
  // Downward pruning [RKV 95]: an MBR whose MINDIST exceeds the smallest
  // sibling MINMAXDIST cannot contain the NN; also prune against the best
  // distance found so far (upward pruning) before each descent.
  for (const Branch& b : branches) {
    if (b.min_dist > best_min_max) continue;
    if (b.min_dist > *best_dist_sq) continue;
    BranchAndBoundRec(b.child, q, best_dist_sq, best);
  }
}

bool RTreeCore::Delete(const HyperRect& rect, uint64_t id) {
  std::vector<PathStep> path;
  if (!DeleteRec(root_, height_ - 1, rect, id, path)) return false;
  --size_;
  return true;
}

bool RTreeCore::DeleteRec(PageId pid, size_t level, const HyperRect& rect,
                          uint64_t id, std::vector<PathStep>& path) {
  Node node = store_.Read(pid);
  if (node.is_leaf) {
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (node.entries[i].id != id || !(node.entries[i].rect == rect)) continue;
      node.entries.erase(node.entries.begin() + i);

      // Condense: walk up, removing underfull nodes and collecting orphans.
      std::vector<Orphan> orphans;
      PageId cur_pid = pid;
      Node cur = std::move(node);
      size_t cur_level = 0;
      while (!path.empty()) {
        PathStep parent = std::move(path.back());
        path.pop_back();
        bool underfull = cur.page_span() == 1 &&
                         cur.entries.size() < MinFill(cur.is_leaf);
        if (underfull) {
          for (Entry& e : cur.entries) {
            orphans.push_back(Orphan{std::move(e), cur_level});
          }
          store_.Free(cur_pid, cur);
          parent.node.entries.erase(parent.node.entries.begin() +
                                    parent.child_idx);
        } else {
          store_.Write(cur_pid, &cur);
          parent.node.entries[parent.child_idx].rect =
              cur.ComputeMbr(options_.dim);
        }
        cur_pid = parent.pid;
        cur = std::move(parent.node);
        ++cur_level;
      }
      // cur is now the root.
      store_.Write(cur_pid, &cur);

      // Shrink the root while it is an internal node with a single child.
      while (height_ > 1) {
        Node root = store_.Read(root_);
        if (root.is_leaf || root.entries.size() != 1) break;
        PageId child = static_cast<PageId>(root.entries[0].id);
        store_.Free(root_, root);
        root_ = child;
        --height_;
      }

      // Reinsert orphans at their original levels.
      for (Orphan& o : orphans) {
        reinserted_.assign(height_ + 1, true);  // no forced reinsert here
        size_t lvl = std::min(o.level, height_ - 1);
        InsertEntry(std::move(o.entry), lvl);
      }
      return true;
    }
    return false;
  }

  for (size_t i = 0; i < node.entries.size(); ++i) {
    if (!node.entries[i].rect.ContainsRect(rect)) continue;
    PageId child = static_cast<PageId>(node.entries[i].id);
    path.push_back(PathStep{pid, node, i});
    if (DeleteRec(child, level - 1, rect, id, path)) return true;
    path.pop_back();
  }
  return false;
}

void RTreeCore::InfoRec(PageId pid, size_t level, TreeInfo* info) const {
  Node node = store_.Read(pid);
  ++info->num_nodes;
  info->total_pages += node.page_span();
  if (node.page_span() > 1) ++info->num_supernodes;
  if (node.is_leaf) {
    ++info->num_leaves;
    info->size += node.entries.size();
    return;
  }
  for (const Entry& e : node.entries) {
    InfoRec(static_cast<PageId>(e.id), level - 1, info);
  }
}

RTreeCore::TreeInfo RTreeCore::Info() const {
  TreeInfo info;
  info.height = height_;
  InfoRec(root_, height_ - 1, &info);
  return info;
}

std::string RTreeCore::ValidateNode(const Node& node, PageId pid,
                                    bool /*is_root*/) const {
  // The base engine splits every overflow, so nodes span exactly one page.
  if (node.page_span() != 1) {
    std::ostringstream err;
    err << "node " << pid << ": unexpected supernode (spans "
        << node.page_span() << " pages) in a plain R*-tree";
    return err.str();
  }
  return "";
}

std::string RTreeCore::ValidateRec(PageId pid, size_t level,
                                   const HyperRect* expected,
                                   size_t* entry_count,
                                   std::unordered_set<PageId>* reachable) const {
  Node node = store_.Read(pid);
  std::ostringstream err;
  if (!reachable->insert(pid).second) {
    err << "page " << pid << ": referenced by more than one parent";
    return err.str();
  }
  for (PageId extra : node.extra_pages) {
    if (extra == kInvalidPageId) {
      err << "node " << pid << ": invalid overflow page id";
      return err.str();
    }
    if (!reachable->insert(extra).second) {
      err << "overflow page " << extra << " of node " << pid
          << ": referenced more than once";
      return err.str();
    }
  }
  if (node.is_leaf != (level == 0)) {
    err << "node " << pid << ": leaf flag inconsistent with level " << level;
    return err.str();
  }
  // The store grows/shrinks a node's page chain to exactly fit its entry
  // count on every Write; a mismatch means a stale or corrupt header.
  if (node.page_span() != store_.PagesNeeded(node.is_leaf,
                                             node.entries.size())) {
    err << "node " << pid << ": spans " << node.page_span()
        << " pages but its " << node.entries.size() << " entries need "
        << store_.PagesNeeded(node.is_leaf, node.entries.size());
    return err.str();
  }
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const Entry& e = node.entries[i];
    if (e.rect.dim() != options_.dim) {
      err << "node " << pid << " entry " << i << ": dimension "
          << e.rect.dim() << " != " << options_.dim;
      return err.str();
    }
    std::string rect_err = e.rect.CheckWellFormed();
    if (!rect_err.empty()) {
      err << "node " << pid << " entry " << i << ": " << rect_err;
      return err.str();
    }
    if (!node.is_leaf && e.aux.size() != 0) {
      err << "node " << pid << " entry " << i << ": internal entry with aux";
      return err.str();
    }
  }
  std::string node_err = ValidateNode(node, pid, expected == nullptr);
  if (!node_err.empty()) return node_err;
  if (expected != nullptr) {
    HyperRect mbr = node.ComputeMbr(options_.dim);
    for (size_t i = 0; i < options_.dim; ++i) {
      if (std::abs(mbr.lo(i) - expected->lo(i)) > 1e-9 ||
          std::abs(mbr.hi(i) - expected->hi(i)) > 1e-9) {
        err << "node " << pid << ": parent MBR mismatch";
        return err.str();
      }
    }
    // Non-root single-page nodes respect the minimum fill.
    if (node.page_span() == 1 && node.entries.size() < MinFill(node.is_leaf)) {
      err << "node " << pid << ": underfull (" << node.entries.size() << ")";
      return err.str();
    }
  }
  if (node.entries.size() > store_.Capacity(node.is_leaf, node.page_span())) {
    err << "node " << pid << ": overfull";
    return err.str();
  }
  if (node.is_leaf) {
    *entry_count += node.entries.size();
    return "";
  }
  for (const Entry& e : node.entries) {
    std::string child_err = ValidateRec(static_cast<PageId>(e.id), level - 1,
                                        &e.rect, entry_count, reachable);
    if (!child_err.empty()) return child_err;
  }
  return "";
}

std::string RTreeCore::Validate() const {
  size_t entry_count = 0;
  std::unordered_set<PageId> reachable;
  std::string err =
      ValidateRec(root_, height_ - 1, nullptr, &entry_count, &reachable);
  if (!err.empty()) return err;
  if (entry_count != size_) {
    std::ostringstream os;
    os << "entry count " << entry_count << " != size " << size_;
    return os.str();
  }

  // Page accounting: the tree owns its PageFile, so every allocated page
  // is either part of exactly one node or on the free list. Anything else
  // is an orphan (leak) or a double-free.
  const PageFile& file = *pool_->file();
  std::unordered_set<PageId> free_pages(file.free_pages().begin(),
                                        file.free_pages().end());
  if (free_pages.size() != file.num_free_pages()) {
    return "free list contains a page twice (double free)";
  }
  for (PageId pid : reachable) {
    if (static_cast<size_t>(pid) >= file.num_pages()) {
      std::ostringstream os;
      os << "node references page " << pid << " past the end of the file";
      return os.str();
    }
    if (free_pages.count(pid) != 0) {
      std::ostringstream os;
      os << "page " << pid << " is both reachable and on the free list";
      return os.str();
    }
  }
  if (reachable.size() + free_pages.size() != file.num_pages()) {
    std::ostringstream os;
    os << "orphan pages: " << file.num_pages() << " allocated, "
       << reachable.size() << " reachable + " << free_pages.size() << " free";
    return os.str();
  }
  return "";
}

}  // namespace nncell
