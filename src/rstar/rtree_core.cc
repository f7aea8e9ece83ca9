#include "rstar/rtree_core.h"

#include <algorithm>
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

// R*-tree minimum fill as a fraction of single-page capacity (m = 40%).
constexpr double kMinFillFraction = 0.4;

// R* forced-reinsert fraction (the paper's p = 30%).
constexpr double kReinsertFraction = 0.3;

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
    : pool_(pool), options_(options), store_(pool, options.dim),
      min_fill_(std::max<size_t>(
          1, static_cast<size_t>(kMinFillFraction *
                                 static_cast<double>(store_.Capacity(1))))) {
  root_ = store_.AllocateNode();
  Node root;
  root.is_leaf = true;
  store_.Write(root_, &root);
}

size_t RTreeCore::MaxEntries(const Node& /*node*/) const {
  return store_.Capacity(1);
}

std::optional<std::pair<std::vector<Entry>, std::vector<Entry>>>
RTreeCore::SplitNode(const Node& node) {
  return RStarSplit(node.entries, options_.dim, MinFill());
}

void RTreeCore::Insert(const HyperRect& rect, uint64_t id) {
  NNCELL_CHECK(rect.dim() == options_.dim);
  reinserted_.assign(height_ + 1, false);
  InsertEntry(Entry{rect, id}, 0);
  ++size_;
}

void RTreeCore::BulkLoad(std::vector<Entry> entries, PartitionFn partition) {
  NNCELL_CHECK_MSG(size_ == 0 && height_ == 1, "BulkLoad needs an empty tree");
  if (entries.empty()) return;
  size_ = entries.size();

  bool is_leaf = true;
  size_t levels = 1;
  std::vector<Entry> level = std::move(entries);
  while (true) {
    size_t capacity = store_.Capacity(1);
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
        partition(std::move(level), capacity, options_.dim);
    std::vector<Entry> parents;
    parents.reserve(groups.size());
    for (auto& group : groups) {
      PageId pid = store_.AllocateNode();
      Node node;
      node.is_leaf = is_leaf;
      node.entries = std::move(group);
      store_.Write(pid, &node);
      Entry parent;
      parent.rect = MbrOf(node.entries, options_.dim);
      parent.id = pid;
      parents.push_back(std::move(parent));
    }
    level = std::move(parents);
    is_leaf = false;
    ++levels;
  }
}

size_t RTreeCore::ChooseSubtree(const Node& node, const HyperRect& rect,
                                bool children_are_leaves) {
  const size_t n = node.entries.size();
  const size_t d = rect.dim();
  NNCELL_CHECK(n > 0);
  // grown = [elo, ehi]: entry i enlarged to also cover rect (E).
  std::vector<double> grown(2 * d);
  const double* elo = grown.data();
  const double* ehi = elo + d;
  auto grow = [&](size_t i) {
    std::copy_n(node.entries[i].rect.lo(), 2 * d, grown.begin());
    RawExpand(grown.data(), grown.data() + d, rect.lo(), rect.hi(), d);
  };
  // Every score once: each entry's volume and area enlargement.
  std::vector<double> area(n), enlarge(n);
  for (size_t i = 0; i < n; ++i) {
    area[i] = node.entries[i].rect.Volume();
    grow(i);
    enlarge[i] = RawVolume(elo, ehi, d) - area[i];
  }
  size_t best = 0;
  if (!children_are_leaves) {
    // Minimal area enlargement (ties: area).
    for (size_t i = 1; i < n; ++i) {
      if (enlarge[i] < enlarge[best] ||
          (enlarge[i] == enlarge[best] && area[i] < area[best])) {
        best = i;
      }
    }
    return best;
  }

  // Minimal overlap enlargement (ties: area enlargement, then area).
  // The full scan is O(n^2) overlap computations; on X-tree supernodes
  // (n in the hundreds) that dominates bulk builds, so for large nodes
  // only the kOverlapCandidates entries of least area enlargement enter
  // the overlap test -- the optimization proposed with the original
  // R*-tree -- each still scored against every sibling.
  constexpr size_t kOverlapCandidates = 32;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  size_t considered = n;
  if (n > kOverlapCandidates) {
    considered = kOverlapCandidates;
    std::partial_sort(order.begin(), order.begin() + considered, order.end(),
                      [&](size_t a, size_t b) {
                        if (enlarge[a] != enlarge[b]) {
                          return enlarge[a] < enlarge[b];
                        }
                        if (area[a] != area[b]) return area[a] < area[b];
                        return a < b;  // deterministic tie-break
                      });
  }
  // Candidate i's overlap delta sums, over siblings j, the overlap of j
  // with i enlarged (E) minus its overlap with i. E contains i, so every
  // term is >= 0, and a term that is exactly zero leaves the sum's bits
  // unchanged; such terms are skipped. A sibling adds exactly zero when
  // its clipped interval is the same against E and against i in every
  // dimension where E differs from i (both volumes then run identical
  // arithmetic), or when its overlap with E is zero (its overlap with i,
  // never larger, is then zero too).
  std::vector<size_t> moved;
  moved.reserve(d);
  double best_overlap = std::numeric_limits<double>::infinity();
  best = order[0];
  for (size_t oi = 0; oi < considered; ++oi) {
    const size_t i = order[oi];
    const double* ilo = node.entries[i].rect.lo();
    const double* ihi = node.entries[i].rect.hi();
    grow(i);
    moved.clear();
    for (size_t k = 0; k < d; ++k) {
      if (elo[k] != ilo[k] || ehi[k] != ihi[k]) moved.push_back(k);
    }
    double overlap_delta = 0.0;
    if (!moved.empty()) {
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const double* jlo = node.entries[j].rect.lo();
        const double* jhi = node.entries[j].rect.hi();
        bool same = true;
        for (size_t k : moved) {
          if (std::max(elo[k], jlo[k]) != std::max(ilo[k], jlo[k]) ||
              std::min(ehi[k], jhi[k]) != std::min(ihi[k], jhi[k])) {
            same = false;
            break;
          }
        }
        if (same) continue;
        const double with_e = RawOverlapVolume(elo, ehi, jlo, jhi, d);
        if (with_e == 0.0) continue;
        overlap_delta += with_e - RawOverlapVolume(ilo, ihi, jlo, jhi, d);
      }
    }
    if (overlap_delta < best_overlap ||
        (overlap_delta == best_overlap &&
         (enlarge[i] < enlarge[best] ||
          (enlarge[i] == enlarge[best] && area[i] < area[best])))) {
      best_overlap = overlap_delta;
      best = i;
    }
  }
  return best;
}

void RTreeCore::PropagateMbrs(std::vector<PathStep>& path,
                              const HyperRect& child_mbr) {
  HyperRect mbr = child_mbr;
  for (size_t i = path.size(); i-- > 0;) {
    PathStep& step = path[i];
    Entry& entry = step.node.entries[step.child_idx];
    // Every stored rectangle is the tight MBR of its child, so once one
    // already holds the new bits, nothing above it changes either.
    if (entry.rect == mbr) return;
    entry.rect = mbr;
    store_.Write(step.pid, &step.node);
    mbr = MbrOf(step.node.entries, options_.dim);
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
      PropagateMbrs(path, MbrOf(node.entries, options_.dim));
      return;
    }

    const bool is_root = path.empty();

    // R* forced reinsert: once per level per top-level insert.
    if (!is_root && level < reinserted_.size() && !reinserted_[level]) {
      reinserted_[level] = true;
      // Sort by distance of entry center to node center, farthest first.
      const size_t d = options_.dim;
      auto center_of = [d](const HyperRect& r, double* c) {
        for (size_t k = 0; k < d; ++k) c[k] = 0.5 * (r.lo(k) + r.hi(k));
      };
      std::vector<double> center(d), entry_center(d);
      center_of(MbrOf(node.entries, d), center.data());
      std::vector<std::pair<double, size_t>> order(node.entries.size());
      for (size_t i = 0; i < node.entries.size(); ++i) {
        center_of(node.entries[i].rect, entry_center.data());
        order[i] = {L2DistSq(entry_center.data(), center.data(), d), i};
      }
      std::sort(order.begin(), order.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      size_t p = std::max<size_t>(
          1, static_cast<size_t>(kReinsertFraction *
                                 static_cast<double>(node.entries.size())));
      p = std::min(p, node.entries.size() - MinFill());
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
      PropagateMbrs(path, MbrOf(node.entries, options_.dim));
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
      PropagateMbrs(path, MbrOf(node.entries, options_.dim));
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
    HyperRect left_mbr = MbrOf(left.entries, options_.dim);
    HyperRect right_mbr = MbrOf(right.entries, options_.dim);

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
  const double* blo = q != nullptr ? q : range->lo();
  const double* bhi = q != nullptr ? q : range->hi();
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    PageId cur = stack.back();
    stack.pop_back();
    bool visited_leaf = store_.ScanNode(cur, [&](const NodeEntries& node) {
      for (size_t base = 0; base < node.count; base += kernels::kBoxHitsMax) {
        const size_t n = std::min(node.count - base, kernels::kBoxHitsMax);
        // Set bits in ascending order: hits and child pushes keep the
        // entries' order.
        for (uint64_t hits = kernels::BoxHits(node.entry(base), n, d, blo, bhi);
             hits != 0; hits &= hits - 1) {
          const EntryView e = node.at(base + __builtin_ctzll(hits));
          if (node.is_leaf) {
            emit(e);
          } else {
            stack.push_back(static_cast<PageId>(e.id));
          }
        }
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

std::vector<Entry> RTreeCore::RangeQuery(const HyperRect& range) const {
  NNCELL_CHECK(range.dim() == options_.dim);
  std::vector<Entry> out;
  CollectMatches(&range, nullptr, [&](const EntryView& e) {
    out.push_back(Entry{HyperRect::FromBounds(e.lo, options_.dim), e.id});
  });
  return out;
}

std::vector<uint64_t> RTreeCore::RangeQueryIds(const HyperRect& range) const {
  NNCELL_CHECK(range.dim() == options_.dim);
  std::vector<uint64_t> out;
  CollectMatches(&range, nullptr,
                 [&](const EntryView& e) { out.push_back(e.id); });
  return out;
}

std::vector<uint64_t> RTreeCore::LeafPageSphereQuery(const double* q,
                                                     double radius) const {
  const double radius_sq = radius * radius;
  const size_t d = options_.dim;
  std::vector<uint64_t> out;
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
        out.push_back(e.id);
      } else if (RawMinDistSq(e.lo, e.hi, q, d) <= radius_sq) {
        stack.push_back(static_cast<PageId>(e.id));
      }
    });
    NNCELL_METRIC_COUNT(Metrics().node_visits, 1);
    if (is_leaf) NNCELL_METRIC_COUNT(Metrics().leaf_visits, 1);
    if (is_leaf && at_root && !root_mbr.IsEmpty() &&
        RawMinDistSq(root_mbr.lo(), root_mbr.hi(), q, d) > radius_sq) {
      out.clear();  // the sole (root) page does not qualify after all
    }
  }
  return out;
}

RTreeCore::ApproxNnResult RTreeCore::KnnQuery(
    const double* q, size_t k, const ApproxOptions& approx) const {
  ApproxNnResult out;
  if (k == 0 || size_ == 0) return out;
  const size_t d = options_.dim;
  const double slack_sq = (1.0 + approx.epsilon) * (1.0 + approx.epsilon);

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
      if (kth < top.dist_sq) {
        // Proven exact: no unexplored subtree can improve or tie-break in.
        // A subtree at exactly the k-th distance is still opened, since it
        // may hold an equal-distance entry with a smaller id.
        out.bound_sq = top.dist_sq;
        break;
      }
      if (approx.epsilon > 0.0 && kth <= slack_sq * top.dist_sq) {
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
      if (approx.max_leaf_visits != kUnlimitedLeafVisits &&
          out.leaf_visits >= approx.max_leaf_visits && !nodes.empty()) {
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

std::optional<RTreeCore::Hit> RTreeCore::NnBranchAndBound(
    const double* q) const {
  if (size_ == 0) return std::nullopt;
  Hit best{0, std::numeric_limits<double>::infinity()};
  BranchAndBoundRec(root_, q, &best);
  return best;
}

void RTreeCore::BranchAndBoundRec(PageId pid, const double* q,
                                  Hit* best) const {
  const size_t dim = options_.dim;
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
      if (d < best->dist_sq) *best = Hit{e.id, d};
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
    if (b.min_dist > best->dist_sq) continue;
    BranchAndBoundRec(b.child, q, best);
  }
}

bool RTreeCore::Delete(const HyperRect& rect, uint64_t id) {
  std::vector<PathStep> path;
  PathStep leaf;
  if (!FindLeafEntry(root_, height_ - 1, rect, id, path, &leaf)) return false;
  Node cur = std::move(leaf.node);
  cur.entries.erase(cur.entries.begin() + leaf.child_idx);

  // Condense: walk up, removing underfull nodes and collecting orphans.
  std::vector<Orphan> orphans;
  PageId cur_pid = leaf.pid;
  size_t cur_level = 0;
  while (!path.empty()) {
    PathStep parent = std::move(path.back());
    path.pop_back();
    bool underfull =
        cur.page_span() == 1 && cur.entries.size() < MinFill();
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
          MbrOf(cur.entries, options_.dim);
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
  --size_;
  return true;
}

bool RTreeCore::ShrinkEntry(const HyperRect& rect, uint64_t id,
                            const HyperRect& shrunk) {
  NNCELL_DCHECK(rect.ContainsRect(shrunk));
  std::vector<PathStep> path;
  PathStep leaf;
  if (!FindLeafEntry(root_, height_ - 1, rect, id, path, &leaf)) return false;
  leaf.node.entries[leaf.child_idx].rect = shrunk;
  store_.Write(leaf.pid, &leaf.node);
  PropagateMbrs(path, MbrOf(leaf.node.entries, options_.dim));
  return true;
}

bool RTreeCore::FindLeafEntry(PageId pid, size_t level, const HyperRect& rect,
                              uint64_t id, std::vector<PathStep>& path,
                              PathStep* leaf) {
  Node node = store_.Read(pid);
  if (node.is_leaf) {
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (node.entries[i].id != id || node.entries[i].rect != rect) continue;
      *leaf = PathStep{pid, std::move(node), i};
      return true;
    }
    return false;
  }

  for (size_t i = 0; i < node.entries.size(); ++i) {
    if (!node.entries[i].rect.ContainsRect(rect)) continue;
    PageId child = static_cast<PageId>(node.entries[i].id);
    if (FindLeafEntry(child, level - 1, rect, id, path, leaf)) {
      // Steps are collected leaf-side first on the way back up; the path
      // is at most the tree height long.
      path.insert(path.begin(), PathStep{pid, std::move(node), i});
      return true;
    }
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
  if (node.page_span() != store_.PagesNeeded(node.entries.size())) {
    err << "node " << pid << ": spans " << node.page_span()
        << " pages but its " << node.entries.size() << " entries need "
        << store_.PagesNeeded(node.entries.size());
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
  }
  std::string node_err = ValidateNode(node, pid, expected == nullptr);
  if (!node_err.empty()) return node_err;
  if (expected != nullptr) {
    if (MbrOf(node.entries, options_.dim) != *expected) {
      err << "node " << pid << ": parent MBR mismatch";
      return err.str();
    }
    // Non-root single-page nodes respect the minimum fill.
    if (node.page_span() == 1 && node.entries.size() < MinFill()) {
      err << "node " << pid << ": underfull (" << node.entries.size() << ")";
      return err.str();
    }
  }
  if (node.entries.size() > store_.Capacity(node.page_span())) {
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
