#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/point_set.h"
#include "common/rng.h"
#include "rstar/node.h"
#include "rstar/rstar_tree.h"
#include "rstar/split.h"
#include "rstar/validate.h"
#include "xtree/xsplit.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "tree_knn_oracle.h"

namespace nncell {
namespace {

HyperRect PointRect(const std::vector<double>& p) {
  return HyperRect::FromPoint(p.data(), p.size());
}

struct TreeFixture {
  explicit TreeFixture(size_t dim, size_t page_size = 1024,
                       size_t pool_pages = 256)
      : file(page_size), pool(&file, pool_pages) {
    TreeOptions opts;
    opts.dim = dim;
    tree = std::make_unique<RStarTree>(&pool, opts);
  }
  PageFile file;
  BufferPool pool;
  std::unique_ptr<RStarTree> tree;
};

TEST(NodeStoreTest, CapacityArithmetic) {
  PageFile file(1024);
  BufferPool pool(&file, 8);
  NodeStore store(&pool, 4);
  // Entry: 8*8 rect + 8 id = 72 bytes; (1024-8)/72 = 14.
  EXPECT_EQ(store.EntryBytes(), 72u);
  EXPECT_EQ(store.Capacity(1), 14u);
  EXPECT_GT(store.Capacity(2), 2 * store.Capacity(1) - 2);
  EXPECT_EQ(store.PagesNeeded(14), 1u);
  EXPECT_EQ(store.PagesNeeded(15), 2u);
}

TEST(NodeStoreTest, RoundTripLeaf) {
  PageFile file(1024);
  BufferPool pool(&file, 8);
  NodeStore store(&pool, 3);
  Node node;
  node.is_leaf = true;
  for (int i = 0; i < 5; ++i) {
    Entry e;
    double v = i * 0.1;
    e.rect = HyperRect({v, v, v}, {v + 0.05, v + 0.05, v + 0.05});
    e.id = 100 + i;
    node.entries.push_back(e);
  }
  PageId pid = store.AllocateNode();
  store.Write(pid, &node);
  Node back = store.Read(pid);
  ASSERT_EQ(back.entries.size(), 5u);
  EXPECT_TRUE(back.is_leaf);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(back.entries[i].id, node.entries[i].id);
    EXPECT_EQ(back.entries[i].rect, node.entries[i].rect);
  }
}

TEST(NodeStoreTest, RoundTripInternal) {
  PageFile file(512);
  BufferPool pool(&file, 8);
  NodeStore store(&pool, 2);
  Node node;
  node.is_leaf = false;
  for (int i = 0; i < 4; ++i) {
    Entry e;
    e.rect = HyperRect({0.0, 0.0}, {1.0 + i, 1.0});
    e.id = 7 + i;  // child page ids
    node.entries.push_back(e);
  }
  PageId pid = store.AllocateNode();
  store.Write(pid, &node);
  Node back = store.Read(pid);
  EXPECT_FALSE(back.is_leaf);
  ASSERT_EQ(back.entries.size(), 4u);
  EXPECT_EQ(back.entries[3].id, 10u);
  EXPECT_EQ(back.entries[3].rect, node.entries[3].rect);
}

TEST(NodeStoreTest, SupernodeGrowAndShrink) {
  PageFile file(512);
  BufferPool pool(&file, 16);
  NodeStore store(&pool, 2);
  size_t single = store.Capacity(1);
  Node node;
  node.is_leaf = true;
  for (size_t i = 0; i < single * 3; ++i) {
    Entry e;
    e.rect = HyperRect({0.0, 0.0}, {1.0, 1.0});
    e.id = i;
    node.entries.push_back(e);
  }
  PageId pid = store.AllocateNode();
  store.Write(pid, &node);
  EXPECT_GE(node.page_span(), 3u);
  Node back = store.Read(pid);
  EXPECT_EQ(back.entries.size(), single * 3);
  EXPECT_EQ(back.page_span(), node.page_span());
  // Shrink back to one page.
  back.entries.resize(2);
  store.Write(pid, &back);
  EXPECT_EQ(back.page_span(), 1u);
  Node small = store.Read(pid);
  EXPECT_EQ(small.entries.size(), 2u);
}

TEST(NodeStoreTest, VisitNodeMatchesRead) {
  PageFile file(1024);
  BufferPool pool(&file, 16);
  NodeStore store(&pool, 3);
  Node node;
  node.is_leaf = true;
  Rng rng(44);
  for (int i = 0; i < 7; ++i) {
    Entry e;
    std::vector<double> lo = {rng.NextDouble(), rng.NextDouble(),
                              rng.NextDouble()};
    std::vector<double> hi = lo;
    for (auto& v : hi) v += 0.05;
    e.rect = HyperRect(lo, hi);
    e.id = 1000 + i;
    node.entries.push_back(e);
  }
  PageId pid = store.AllocateNode();
  store.Write(pid, &node);

  size_t seen = 0;
  bool is_leaf = store.VisitNode(pid, [&](const EntryView& v, bool leaf) {
    EXPECT_TRUE(leaf);
    const Entry& e = node.entries[seen];
    for (size_t k = 0; k < 3; ++k) {
      EXPECT_DOUBLE_EQ(v.lo[k], e.rect.lo(k));
      EXPECT_DOUBLE_EQ(v.hi[k], e.rect.hi(k));
    }
    EXPECT_EQ(v.id, e.id);
    ++seen;
  });
  EXPECT_TRUE(is_leaf);
  EXPECT_EQ(seen, node.entries.size());
}

TEST(NodeStoreTest, VisitNodeSupernode) {
  // A node spanning 3+ pages: the scan must stitch the pages together.
  PageFile file(512);
  BufferPool pool(&file, 32);
  NodeStore store(&pool, 2);
  size_t n = store.Capacity(1) * 3;
  Node node;
  node.is_leaf = true;
  for (size_t i = 0; i < n; ++i) {
    Entry e;
    double v = static_cast<double>(i) / static_cast<double>(n);
    e.rect = HyperRect({v, v}, {v, v});
    e.id = i;
    node.entries.push_back(e);
  }
  PageId pid = store.AllocateNode();
  store.Write(pid, &node);
  ASSERT_GE(node.page_span(), 3u);

  size_t seen = 0;
  store.VisitNode(pid, [&](const EntryView& v, bool) {
    EXPECT_EQ(v.id, seen);
    double expect = static_cast<double>(seen) / static_cast<double>(n);
    EXPECT_DOUBLE_EQ(v.lo[0], expect);
    ++seen;
  });
  EXPECT_EQ(seen, n);
}

TEST(RStarSplitTest, RespectsMinFill) {
  Rng rng(1);
  std::vector<Entry> entries;
  for (int i = 0; i < 20; ++i) {
    Entry e;
    double x = rng.NextDouble(), y = rng.NextDouble();
    e.rect = HyperRect({x, y}, {x + 0.01, y + 0.01});
    e.id = i;
    entries.push_back(e);
  }
  auto [left, right] = RStarSplit(entries, 2, 8);
  EXPECT_EQ(left.size() + right.size(), 20u);
  EXPECT_GE(left.size(), 8u);
  EXPECT_GE(right.size(), 8u);
}

TEST(RStarSplitTest, SeparatesTwoClusters) {
  std::vector<Entry> entries;
  for (int i = 0; i < 10; ++i) {
    Entry e;
    double x = (i < 5) ? 0.1 + i * 0.01 : 0.9 + (i - 5) * 0.01;
    e.rect = HyperRect({x, 0.5}, {x + 0.005, 0.51});
    e.id = i;
    entries.push_back(e);
  }
  auto [left, right] = RStarSplit(entries, 2, 2);
  // The two spatial clusters must not be mixed.
  std::set<uint64_t> left_ids;
  for (const auto& e : left) left_ids.insert(e.id);
  bool left_is_low = left_ids.count(0) > 0;
  for (const auto& e : left) {
    EXPECT_EQ(e.id < 5, left_is_low);
  }
}

TEST(RStarTreeTest, EmptyTreeQueries) {
  TreeFixture fx(2);
  double q[2] = {0.5, 0.5};
  EXPECT_TRUE(fx.tree->PointQuery(q).empty());
  EXPECT_TRUE(fx.tree->KnnQuery(q, 3).hits.empty());
  EXPECT_TRUE(fx.tree->RangeQuery(HyperRect::UnitCube(2)).empty());
  EXPECT_EQ(fx.tree->Validate(), "");
}

TEST(RStarTreeTest, SingleInsertAndQueries) {
  TreeFixture fx(2);
  fx.tree->Insert(PointRect({0.5, 0.5}), 1);
  double q[2] = {0.5, 0.5};
  auto hits = fx.tree->PointQuery(q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);
  auto knn = fx.tree->KnnQuery(q, 1).hits;
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].id, 1u);
  EXPECT_EQ(knn[0].dist_sq, 0.0);
}

class RStarTreeParamTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(RStarTreeParamTest, RangeQueryMatchesBruteForce) {
  const size_t dim = std::get<0>(GetParam());
  const size_t n = std::get<1>(GetParam());
  Rng rng(dim * 1000 + n);
  TreeFixture fx(dim);
  PointSet pts(dim);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(dim);
    for (auto& v : p) v = rng.NextDouble();
    pts.Add(p);
    fx.tree->Insert(PointRect(p), i);
  }
  ASSERT_EQ(fx.tree->Validate(), "");
  ASSERT_TRUE(rstar::ValidateTree(*fx.tree).ok());
  ASSERT_TRUE(fx.pool.AuditPins().ok());
  EXPECT_EQ(fx.tree->size(), n);

  for (int trial = 0; trial < 20; ++trial) {
    HyperRect range = HyperRect::Empty(dim);
    for (size_t k = 0; k < dim; ++k) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      range.lo(k) = std::min(a, b);
      range.hi(k) = std::max(a, b);
    }
    auto hits = fx.tree->RangeQuery(range);
    std::set<uint64_t> got;
    for (const auto& h : hits) got.insert(h.id);
    std::set<uint64_t> expected;
    for (size_t i = 0; i < n; ++i) {
      if (range.ContainsPoint(pts[i])) expected.insert(i);
    }
    EXPECT_EQ(got, expected);
  }
}

TEST_P(RStarTreeParamTest, KnnMatchesBruteForce) {
  const size_t dim = std::get<0>(GetParam());
  const size_t n = std::get<1>(GetParam());
  // Uniform points, then a lattice where equal distances abound and only
  // the (dist², id) tie rule decides the answer.
  for (bool lattice : {false, true}) {
    Rng rng(dim * 77 + n);
    TreeFixture fx(dim);
    PointSet pts(dim);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> p = RandomCoords(rng, dim, lattice);
      pts.Add(p);
      fx.tree->Insert(PointRect(p), i);
    }
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> q = RandomCoords(rng, dim, lattice);
      size_t k = 1 + rng.NextIndex(10);
      ExpectSameHits(fx.tree->KnnQuery(q.data(), k).hits,
                     BruteForceKnn(pts, q.data(), k),
                     lattice ? "lattice" : "uniform");
    }
  }
}

TEST_P(RStarTreeParamTest, BranchAndBoundAgreesWithBestFirst) {
  const size_t dim = std::get<0>(GetParam());
  const size_t n = std::get<1>(GetParam());
  Rng rng(dim * 13 + n);
  TreeFixture fx(dim);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(dim);
    for (auto& v : p) v = rng.NextDouble();
    fx.tree->Insert(PointRect(p), i);
  }
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<double> q(dim);
    for (auto& v : q) v = rng.NextDouble();
    auto bb = fx.tree->NnBranchAndBound(q.data());
    ASSERT_TRUE(bb.has_value());
    auto bf = fx.tree->KnnQuery(q.data(), 1).hits;
    ASSERT_EQ(bf.size(), 1u);
    // Both are exact: identical distances (ids may differ on ties).
    EXPECT_EQ(bb->dist_sq, bf[0].dist_sq);
  }
}

TEST(RStarTreeTest, BranchAndBoundEmptyTree) {
  TreeFixture fx(3);
  double q[3] = {0.5, 0.5, 0.5};
  EXPECT_FALSE(fx.tree->NnBranchAndBound(q).has_value());
}

TEST(RStarTreeTest, BranchAndBoundUsesMorePagesThanBestFirst) {
  // [HS 95] best-first is page-optimal; [RKV 95] DFS generally reads at
  // least as many pages (this gap is part of what the paper measures).
  Rng rng(23);
  PageFile file(1024);
  BufferPool pool(&file, 8192);
  TreeOptions opts;
  opts.dim = 8;
  RStarTree tree(&pool, opts);
  for (size_t i = 0; i < 2000; ++i) {
    std::vector<double> p(8);
    for (auto& v : p) v = rng.NextDouble();
    tree.Insert(PointRect(p), i);
  }
  uint64_t bb_pages = 0, bf_pages = 0;
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q(8);
    for (auto& v : q) v = rng.NextDouble();
    pool.DropCache();
    pool.ResetStats();
    tree.NnBranchAndBound(q.data());
    bb_pages += pool.stats().physical_reads;
    pool.DropCache();
    pool.ResetStats();
    tree.KnnQuery(q.data(), 1);
    bf_pages += pool.stats().physical_reads;
  }
  EXPECT_GE(bb_pages, bf_pages);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RStarTreeParamTest,
    ::testing::Combine(::testing::Values(2, 4, 8, 16),
                       ::testing::Values(64, 500, 2000)));

TEST(RStarTreeTest, PointQueryOnRectangles) {
  // Overlapping rectangles: the point query must return all containers.
  TreeFixture fx(2);
  fx.tree->Insert(HyperRect({0.0, 0.0}, {0.6, 0.6}), 1);
  fx.tree->Insert(HyperRect({0.4, 0.4}, {1.0, 1.0}), 2);
  fx.tree->Insert(HyperRect({0.45, 0.45}, {0.55, 0.55}), 3);
  fx.tree->Insert(HyperRect({0.8, 0.8}, {0.9, 0.9}), 4);
  double q[2] = {0.5, 0.5};
  auto hits = fx.tree->PointQuery(q);
  std::set<uint64_t> ids(hits.begin(), hits.end());
  EXPECT_EQ(ids, (std::set<uint64_t>{1, 2, 3}));
}

TEST(RStarTreeTest, DeleteAndValidate) {
  Rng rng(5);
  TreeFixture fx(2);
  PointSet pts(2);
  const size_t n = 400;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p = {rng.NextDouble(), rng.NextDouble()};
    pts.Add(p);
    fx.tree->Insert(PointRect(p), i);
  }
  // Delete half.
  for (size_t i = 0; i < n; i += 2) {
    EXPECT_TRUE(fx.tree->Delete(PointRect(pts.Get(i)), i)) << i;
  }
  EXPECT_EQ(fx.tree->size(), n / 2);
  ASSERT_EQ(fx.tree->Validate(), "");
  // The deep validator (MBR containment, page accounting, pin audit) must
  // agree with the string-based check.
  ASSERT_TRUE(rstar::ValidateTree(*fx.tree).ok());
  ASSERT_TRUE(fx.pool.AuditPins().ok());
  // Deleted points are gone; survivors remain.
  for (size_t i = 0; i < n; ++i) {
    auto hits = fx.tree->PointQuery(pts[i]);
    bool found = false;
    for (uint64_t h : hits) found |= (h == i);
    EXPECT_EQ(found, i % 2 == 1) << i;
  }
  // Double-delete fails.
  EXPECT_FALSE(fx.tree->Delete(PointRect(pts.Get(0)), 0));
}

// Shrinking entries in place keeps every directory rectangle the tight
// union of its children, and range queries see the new rectangles only.
TEST(RStarTreeTest, ShrinkEntryTightensAncestors) {
  Rng rng(9);
  TreeFixture fx(2);
  std::vector<HyperRect> rects;
  const size_t n = 300;
  for (size_t i = 0; i < n; ++i) {
    double x = rng.NextDouble(), y = rng.NextDouble();
    rects.emplace_back(std::vector<double>{x, y},
                       std::vector<double>{x + 0.05, y + 0.05});
    fx.tree->Insert(rects.back(), i);
  }
  for (size_t i = 0; i < n; i += 3) {
    HyperRect shrunk({rects[i].lo(0) + 0.02, rects[i].lo(1) + 0.01},
                     {rects[i].hi(0) - 0.01, rects[i].hi(1) - 0.02});
    ASSERT_TRUE(fx.tree->ShrinkEntry(rects[i], i, shrunk)) << i;
    rects[i] = shrunk;
  }
  EXPECT_EQ(fx.tree->size(), n);
  ASSERT_EQ(fx.tree->Validate(), "");
  ASSERT_TRUE(rstar::ValidateTree(*fx.tree).ok());
  ASSERT_TRUE(fx.pool.AuditPins().ok());
  HyperRect all({-1.0, -1.0}, {2.0, 2.0});
  std::vector<Entry> matches = fx.tree->RangeQuery(all);
  ASSERT_EQ(matches.size(), n);
  for (const Entry& m : matches) {
    EXPECT_TRUE(m.rect == rects[m.id]) << m.id;
  }
  // The old rectangle is gone, and a missing entry is reported.
  HyperRect old({rects[0].lo(0) - 0.02, rects[0].lo(1) - 0.01},
                {rects[0].hi(0) + 0.01, rects[0].hi(1) + 0.02});
  EXPECT_FALSE(fx.tree->ShrinkEntry(old, 0, rects[0]));
  EXPECT_TRUE(fx.tree->Delete(rects[0], 0));
}

// Validate holds every directory rectangle to its child's MBR bit for bit:
// Lemma 1 would absorb an enlarged one silently, and the MBR propagation
// of the write path stops at the first ancestor whose stored bits match.
TEST(RStarTreeTest, ValidateRejectsParentWiderByOneUlp) {
  TreeFixture fx(2);
  Rng rng(17);
  for (size_t i = 0; i < 300; ++i) {
    fx.tree->Insert(PointRect({rng.NextDouble(), rng.NextDouble()}), i);
  }
  ASSERT_GE(fx.tree->height(), 2u);
  ASSERT_EQ(fx.tree->Validate(), "");
  const PageId root = fx.tree->SaveState().root;
  {
    PageGuard guard(&fx.pool, root);
    uint8_t* page = fx.pool.FetchMutable(root);
    // lo[0] of the root's first entry, after the 8-byte node header.
    double lo0;
    std::memcpy(&lo0, page + 8, sizeof(lo0));
    lo0 = std::nextafter(lo0, -1.0);
    std::memcpy(page + 8, &lo0, sizeof(lo0));
  }
  const std::string err = fx.tree->Validate();
  EXPECT_NE(err.find("parent MBR mismatch"), std::string::npos) << err;
}

TEST(RStarTreeTest, DeleteEverything) {
  Rng rng(6);
  TreeFixture fx(3);
  std::vector<std::vector<double>> pts;
  for (size_t i = 0; i < 300; ++i) {
    pts.push_back({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()});
    fx.tree->Insert(PointRect(pts.back()), i);
  }
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(fx.tree->Delete(PointRect(pts[i]), i)) << i;
  }
  EXPECT_EQ(fx.tree->size(), 0u);
  EXPECT_EQ(fx.tree->height(), 1u);
  double q[3] = {0.5, 0.5, 0.5};
  EXPECT_TRUE(fx.tree->KnnQuery(q, 5).hits.empty());
}

TEST(RStarTreeTest, DuplicatePointsAllFound) {
  TreeFixture fx(2);
  std::vector<double> p = {0.3, 0.7};
  for (uint64_t i = 0; i < 50; ++i) fx.tree->Insert(PointRect(p), i);
  auto hits = fx.tree->PointQuery(p.data());
  EXPECT_EQ(hits.size(), 50u);
  ASSERT_EQ(fx.tree->Validate(), "");
}

TEST(RStarTreeTest, InfoCountsNodes) {
  Rng rng(8);
  TreeFixture fx(2);
  for (size_t i = 0; i < 500; ++i) {
    fx.tree->Insert(PointRect({rng.NextDouble(), rng.NextDouble()}), i);
  }
  auto info = fx.tree->Info();
  EXPECT_EQ(info.size, 500u);
  EXPECT_GT(info.height, 1u);
  EXPECT_GT(info.num_leaves, 1u);
  EXPECT_EQ(info.num_supernodes, 0u);  // R* never creates supernodes
  EXPECT_EQ(info.total_pages, info.num_nodes);
}

TEST(RStarTreeTest, PageAccessesGrowWithTreeNotLinearly) {
  // The whole point of an index: a point query touches O(height) pages on
  // well-separated point data, far fewer than the number of leaves.
  Rng rng(10);
  PageFile file(1024);
  BufferPool pool(&file, 4096);
  TreeOptions opts;
  opts.dim = 2;
  RStarTree tree(&pool, opts);
  for (size_t i = 0; i < 5000; ++i) {
    tree.Insert(PointRect({rng.NextDouble(), rng.NextDouble()}), i);
  }
  pool.DropCache();
  pool.ResetStats();
  double q[2] = {0.5, 0.5};
  auto hits = tree.KnnQuery(q, 1).hits;
  ASSERT_EQ(hits.size(), 1u);
  uint64_t query_reads = pool.stats().physical_reads;
  auto info = tree.Info();
  EXPECT_LT(query_reads, info.num_nodes / 4)
      << "kNN should not scan the whole tree";
}

// The allocating rectangle operations the reference ChooseSubtree and
// splits below were first written with.
HyperRect Union(const HyperRect& a, const HyperRect& b) {
  HyperRect r = a;
  r.ExpandToRect(b);
  return r;
}

double OverlapVolume(const HyperRect& a, const HyperRect& b) {
  return RawOverlapVolume(a.lo(), a.hi(), b.lo(), b.hi(), a.dim());
}

double Enlargement(const HyperRect& r, const HyperRect& by) {
  return Union(r, by).Volume() - r.Volume();
}

double Margin(const HyperRect& r) {
  if (r.IsEmpty()) return 0.0;
  double m = 0.0;
  for (size_t i = 0; i < r.dim(); ++i) m += (r.hi(i) - r.lo(i));
  return m;
}

// The R*-tree ChooseSubtree as first written: every score recomputed in
// the comparator through allocating HyperRect operations, and every
// overlap term evaluated. RTreeCore::ChooseSubtree computes each score
// once and skips overlap terms that are exactly zero; it must pick the
// same entry.
size_t ReferenceChooseSubtree(const Node& node, const HyperRect& rect,
                              bool children_are_leaves) {
  const size_t n = node.entries.size();
  size_t best = 0;
  if (children_are_leaves) {
    constexpr size_t kOverlapCandidates = 32;
    std::vector<size_t> order;
    for (size_t i = 0; i < n; ++i) order.push_back(i);
    size_t considered = n;
    if (n > kOverlapCandidates) {
      considered = kOverlapCandidates;
      std::partial_sort(order.begin(), order.begin() + considered,
                        order.end(), [&](size_t a, size_t b) {
                          double ea = Enlargement(node.entries[a].rect, rect);
                          double eb = Enlargement(node.entries[b].rect, rect);
                          if (ea != eb) return ea < eb;
                          double va = node.entries[a].rect.Volume();
                          double vb = node.entries[b].rect.Volume();
                          if (va != vb) return va < vb;
                          return a < b;
                        });
    }
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_enlarge = best_overlap, best_area = best_overlap;
    best = order[0];
    for (size_t oi = 0; oi < considered; ++oi) {
      const size_t i = order[oi];
      HyperRect enlarged = Union(node.entries[i].rect, rect);
      double overlap_delta = 0.0;
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        overlap_delta += OverlapVolume(enlarged, node.entries[j].rect) -
                         OverlapVolume(node.entries[i].rect,
                                       node.entries[j].rect);
      }
      double enlarge = Enlargement(node.entries[i].rect, rect);
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
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = best_enlarge;
    for (size_t i = 0; i < n; ++i) {
      double enlarge = Enlargement(node.entries[i].rect, rect);
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

// A random rectangle of one of four shapes: continuous bounds; bounds on
// a coarse grid (shared faces, equal volumes, exact duplicates across
// draws); a degenerate point rectangle, as the point tree stores; or a fat
// cell-like box reaching a face of the unit cube.
HyperRect RandomRect(Rng& rng, size_t d, int shape) {
  std::vector<double> lo(d), hi(d);
  for (size_t k = 0; k < d; ++k) {
    double a = rng.NextDouble(), b = rng.NextDouble();
    switch (shape) {
      case 1:
        a = static_cast<double>(rng.NextIndex(5)) / 4.0;
        b = static_cast<double>(rng.NextIndex(5)) / 4.0;
        break;
      case 2:
        b = a;
        break;
      case 3:
        if (rng.NextIndex(2) == 0) a = 0.0; else b = 1.0;
        break;
      default:
        break;
    }
    lo[k] = std::min(a, b);
    hi[k] = std::max(a, b);
  }
  return HyperRect(lo, hi);
}

TEST(ChooseSubtreeTest, MatchesReferenceOnRandomNodes) {
  Rng rng(0xc505e);
  size_t pruned_nodes = 0, zero_enlargement = 0;
  for (size_t d : {2u, 4u, 16u}) {
    for (int trial = 0; trial < 150; ++trial) {
      const size_t n = 2 + rng.NextIndex(399);  // [2, 400]
      // One shape per node keeps degenerate and grid cases dense; a mixed
      // node draws the shape per entry.
      const int node_shape = static_cast<int>(rng.NextIndex(5));
      auto draw = [&] {
        return RandomRect(rng, d,
                          node_shape == 4 ? static_cast<int>(rng.NextIndex(4))
                                          : node_shape);
      };
      Node node;
      node.is_leaf = false;
      for (size_t i = 0; i < n; ++i) {
        Entry e;
        // Exact duplicates of earlier entries.
        e.rect = i > 0 && rng.NextIndex(8) == 0
                     ? node.entries[rng.NextIndex(i)].rect
                     : draw();
        e.id = i;
        node.entries.push_back(std::move(e));
      }
      // The new rectangle: a fresh draw, a copy of an entry, or a point
      // inside an entry (both of zero enlargement for that entry).
      HyperRect rect;
      const HyperRect& host = node.entries[rng.NextIndex(n)].rect;
      switch (rng.NextIndex(3)) {
        case 0:
          rect = draw();
          break;
        case 1:
          rect = host;
          break;
        default: {
          std::vector<double> p(d);
          for (size_t k = 0; k < d; ++k) {
            p[k] = host.lo(k) + rng.NextDouble() * (host.hi(k) - host.lo(k));
          }
          rect = HyperRect::FromPoint(p.data(), p.size());
          break;
        }
      }
      for (bool leaves : {true, false}) {
        const size_t want = ReferenceChooseSubtree(node, rect, leaves);
        ASSERT_EQ(RTreeCore::ChooseSubtree(node, rect, leaves), want)
            << "d=" << d << " n=" << n << " shape=" << node_shape
            << " leaves=" << leaves;
        if (leaves && Enlargement(node.entries[want].rect, rect) == 0.0) {
          ++zero_enlargement;
        }
      }
      if (n > 32) ++pruned_nodes;
    }
  }
  // Both regimes of the leaf-parent rule were exercised.
  EXPECT_GT(pruned_nodes, 100u);
  EXPECT_GT(zero_enlargement, 50u);
}

// RStarSplit as first written: each sort order re-sorted by its own
// comparator, and the prefix / suffix MBRs built as allocating HyperRect
// unions.
void ReferenceSortEntries(std::vector<Entry>& entries, size_t axis,
                          bool by_lower) {
  std::stable_sort(entries.begin(), entries.end(),
                   [axis, by_lower](const Entry& a, const Entry& b) {
                     double ka = by_lower ? a.rect.lo(axis) : a.rect.hi(axis);
                     double kb = by_lower ? b.rect.lo(axis) : b.rect.hi(axis);
                     if (ka != kb) return ka < kb;
                     double sa = by_lower ? a.rect.hi(axis) : a.rect.lo(axis);
                     double sb = by_lower ? b.rect.hi(axis) : b.rect.lo(axis);
                     return sa < sb;
                   });
}

std::pair<std::vector<Entry>, std::vector<Entry>> ReferenceRStarSplit(
    std::vector<Entry> entries, size_t dim, size_t min_fill) {
  const size_t n = entries.size();
  size_t m = std::min(min_fill, n / 2);
  m = std::max<size_t>(m, 1);
  size_t best_axis = 0;
  bool best_axis_by_lower = true;
  double best_margin_sum = std::numeric_limits<double>::infinity();
  for (size_t axis = 0; axis < dim; ++axis) {
    for (bool by_lower : {true, false}) {
      ReferenceSortEntries(entries, axis, by_lower);
      std::vector<HyperRect> prefix(n), suffix(n);
      prefix[0] = entries[0].rect;
      for (size_t i = 1; i < n; ++i) {
        prefix[i] = Union(prefix[i - 1], entries[i].rect);
      }
      suffix[n - 1] = entries[n - 1].rect;
      for (size_t i = n - 1; i-- > 0;) {
        suffix[i] = Union(suffix[i + 1], entries[i].rect);
      }
      double margin_sum = 0.0;
      for (size_t k = m; k + m <= n; ++k) {
        margin_sum += Margin(prefix[k - 1]) + Margin(suffix[k]);
      }
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best_axis = axis;
        best_axis_by_lower = by_lower;
      }
    }
  }
  size_t best_split = m;
  bool best_by_lower = best_axis_by_lower;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (bool by_lower : {true, false}) {
    ReferenceSortEntries(entries, best_axis, by_lower);
    std::vector<HyperRect> prefix(n), suffix(n);
    prefix[0] = entries[0].rect;
    for (size_t i = 1; i < n; ++i) {
      prefix[i] = Union(prefix[i - 1], entries[i].rect);
    }
    suffix[n - 1] = entries[n - 1].rect;
    for (size_t i = n - 1; i-- > 0;) {
      suffix[i] = Union(suffix[i + 1], entries[i].rect);
    }
    for (size_t k = m; k + m <= n; ++k) {
      double overlap = OverlapVolume(prefix[k - 1], suffix[k]);
      double area = prefix[k - 1].Volume() + suffix[k].Volume();
      if (overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_split = k;
        best_by_lower = by_lower;
      }
    }
  }
  ReferenceSortEntries(entries, best_axis, best_by_lower);
  std::vector<Entry> left(entries.begin(), entries.begin() + best_split);
  std::vector<Entry> right(entries.begin() + best_split, entries.end());
  return {std::move(left), std::move(right)};
}

double ReferenceSplitOverlap(const HyperRect& a, const HyperRect& b) {
  double inter = OverlapVolume(a, b);
  if (inter <= 0.0) return 0.0;
  double uni = a.Volume() + b.Volume() - inter;
  if (uni <= 0.0) return 1.0;
  return inter / uni;
}

// OverlapMinimalSplit as first written (sorted by the key alone).
std::optional<std::pair<std::vector<Entry>, std::vector<Entry>>>
ReferenceOverlapMinimalSplit(std::vector<Entry> entries, size_t dim,
                             size_t min_fill, double* achieved_overlap) {
  const size_t n = entries.size();
  size_t m = std::min(min_fill, n / 2);
  m = std::max<size_t>(m, 1);
  size_t best_axis = 0, best_split = 0;
  bool best_by_lower = true;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_balance = std::numeric_limits<double>::infinity();
  auto sort_on = [&entries](size_t axis, bool by_lower) {
    std::stable_sort(entries.begin(), entries.end(),
                     [axis, by_lower](const Entry& a, const Entry& b) {
                       double ka = by_lower ? a.rect.lo(axis) : a.rect.hi(axis);
                       double kb = by_lower ? b.rect.lo(axis) : b.rect.hi(axis);
                       return ka < kb;
                     });
  };
  for (size_t axis = 0; axis < dim; ++axis) {
    for (bool by_lower : {true, false}) {
      sort_on(axis, by_lower);
      std::vector<HyperRect> prefix(n), suffix(n);
      prefix[0] = entries[0].rect;
      for (size_t i = 1; i < n; ++i) {
        prefix[i] = Union(prefix[i - 1], entries[i].rect);
      }
      suffix[n - 1] = entries[n - 1].rect;
      for (size_t i = n - 1; i-- > 0;) {
        suffix[i] = Union(suffix[i + 1], entries[i].rect);
      }
      for (size_t k = m; k + m <= n; ++k) {
        double overlap = ReferenceSplitOverlap(prefix[k - 1], suffix[k]);
        double balance =
            std::abs(static_cast<double>(k) - static_cast<double>(n - k));
        if (overlap < best_overlap - 1e-15 ||
            (overlap <= best_overlap + 1e-15 && balance < best_balance)) {
          best_overlap = std::min(overlap, best_overlap);
          best_balance = balance;
          best_axis = axis;
          best_split = k;
          best_by_lower = by_lower;
        }
      }
    }
  }
  if (best_split == 0) return std::nullopt;
  sort_on(best_axis, best_by_lower);
  *achieved_overlap = best_overlap;
  std::vector<Entry> left(entries.begin(), entries.begin() + best_split);
  std::vector<Entry> right(entries.begin() + best_split, entries.end());
  return std::make_pair(std::move(left), std::move(right));
}

// Same ids and same rectangle bits, in the same order.
void ExpectSameGroup(const std::vector<Entry>& got,
                     const std::vector<Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << "position " << i;
    ASSERT_TRUE(got[i].rect == want[i].rect) << "position " << i;
  }
}

// Both tree splits against their first-written form, on entry sets of up
// to three pages with duplicates, point rects, shared faces (grid bounds)
// and zero bounds of either sign, whose order decides which zero an MBR
// keeps.
TEST(SplitTest, MatchesReferenceOnRandomEntries) {
  Rng rng(0x5b1170);
  size_t signed_zero_sets = 0;
  for (size_t d : {2u, 4u, 16u}) {
    // Entries of a 4 KiB page: 2d doubles and an id each, after the
    // 8-byte header.
    const size_t capacity = (4096 - 8) / (2 * d * sizeof(double) + 8);
    for (int trial = 0; trial < 60; ++trial) {
      const size_t n = 2 + rng.NextIndex(3 * capacity - 1);  // [2, 3 cap]
      const int set_shape = static_cast<int>(rng.NextIndex(5));
      std::vector<Entry> entries;
      bool negative_zero = false;
      for (size_t i = 0; i < n; ++i) {
        Entry e;
        e.rect = i > 0 && rng.NextIndex(8) == 0
                     ? entries[rng.NextIndex(i)].rect
                     : RandomRect(rng, d,
                                  set_shape == 4
                                      ? static_cast<int>(rng.NextIndex(4))
                                      : set_shape);
        for (size_t k = 0; k < d; ++k) {
          for (double* b : {&e.rect.lo(k), &e.rect.hi(k)}) {
            if (*b == 0.0 && rng.NextIndex(2) == 0) {
              *b = -0.0;
              negative_zero = true;
            }
          }
        }
        e.id = i;
        entries.push_back(std::move(e));
      }
      if (negative_zero) ++signed_zero_sets;
      const size_t min_fill = 1 + rng.NextIndex(std::max<size_t>(1, n / 2));
      SCOPED_TRACE(::testing::Message() << "d=" << d << " n=" << n
                                        << " shape=" << set_shape
                                        << " min_fill=" << min_fill);

      auto rstar = RStarSplit(entries, d, min_fill);
      auto rstar_want = ReferenceRStarSplit(entries, d, min_fill);
      ExpectSameGroup(rstar.first, rstar_want.first);
      ExpectSameGroup(rstar.second, rstar_want.second);

      double overlap = -1.0, overlap_want = -2.0;
      auto minimal = OverlapMinimalSplit(entries, d, min_fill, &overlap);
      auto minimal_want =
          ReferenceOverlapMinimalSplit(entries, d, min_fill, &overlap_want);
      ASSERT_EQ(minimal.has_value(), minimal_want.has_value());
      if (!minimal.has_value()) continue;
      ExpectSameGroup(minimal->first, minimal_want->first);
      ExpectSameGroup(minimal->second, minimal_want->second);
      EXPECT_EQ(std::memcmp(&overlap, &overlap_want, sizeof(double)), 0)
          << overlap << " vs " << overlap_want;
    }
  }
  EXPECT_GT(signed_zero_sets, 20u);
}

}  // namespace
}  // namespace nncell
