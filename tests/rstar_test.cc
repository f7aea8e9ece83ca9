#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/point_set.h"
#include "common/rng.h"
#include "rstar/node.h"
#include "rstar/rstar_tree.h"
#include "rstar/split.h"
#include "rstar/validate.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

HyperRect PointRect(const std::vector<double>& p) {
  return HyperRect::FromPoint(p);
}

struct TreeFixture {
  explicit TreeFixture(size_t dim, size_t aux = 0, size_t page_size = 1024,
                       size_t pool_pages = 256)
      : file(page_size), pool(&file, pool_pages) {
    TreeOptions opts;
    opts.dim = dim;
    opts.aux_per_entry = aux;
    tree = std::make_unique<RStarTree>(&pool, opts);
  }
  PageFile file;
  BufferPool pool;
  std::unique_ptr<RStarTree> tree;
};

TEST(NodeStoreTest, CapacityArithmetic) {
  PageFile file(1024);
  BufferPool pool(&file, 8);
  NodeStore store(&pool, 4, 4);
  // Leaf entry: 8*8 rect + 8 id + 4*8 aux = 104 bytes; (1024-8)/104 = 9.
  EXPECT_EQ(store.LeafEntryBytes(), 104u);
  EXPECT_EQ(store.Capacity(true, 1), 9u);
  // Internal entry: 64 + 8 = 72; (1024-8)/72 = 14.
  EXPECT_EQ(store.InternalEntryBytes(), 72u);
  EXPECT_EQ(store.Capacity(false, 1), 14u);
  EXPECT_GT(store.Capacity(true, 2), 2 * store.Capacity(true, 1) - 2);
  EXPECT_EQ(store.PagesNeeded(true, 9), 1u);
  EXPECT_EQ(store.PagesNeeded(true, 10), 2u);
}

TEST(NodeStoreTest, RoundTripLeaf) {
  PageFile file(1024);
  BufferPool pool(&file, 8);
  NodeStore store(&pool, 3, 3);
  Node node;
  node.is_leaf = true;
  for (int i = 0; i < 5; ++i) {
    Entry e;
    double v = i * 0.1;
    e.rect = HyperRect({v, v, v}, {v + 0.05, v + 0.05, v + 0.05});
    e.id = 100 + i;
    e.aux = {v, v + 1, v + 2};
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
    EXPECT_EQ(back.entries[i].aux, node.entries[i].aux);
  }
}

TEST(NodeStoreTest, RoundTripInternal) {
  PageFile file(512);
  BufferPool pool(&file, 8);
  NodeStore store(&pool, 2, 0);
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
  EXPECT_TRUE(back.entries[3].aux.empty());
}

TEST(NodeStoreTest, SupernodeGrowAndShrink) {
  PageFile file(512);
  BufferPool pool(&file, 16);
  NodeStore store(&pool, 2, 0);
  size_t single = store.Capacity(true, 1);
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
  NodeStore store(&pool, 3, 2);
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
    e.aux = {rng.NextDouble(), rng.NextDouble()};
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
    ASSERT_NE(v.aux, nullptr);
    EXPECT_DOUBLE_EQ(v.aux[0], e.aux[0]);
    EXPECT_DOUBLE_EQ(v.aux[1], e.aux[1]);
    ++seen;
  });
  EXPECT_TRUE(is_leaf);
  EXPECT_EQ(seen, node.entries.size());
}

TEST(NodeStoreTest, VisitNodeSupernode) {
  // A node spanning 3+ pages: the scan must stitch the pages together.
  PageFile file(512);
  BufferPool pool(&file, 32);
  NodeStore store(&pool, 2, 0);
  size_t n = store.Capacity(true, 1) * 3;
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
  EXPECT_TRUE(fx.tree->KnnQuery(q, 3).empty());
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
  auto knn = fx.tree->KnnQuery(q, 1);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].id, 1u);
  EXPECT_DOUBLE_EQ(knn[0].dist, 0.0);
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
  Rng rng(dim * 77 + n);
  TreeFixture fx(dim);
  PointSet pts(dim);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(dim);
    for (auto& v : p) v = rng.NextDouble();
    pts.Add(p);
    fx.tree->Insert(PointRect(p), i);
  }
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(dim);
    for (auto& v : q) v = rng.NextDouble();
    size_t k = 1 + rng.NextIndex(10);
    auto knn = fx.tree->KnnQuery(q.data(), k);
    ASSERT_EQ(knn.size(), std::min(k, n));
    // Brute force distances.
    std::vector<double> dists;
    for (size_t i = 0; i < n; ++i) dists.push_back(L2Dist(pts[i], q.data(), dim));
    std::sort(dists.begin(), dists.end());
    for (size_t i = 0; i < knn.size(); ++i) {
      EXPECT_NEAR(knn[i].dist, dists[i], 1e-12) << "k-th " << i;
    }
    // Ascending order.
    for (size_t i = 1; i < knn.size(); ++i) {
      EXPECT_LE(knn[i - 1].dist, knn[i].dist);
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
    auto bf = fx.tree->KnnQuery(q.data(), 1);
    ASSERT_EQ(bf.size(), 1u);
    // Both are exact: identical distances (ids may differ on ties).
    EXPECT_NEAR(bb->dist, bf[0].dist, 1e-12);
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

TEST(RStarTreeTest, AuxPayloadRoundTrip) {
  TreeFixture fx(3, /*aux=*/3);
  std::vector<double> p = {0.1, 0.2, 0.3};
  std::vector<double> aux = {9.0, 8.0, 7.0};
  fx.tree->Insert(PointRect(p), 42, aux.data());
  auto hits = fx.tree->RangeQuery(PointRect(p));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].aux, aux);
  auto knn = fx.tree->KnnQuery(p.data(), 1);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].aux, aux);
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
  EXPECT_TRUE(fx.tree->KnnQuery(q, 5).empty());
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

TEST(RStarTreeTest, ReinsertDisabledStillCorrect) {
  Rng rng(9);
  PageFile file(1024);
  BufferPool pool(&file, 128);
  TreeOptions opts;
  opts.dim = 2;
  opts.enable_reinsert = false;
  RStarTree tree(&pool, opts);
  PointSet pts(2);
  for (size_t i = 0; i < 600; ++i) {
    std::vector<double> p = {rng.NextDouble(), rng.NextDouble()};
    pts.Add(p);
    tree.Insert(PointRect(p), i);
  }
  ASSERT_EQ(tree.Validate(), "");
  std::vector<double> q = {0.5, 0.5};
  auto knn = tree.KnnQuery(q.data(), 5);
  ASSERT_EQ(knn.size(), 5u);
  double best = 2.0;
  for (size_t i = 0; i < pts.size(); ++i) {
    best = std::min(best, L2Dist(pts[i], q.data(), 2));
  }
  EXPECT_NEAR(knn[0].dist, best, 1e-12);
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
  auto hits = tree.KnnQuery(q, 1);
  ASSERT_EQ(hits.size(), 1u);
  uint64_t query_reads = pool.stats().physical_reads;
  auto info = tree.Info();
  EXPECT_LT(query_reads, info.num_nodes / 4)
      << "kNN should not scan the whole tree";
}

}  // namespace
}  // namespace nncell
