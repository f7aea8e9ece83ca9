#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/point_set.h"
#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "rstar/rstar_tree.h"
#include "rstar/validate.h"
#include "storage/page_file.h"
#include "xtree/xsplit.h"
#include "xtree/xtree.h"
#include "tree_knn_oracle.h"

namespace nncell {
namespace {

HyperRect PointRect(const std::vector<double>& p) {
  return HyperRect::FromPoint(p.data(), p.size());
}

double SplitOverlap(const HyperRect& a, const HyperRect& b) {
  return nncell::SplitOverlap(a.lo(), a.hi(), b.lo(), b.hi(), a.dim());
}

TEST(SplitOverlapTest, DisjointIsZero) {
  HyperRect a({0.0, 0.0}, {0.5, 1.0});
  HyperRect b({0.5, 0.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(SplitOverlap(a, b), 0.0);
}

TEST(SplitOverlapTest, IdenticalIsOne) {
  HyperRect a({0.0, 0.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(SplitOverlap(a, a), 1.0);
}

TEST(SplitOverlapTest, PartialOverlap) {
  HyperRect a({0.0, 0.0}, {2.0, 1.0});
  HyperRect b({1.0, 0.0}, {3.0, 1.0});
  // intersection 1, union 3.
  EXPECT_NEAR(SplitOverlap(a, b), 1.0 / 3.0, 1e-12);
}

TEST(OverlapMinimalSplitTest, FindsOverlapFreeSplit) {
  // Two groups of rectangles, separable in dim 1 but interleaved in dim 0.
  std::vector<Entry> entries;
  Rng rng(3);
  for (int i = 0; i < 12; ++i) {
    Entry e;
    double x = rng.NextDouble();
    double y = (i % 2 == 0) ? rng.NextDouble(0.0, 0.4)
                            : rng.NextDouble(0.6, 0.9);
    e.rect = HyperRect({x, y}, {x + 0.05, y + 0.05});
    e.id = i;
    entries.push_back(e);
  }
  double overlap = 1.0;
  auto split = OverlapMinimalSplit(entries, 2, 3, &overlap);
  ASSERT_TRUE(split.has_value());
  EXPECT_DOUBLE_EQ(overlap, 0.0);
  EXPECT_GE(split->first.size(), 3u);
  EXPECT_GE(split->second.size(), 3u);
  // Groups must be the y-clusters.
  HyperRect left = HyperRect::Empty(2), right = HyperRect::Empty(2);
  for (const auto& e : split->first) left.ExpandToRect(e.rect);
  for (const auto& e : split->second) right.ExpandToRect(e.rect);
  EXPECT_DOUBLE_EQ(RawOverlapVolume(left.lo(), left.hi(), right.lo(),
                                    right.hi(), 2),
                   0.0);
}

TEST(OverlapMinimalSplitTest, AllIdenticalRectsNoGoodSplit) {
  std::vector<Entry> entries;
  for (int i = 0; i < 10; ++i) {
    Entry e;
    e.rect = HyperRect({0.2, 0.2}, {0.8, 0.8});
    e.id = i;
    entries.push_back(e);
  }
  double overlap = 0.0;
  auto split = OverlapMinimalSplit(entries, 2, 3, &overlap);
  // A split exists but with total overlap.
  ASSERT_TRUE(split.has_value());
  EXPECT_NEAR(overlap, 1.0, 1e-12);
}

struct XFixture {
  explicit XFixture(size_t dim, size_t page_size = 1024,
                    size_t pool_pages = 1024)
      : file(page_size), pool(&file, pool_pages) {
    TreeOptions opts;
    opts.dim = dim;
    tree = std::make_unique<XTree>(&pool, opts);
  }
  PageFile file;
  BufferPool pool;
  std::unique_ptr<XTree> tree;
};

class XTreeParamTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(XTreeParamTest, QueriesMatchBruteForce) {
  const size_t dim = std::get<0>(GetParam());
  const size_t n = std::get<1>(GetParam());
  // kNN and range queries vs brute force, on uniform points and on a
  // lattice where only the (dist², id) tie rule separates equal distances.
  for (bool lattice : {false, true}) {
    Rng rng(dim * 31 + n);
    XFixture fx(dim);
    PointSet pts(dim);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> p = RandomCoords(rng, dim, lattice);
      pts.Add(p);
      fx.tree->Insert(PointRect(p), i);
    }
    ASSERT_EQ(fx.tree->Validate(), "");
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> q = RandomCoords(rng, dim, lattice);
      ExpectSameHits(fx.tree->KnnQuery(q.data(), 3).hits,
                     BruteForceKnn(pts, q.data(), 3),
                     lattice ? "lattice" : "uniform");
    }
    // Range query vs brute force.
    for (int trial = 0; trial < 10; ++trial) {
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
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, XTreeParamTest,
    ::testing::Combine(::testing::Values(2, 8, 16),
                       ::testing::Values(200, 1500)));

TEST(XTreeTest, HighDimOverlappingRectsCreateSupernodes) {
  // Heavily overlapping high-dimensional rectangles make overlap-free
  // directory splits impossible -> supernodes must appear.
  const size_t dim = 12;
  Rng rng(17);
  XFixture fx(dim, /*page_size=*/1024, /*pool_pages=*/4096);
  for (size_t i = 0; i < 1500; ++i) {
    std::vector<double> lo(dim), hi(dim);
    for (size_t k = 0; k < dim; ++k) {
      double c = rng.NextDouble();
      double w = rng.NextDouble(0.2, 0.7);
      lo[k] = std::max(0.0, c - w);
      hi[k] = std::min(1.0, c + w);
    }
    fx.tree->Insert(HyperRect(lo, hi), i);
  }
  ASSERT_EQ(fx.tree->Validate(), "");
  // Deep validator: supernode invariants (span bounds, no under-filled
  // supernodes), page accounting, and quiescent pin audit.
  ASSERT_TRUE(rstar::ValidateTree(*fx.tree).ok());
  ASSERT_TRUE(fx.pool.AuditPins().ok());
  EXPECT_GT(fx.tree->supernode_events(), 0u);
  auto info = fx.tree->Info();
  EXPECT_GT(info.num_supernodes, 0u);
  EXPECT_GT(info.total_pages, info.num_nodes);
}

TEST(XTreeTest, PointDataRarelyNeedsSupernodes) {
  // Low-dimensional point data splits cleanly; the X-tree behaves like an
  // R*-tree there (paper: X-tree == R*-tree for d <= 2).
  Rng rng(18);
  XFixture fx(2);
  for (size_t i = 0; i < 2000; ++i) {
    fx.tree->Insert(PointRect({rng.NextDouble(), rng.NextDouble()}), i);
  }
  ASSERT_EQ(fx.tree->Validate(), "");
  auto info = fx.tree->Info();
  EXPECT_EQ(info.num_supernodes, 0u);
}

TEST(XTreeTest, DeleteWorks) {
  Rng rng(19);
  XFixture fx(8);
  std::vector<std::vector<double>> pts;
  for (size_t i = 0; i < 400; ++i) {
    std::vector<double> p(8);
    for (auto& v : p) v = rng.NextDouble();
    pts.push_back(p);
    fx.tree->Insert(PointRect(p), i);
  }
  for (size_t i = 0; i < 400; i += 3) {
    EXPECT_TRUE(fx.tree->Delete(PointRect(pts[i]), i));
  }
  ASSERT_EQ(fx.tree->Validate(), "");
  ASSERT_TRUE(rstar::ValidateTree(*fx.tree).ok());
  ASSERT_TRUE(fx.pool.AuditPins().ok());
  for (size_t i = 0; i < 400; ++i) {
    auto hits = fx.tree->PointQuery(pts[i].data());
    bool found = false;
    for (uint64_t h : hits) found |= h == i;
    EXPECT_EQ(found, i % 3 != 0);
  }
}

TEST(XTreeTest, FewerPageAccessesThanRStarOnHighDimRects) {
  // The paper's motivation for using the X-tree: less directory overlap =>
  // fewer pages touched by a point query on overlapping cell rectangles.
  const size_t dim = 10;
  const size_t n = 1200;
  Rng rng(20);
  std::vector<HyperRect> rects;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> lo(dim), hi(dim);
    for (size_t k = 0; k < dim; ++k) {
      double c = rng.NextDouble();
      double w = rng.NextDouble(0.05, 0.45);
      lo[k] = std::max(0.0, c - w);
      hi[k] = std::min(1.0, c + w);
    }
    rects.emplace_back(lo, hi);
  }

  PageFile rfile(1024), xfile(1024);
  BufferPool rpool(&rfile, 8192), xpool(&xfile, 8192);
  TreeOptions opts;
  opts.dim = dim;
  RStarTree rtree(&rpool, opts);
  XTree xtree(&xpool, opts);
  for (size_t i = 0; i < n; ++i) {
    rtree.Insert(rects[i], i);
    xtree.Insert(rects[i], i);
  }

  uint64_t r_reads = 0, x_reads = 0;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> q(dim);
    for (auto& v : q) v = rng.NextDouble();
    rpool.DropCache();
    rpool.ResetStats();
    auto rh = rtree.PointQuery(q.data());
    r_reads += rpool.stats().physical_reads;
    xpool.DropCache();
    xpool.ResetStats();
    auto xh = xtree.PointQuery(q.data());
    x_reads += xpool.stats().physical_reads;
    // Same answers.
    std::set<uint64_t> ra(rh.begin(), rh.end()), xa(xh.begin(), xh.end());
    ASSERT_EQ(ra, xa);
  }
  EXPECT_LE(x_reads, r_reads);
}

// A tree that lists every leaf entry in the depth-first order the box
// queries walk (children pushed in entry order, popped last first).
template <class Tree>
class LeafEntryListing : public Tree {
 public:
  using Tree::Tree;

  std::vector<Entry> LeafEntries(size_t* max_fanout) const {
    std::vector<Entry> entries;
    std::vector<PageId> stack = {this->SaveState().root};
    *max_fanout = 0;
    while (!stack.empty()) {
      PageId pid = stack.back();
      stack.pop_back();
      size_t fanout = 0;
      this->store().VisitNode(pid, [&](const EntryView& e, bool is_leaf) {
        ++fanout;
        if (is_leaf) {
          entries.push_back(
              Entry{HyperRect::FromBounds(e.lo, this->options().dim), e.id});
        } else {
          stack.push_back(static_cast<PageId>(e.id));
        }
      });
      *max_fanout = std::max(*max_fanout, fanout);
    }
    return entries;
  }
};

// Cell-like rectangles inside [0,1]^dim, half-widths in [w_lo, w_hi).
std::vector<HyperRect> CellLikeRects(Rng& rng, size_t n, size_t dim,
                                     double w_lo, double w_hi) {
  std::vector<HyperRect> rects;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> lo(dim), hi(dim);
    for (size_t k = 0; k < dim; ++k) {
      double c = rng.NextDouble();
      double w = rng.NextDouble(w_lo, w_hi);
      lo[k] = std::max(0.0, c - w);
      hi[k] = std::min(1.0, c + w);
    }
    rects.emplace_back(lo, hi);
  }
  return rects;
}

// PointQuery and RangeQueryIds answer exactly the leaf entries a brute
// filter of the whole tree keeps, in the same order, on nodes of more than
// 64 entries (several box_hits calls each) or on X-tree supernodes.
template <class Tree>
void ExpectBoxQueriesMatchLeafFilter(size_t dim, size_t n, size_t page_size,
                                     double w_lo, double w_hi,
                                     bool want_supernodes) {
  SCOPED_TRACE("dim " + std::to_string(dim));
  Rng rng(dim * 101 + n);
  PageFile file(page_size);
  BufferPool pool(&file, 4096);
  TreeOptions opts;
  opts.dim = dim;
  LeafEntryListing<Tree> tree(&pool, opts);
  const std::vector<HyperRect> rects = CellLikeRects(rng, n, dim, w_lo, w_hi);
  for (size_t i = 0; i < n; ++i) tree.Insert(rects[i], i);
  ASSERT_EQ(tree.Validate(), "");
  if (want_supernodes) {
    ASSERT_GT(tree.Info().num_supernodes, 0u);
  }
  size_t max_fanout = 0;
  const std::vector<Entry> leaves = tree.LeafEntries(&max_fanout);
  ASSERT_EQ(leaves.size(), n);
  if (!want_supernodes) {
    EXPECT_GT(max_fanout, 64u);
  }

  size_t point_hits = 0, range_hits = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<double> q(dim);
    for (auto& v : q) v = rng.NextDouble();
    // Every third query sits on a stored corner: closed boxes must hit.
    const HyperRect& r = rects[rng.NextIndex(n)];
    if (trial % 3 == 1) q.assign(r.lo(), r.lo() + dim);
    if (trial % 3 == 2) q.assign(r.hi(), r.hi() + dim);
    std::vector<uint64_t> want;
    for (const Entry& e : leaves) {
      if (RawContainsPoint(e.rect.lo(), e.rect.hi(), q.data(), dim)) {
        want.push_back(e.id);
      }
    }
    EXPECT_EQ(tree.PointQuery(q.data()), want) << "point trial " << trial;
    point_hits += want.size();

    HyperRect range = HyperRect::Empty(dim);
    for (size_t k = 0; k < dim; ++k) {
      double a = rng.NextDouble(), b = rng.NextDouble(-0.05, 0.05);
      range.lo(k) = std::min(a, a + b);
      range.hi(k) = std::max(a, a + b);
    }
    if (trial % 3 == 1) range = r;  // touching neighbours count
    want.clear();
    for (const Entry& e : leaves) {
      if (RawIntersects(e.rect.lo(), e.rect.hi(), range.lo(), range.hi(),
                        dim)) {
        want.push_back(e.id);
      }
    }
    EXPECT_EQ(tree.RangeQueryIds(range), want) << "range trial " << trial;
    range_hits += want.size();
  }
  // At least the boxes the corner queries and box ranges were taken from.
  EXPECT_GE(point_hits, 40u);
  EXPECT_GE(range_hits, 20u);
}

TEST(BoxQueryTest, RStarMatchesLeafFilterD4) {
  ExpectBoxQueriesMatchLeafFilter<RStarTree>(4, 3000, 8192, 0.02, 0.12,
                                             false);
}

TEST(BoxQueryTest, XTreeMatchesLeafFilterD4) {
  ExpectBoxQueriesMatchLeafFilter<XTree>(4, 3000, 8192, 0.02, 0.12, false);
}

TEST(BoxQueryTest, RStarMatchesLeafFilterD16) {
  ExpectBoxQueriesMatchLeafFilter<RStarTree>(16, 1500, 32768, 0.2, 0.7,
                                             false);
}

TEST(BoxQueryTest, XTreeSupernodesMatchLeafFilterD16) {
  ExpectBoxQueriesMatchLeafFilter<XTree>(16, 800, 2048, 0.1, 0.5, true);
}

// An X-tree that lists the ids stored on each of its leaf pages, so the
// page granularity of the leaf-page queries can be checked from outside.
class LeafListingXTree : public XTree {
 public:
  using XTree::XTree;

  std::vector<std::vector<uint64_t>> LeafPages() const {
    std::vector<std::vector<uint64_t>> pages;
    std::vector<PageId> stack = {SaveState().root};
    while (!stack.empty()) {
      PageId pid = stack.back();
      stack.pop_back();
      std::vector<uint64_t> ids;
      bool leaf =
          store().VisitNode(pid, [&](const EntryView& e, bool is_leaf) {
            if (is_leaf) {
              ids.push_back(e.id);
            } else {
              stack.push_back(static_cast<PageId>(e.id));
            }
          });
      if (leaf) pages.push_back(std::move(ids));
    }
    return pages;
  }
};

struct LeafPageFixture {
  LeafPageFixture(size_t dim, size_t n) : file(1024), pool(&file, 1024) {
    TreeOptions opts;
    opts.dim = dim;
    tree = std::make_unique<LeafListingXTree>(&pool, opts);
    Rng rng(dim * 7 + n);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> p(dim);
      for (auto& v : p) v = rng.NextDouble();
      pts.push_back(p);
      tree->Insert(PointRect(p), i);
    }
  }
  PageFile file;
  BufferPool pool;
  std::unique_ptr<LeafListingXTree> tree;
  std::vector<std::vector<double>> pts;
};

bool HasDuplicates(std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) != ids.end();
}

TEST(LeafPageQueryTest, SphereQueryCoversBallWithoutDuplicates) {
  const size_t dim = 4;
  LeafPageFixture fx(dim, 1500);
  ASSERT_GT(fx.tree->height(), 2u);
  Rng rng(5);
  for (double radius : {0.0, 0.05, 0.15, 0.4}) {
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> q(dim);
      for (auto& v : q) v = rng.NextDouble();
      std::vector<uint64_t> got =
          fx.tree->LeafPageSphereQuery(q.data(), radius);
      EXPECT_FALSE(HasDuplicates(got)) << "radius " << radius;
      std::set<uint64_t> got_set(got.begin(), got.end());
      for (uint64_t i = 0; i < fx.pts.size(); ++i) {
        if (L2DistSq(fx.pts[i].data(), q.data(), dim) <= radius * radius) {
          EXPECT_TRUE(got_set.count(i)) << "in-sphere id " << i << " missing";
        }
      }
    }
  }
}

TEST(LeafPageQueryTest, PointQueryReturnsWholePageHoldingQ) {
  const size_t dim = 4;
  LeafPageFixture fx(dim, 1500);
  const std::vector<std::vector<uint64_t>> pages = fx.tree->LeafPages();
  ASSERT_GT(pages.size(), 10u);
  // Probe at stored points: the page holding the point contains it, so
  // the whole page must come back.
  for (size_t p = 0; p < pages.size(); p += 7) {
    const uint64_t probe = pages[p].front();
    std::vector<uint64_t> got =
        fx.tree->LeafPageSphereQuery(fx.pts[probe].data(), 0.0);
    EXPECT_FALSE(HasDuplicates(got));
    std::set<uint64_t> got_set(got.begin(), got.end());
    for (uint64_t id : pages[p]) {
      EXPECT_TRUE(got_set.count(id)) << "page " << p << " id " << id;
    }
  }
}

TEST(LeafPageQueryTest, RootLeafPageQualifiesByItsMbr) {
  const size_t dim = 2;
  XFixture fx(dim);
  for (uint64_t i = 0; i < 5; ++i) {
    double x = 0.2 + 0.02 * static_cast<double>(i);
    fx.tree->Insert(PointRect({x, x}), i);
  }
  ASSERT_EQ(fx.tree->height(), 1u);
  const double far[2] = {0.9, 0.9};
  EXPECT_TRUE(fx.tree->LeafPageSphereQuery(far, 0.1).empty());
  EXPECT_TRUE(fx.tree->LeafPageSphereQuery(far, 0.0).empty());
  EXPECT_EQ(fx.tree->LeafPageSphereQuery(far, 1.0).size(), 5u);
  const double inside[2] = {0.25, 0.21};  // inside the MBR, on no point
  EXPECT_EQ(fx.tree->LeafPageSphereQuery(inside, 0.0).size(), 5u);
}

}  // namespace
}  // namespace nncell
