// Tests for the k-NN extension of the NN-cell index (the paper's stated
// future work) and for the bulk loaders it leans on (STR for the point
// tree, the split packer for the cell tree).

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/rng.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "rstar/bulk_load.h"
#include "rstar/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "xtree/xtree.h"

namespace nncell {
namespace {

// ---------- STR bulk load ----------

TEST(StrPartitionTest, EmptyAndSmall) {
  EXPECT_TRUE(StrPartition({}, 10, 3).empty());
  std::vector<Entry> entries(4);
  for (size_t i = 0; i < 4; ++i) {
    entries[i].rect = HyperRect({0.1 * i, 0.0}, {0.1 * i + 0.05, 1.0});
    entries[i].id = i;
  }
  auto groups = StrPartition(entries, 10, 2);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 4u);
}

TEST(StrPartitionTest, BalancedGroupSizes) {
  Rng rng(1);
  for (size_t n : {23u, 100u, 257u, 1000u}) {
    std::vector<Entry> entries(n);
    for (size_t i = 0; i < n; ++i) {
      double x = rng.NextDouble(), y = rng.NextDouble();
      entries[i].rect = HyperRect({x, y}, {x, y});
      entries[i].id = i;
    }
    const size_t capacity = 16;
    auto groups = StrPartition(entries, capacity, 2);
    size_t total = 0;
    for (const auto& g : groups) {
      EXPECT_LE(g.size(), capacity);
      if (groups.size() > 1) {
        EXPECT_GE(g.size(), capacity / 2 - 1);
      }
      total += g.size();
    }
    EXPECT_EQ(total, n);
  }
}

TEST(StrPartitionTest, PreservesAllIds) {
  Rng rng(2);
  std::vector<Entry> entries(300);
  for (size_t i = 0; i < 300; ++i) {
    double x = rng.NextDouble(), y = rng.NextDouble(), z = rng.NextDouble();
    entries[i].rect = HyperRect({x, y, z}, {x, y, z});
    entries[i].id = i;
  }
  auto groups = StrPartition(entries, 20, 3);
  std::set<uint64_t> seen;
  for (const auto& g : groups) {
    for (const auto& e : g) seen.insert(e.id);
  }
  EXPECT_EQ(seen.size(), 300u);
}

TEST(StrPartitionTest, TilesAreSpatiallyCoherent) {
  // Points on a grid: each group's MBR should be far smaller than the
  // space (locality), roughly groups ~ tiles.
  std::vector<Entry> entries;
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      Entry e;
      e.rect = HyperRect({i / 32.0, j / 32.0}, {i / 32.0, j / 32.0});
      e.id = i * 32 + j;
      entries.push_back(e);
    }
  }
  auto groups = StrPartition(entries, 64, 2);
  for (const auto& g : groups) {
    HyperRect mbr = HyperRect::Empty(2);
    for (const auto& e : g) mbr.ExpandToRect(e.rect);
    EXPECT_LT(mbr.Volume(), 0.25);  // far below the unit square
  }
}

TEST(BulkLoadTest, QueriesMatchInsertBuiltTree) {
  Rng rng(3);
  const size_t dim = 4;
  const size_t n = 3000;
  PointSet pts(dim);
  std::vector<Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(dim);
    for (auto& v : p) v = rng.NextDouble();
    pts.Add(p);
    Entry e;
    e.rect = HyperRect::FromPoint(p.data(), p.size());
    e.id = i;
    entries.push_back(e);
  }

  PageFile bf(1024), inf(1024);
  BufferPool bpool(&bf, 8192), ipool(&inf, 8192);
  TreeOptions opts;
  opts.dim = dim;
  RStarTree bulk(&bpool, opts);
  bulk.BulkLoad(entries, StrPartition);
  RStarTree incr(&ipool, opts);
  for (size_t i = 0; i < n; ++i) incr.Insert(entries[i].rect, i);

  EXPECT_EQ(bulk.size(), n);
  EXPECT_EQ(bulk.Validate(), "");
  for (int t = 0; t < 40; ++t) {
    std::vector<double> q(dim);
    for (auto& v : q) v = rng.NextDouble();
    auto a = bulk.KnnQuery(q.data(), 5).hits;
    auto b = incr.KnnQuery(q.data(), 5).hits;
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].dist_sq, b[i].dist_sq);
    }
  }
}

TEST(BulkLoadTest, SupportsSubsequentInsertsAndDeletes) {
  Rng rng(4);
  const size_t dim = 3;
  PageFile file(1024);
  BufferPool pool(&file, 4096);
  TreeOptions opts;
  opts.dim = dim;
  RStarTree tree(&pool, opts);
  std::vector<Entry> entries(500);
  std::vector<std::vector<double>> coords;
  for (size_t i = 0; i < 500; ++i) {
    std::vector<double> p = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()};
    coords.push_back(p);
    entries[i].rect = HyperRect::FromPoint(p.data(), p.size());
    entries[i].id = i;
  }
  tree.BulkLoad(entries, StrPartition);
  ASSERT_EQ(tree.Validate(), "");
  // Dynamic phase on a packed tree.
  for (size_t i = 500; i < 700; ++i) {
    std::vector<double> p = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()};
    coords.push_back(p);
    tree.Insert(HyperRect::FromPoint(p.data(), p.size()), i);
  }
  for (size_t i = 0; i < 200; i += 2) {
    ASSERT_TRUE(tree.Delete(HyperRect::FromPoint(coords[i].data(), 3), i));
  }
  ASSERT_EQ(tree.Validate(), "");
  EXPECT_EQ(tree.size(), 600u);
}

TEST(BulkLoadTest, EmptyLoadIsNoop) {
  PageFile file(1024);
  BufferPool pool(&file, 64);
  TreeOptions opts;
  opts.dim = 2;
  RStarTree tree(&pool, opts);
  tree.BulkLoad({}, StrPartition);
  EXPECT_EQ(tree.size(), 0u);
  double q[2] = {0.5, 0.5};
  EXPECT_TRUE(tree.KnnQuery(q, 1).hits.empty());
}

TEST(BulkLoadTest, PackedTreeHasHighFill) {
  Rng rng(5);
  const size_t dim = 2;
  PageFile ifile(1024), bfile(1024);
  BufferPool ipool(&ifile, 8192), bpool(&bfile, 8192);
  TreeOptions opts;
  opts.dim = dim;
  RStarTree incr(&ipool, opts);
  RStarTree bulk(&bpool, opts);
  std::vector<Entry> entries(4000);
  for (size_t i = 0; i < entries.size(); ++i) {
    double x = rng.NextDouble(), y = rng.NextDouble();
    entries[i].rect = HyperRect({x, y}, {x, y});
    entries[i].id = i;
    incr.Insert(entries[i].rect, i);
  }
  bulk.BulkLoad(entries, StrPartition);
  auto bi = bulk.Info();
  auto ii = incr.Info();
  EXPECT_LT(bi.num_leaves, ii.num_leaves);  // denser packing
}

// ---------- Split packer (the cell tree's BulkLoad) ----------

// Fat, overlapping boxes around uniform centers, clipped to the unit cube,
// the shape of NN-cell approximations.
std::vector<Entry> FatBoxes(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Entry> entries(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> lo(dim), hi(dim);
    for (size_t k = 0; k < dim; ++k) {
      const double center = rng.NextDouble();
      const double half = 0.3 * rng.NextDouble();
      lo[k] = std::max(0.0, center - half);
      hi[k] = std::min(1.0, center + half);
    }
    entries[i].rect = HyperRect(lo, hi);
    entries[i].id = i;
  }
  return entries;
}

TEST(BulkLoadTest, SplitPartitionGroupsEveryEntryOnceAtRStarFill) {
  const size_t capacity = 16;
  // The minimum fill RTreeCore::Validate enforces on non-root nodes.
  const size_t min_fill = static_cast<size_t>(0.4 * capacity);
  EXPECT_TRUE(SplitPartition({}, capacity, 2).empty());
  for (size_t dim : {2u, 4u, 8u}) {
    for (size_t n : {1u, 16u, 17u, 33u, 100u, 257u, 1000u}) {
      SCOPED_TRACE(::testing::Message() << "dim " << dim << " n " << n);
      const std::vector<Entry> entries = FatBoxes(n, dim, 7 + n);
      const auto groups = SplitPartition(entries, capacity, dim);
      EXPECT_EQ(groups.size(), (n + capacity - 1) / capacity);
      std::vector<int> seen(n, 0);
      for (const auto& g : groups) {
        EXPECT_LE(g.size(), capacity);
        if (groups.size() > 1) {
          EXPECT_GE(g.size(), min_fill);
        }
        for (const Entry& e : g) {
          ASSERT_LT(e.id, n);
          ++seen[e.id];
          EXPECT_EQ(e.rect, entries[e.id].rect);
        }
      }
      EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
                static_cast<std::ptrdiff_t>(n))
          << "every entry in exactly one group";

      const auto again = SplitPartition(entries, capacity, dim);
      ASSERT_EQ(again.size(), groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        ASSERT_EQ(again[g].size(), groups[g].size());
        for (size_t i = 0; i < groups[g].size(); ++i) {
          EXPECT_EQ(again[g][i].id, groups[g][i].id) << "group " << g;
        }
      }
    }
  }
}

// Brute force over the live entries: the ids whose rectangle meets `box`,
// ascending.
std::vector<uint64_t> MeetingIds(const std::vector<Entry>& live,
                                 const HyperRect& box) {
  std::vector<uint64_t> ids;
  for (const Entry& e : live) {
    if (RawIntersects(e.rect.lo(), e.rect.hi(), box.lo(), box.hi(),
                      box.dim())) {
      ids.push_back(e.id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(BulkLoadTest, PackedXTreeValidatesAndAnswersAfterWrites) {
  const size_t dim = 4;
  PageFile file(1024);
  BufferPool pool(&file, 4096);
  TreeOptions opts;
  opts.dim = dim;
  XTree tree(&pool, opts);
  std::vector<Entry> live = FatBoxes(1000, dim, 41);
  tree.BulkLoad(live, SplitPartition);
  ASSERT_EQ(tree.Validate(), "");
  EXPECT_EQ(tree.size(), live.size());
  EXPECT_GT(tree.height(), 2u);

  // 100 inserts, then 100 deletes, through the regular write path.
  std::vector<Entry> extra = FatBoxes(100, dim, 43);
  for (Entry& e : extra) {
    e.id += live.size();
    tree.Insert(e.rect, e.id);
    live.push_back(e);
  }
  for (size_t i = 0; i < 100; ++i) {
    const Entry& gone = live[i];
    ASSERT_TRUE(tree.Delete(gone.rect, gone.id)) << gone.id;
  }
  live.erase(live.begin(), live.begin() + 100);
  ASSERT_EQ(tree.Validate(), "");
  EXPECT_EQ(tree.size(), 1000u);

  Rng rng(47);
  for (int t = 0; t < 50; ++t) {
    std::vector<double> q(dim);
    for (double& v : q) v = rng.NextDouble();
    std::vector<uint64_t> got = tree.PointQuery(q.data());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, MeetingIds(live, HyperRect::FromPoint(q.data(), dim)));

    std::vector<double> lo(dim), hi(dim);
    for (size_t k = 0; k < dim; ++k) {
      lo[k] = q[k] - 0.05;
      hi[k] = q[k] + 0.05;
    }
    const HyperRect box(lo, hi);
    got = tree.RangeQueryIds(box);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, MeetingIds(live, box));

    std::vector<std::pair<double, uint64_t>> all;
    for (const Entry& e : live) {
      all.emplace_back(RawMinDistSq(e.rect.lo(), e.rect.hi(), q.data(), dim),
                       e.id);
    }
    std::sort(all.begin(), all.end());
    const auto hits = tree.KnnQuery(q.data(), 5).hits;
    ASSERT_EQ(hits.size(), 5u);
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].id, all[i].second) << "rank " << i;
      EXPECT_EQ(hits[i].dist_sq, all[i].first) << "rank " << i;
    }
  }
}

// ---------- NN-cell k-NN extension ----------

struct KnnFixture {
  KnnFixture(size_t dim, const PointSet& pts,
             ApproxAlgorithm alg = ApproxAlgorithm::kSphere)
      : file(2048), pool(&file, 16384) {
    NNCellOptions opts;
    opts.algorithm = alg;
    index = std::make_unique<NNCellIndex>(&pool, dim, opts);
    EXPECT_TRUE(index->BulkBuild(pts).ok());
  }
  PageFile file;
  BufferPool pool;
  std::unique_ptr<NNCellIndex> index;
};

std::vector<double> BruteKnnDists(const PointSet& pts, const double* q,
                                  size_t k) {
  std::vector<double> d;
  for (size_t i = 0; i < pts.size(); ++i) {
    d.push_back(L2Dist(pts[i], q, pts.dim()));
  }
  std::sort(d.begin(), d.end());
  d.resize(std::min(k, d.size()));
  return d;
}

class NNCellKnnTest : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(NNCellKnnTest, MatchesBruteForce) {
  const size_t dim = std::get<0>(GetParam());
  const size_t k = std::get<1>(GetParam());
  PointSet pts = GenerateUniform(200, dim, 31 + dim);
  KnnFixture fx(dim, pts);
  PointSet queries = GenerateQueries(50, dim, 77);
  for (size_t t = 0; t < queries.size(); ++t) {
    auto r = fx.index->KnnQuery(queries[t], k);
    ASSERT_TRUE(r.ok());
    auto expected = BruteKnnDists(pts, queries[t], k);
    ASSERT_EQ(r->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR((*r)[i].dist, expected[i], 1e-9)
          << "query " << t << " i " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NNCellKnnTest,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(1, 3, 10, 25)));

TEST(NNCellKnnTest, KLargerThanN) {
  PointSet pts = GenerateUniform(7, 3, 3);
  KnnFixture fx(3, pts);
  auto r = fx.index->KnnQuery(std::vector<double>{0.5, 0.5, 0.5}.data(), 50);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 7u);
}

TEST(NNCellKnnTest, KZero) {
  PointSet pts = GenerateUniform(10, 2, 4);
  KnnFixture fx(2, pts);
  auto r = fx.index->KnnQuery(std::vector<double>{0.5, 0.5}.data(), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(NNCellKnnTest, EmptyIndexFails) {
  PageFile file(2048);
  BufferPool pool(&file, 64);
  NNCellIndex index(&pool, 2, NNCellOptions{});
  auto r = index.KnnQuery(std::vector<double>{0.5, 0.5}.data(), 3);
  EXPECT_FALSE(r.ok());
}

TEST(NNCellKnnTest, QueryAtDataPoint) {
  PointSet pts = GenerateUniform(100, 3, 5);
  KnnFixture fx(3, pts);
  auto r = fx.index->KnnQuery(pts[17], 5);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 5u);
  EXPECT_EQ((*r)[0].id, 17u);
  EXPECT_NEAR((*r)[0].dist, 0.0, 1e-12);
  for (size_t i = 1; i < r->size(); ++i) {
    EXPECT_GE((*r)[i].dist, (*r)[i - 1].dist);
  }
}

TEST(NNCellKnnTest, ClusteredDataAllStrategies) {
  PointSet pts = GenerateClusters(150, 4, 3, 0.06, 9);
  for (ApproxAlgorithm alg :
       {ApproxAlgorithm::kCorrect, ApproxAlgorithm::kPoint,
        ApproxAlgorithm::kSphere, ApproxAlgorithm::kNNDirection}) {
    KnnFixture fx(4, pts, alg);
    const PointSet& actual = fx.index->points();
    PointSet queries = GenerateQueries(25, 4, 10);
    for (size_t t = 0; t < queries.size(); ++t) {
      auto r = fx.index->KnnQuery(queries[t], 8);
      ASSERT_TRUE(r.ok());
      auto expected = BruteKnnDists(actual, queries[t], 8);
      ASSERT_EQ(r->size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR((*r)[i].dist, expected[i], 1e-9)
            << ApproxAlgorithmName(alg);
      }
    }
  }
}

TEST(NNCellKnnTest, WorksAfterDynamicInserts) {
  PointSet pts = GenerateUniform(80, 3, 11);
  KnnFixture fx(3, pts);
  PointSet extra = GenerateUniform(40, 3, 12);
  PointSet all(3);
  for (size_t i = 0; i < pts.size(); ++i) all.Add(pts.Get(i));
  for (size_t i = 0; i < extra.size(); ++i) {
    if (fx.index->Insert(extra.Get(i)).ok()) all.Add(extra.Get(i));
  }
  PointSet queries = GenerateQueries(30, 3, 13);
  for (size_t t = 0; t < queries.size(); ++t) {
    auto r = fx.index->KnnQuery(queries[t], 6);
    ASSERT_TRUE(r.ok());
    auto expected = BruteKnnDists(all, queries[t], 6);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR((*r)[i].dist, expected[i], 1e-9);
    }
  }
}

}  // namespace
}  // namespace nncell
