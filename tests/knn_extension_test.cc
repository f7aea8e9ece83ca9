// Tests for the k-NN extension of the NN-cell index (the paper's stated
// future work) and for the STR bulk loader it leans on.

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
    e.rect = HyperRect::FromPoint(p);
    e.id = i;
    entries.push_back(e);
  }

  PageFile bf(1024), inf(1024);
  BufferPool bpool(&bf, 8192), ipool(&inf, 8192);
  TreeOptions opts;
  opts.dim = dim;
  RStarTree bulk(&bpool, opts);
  bulk.BulkLoad(entries);
  RStarTree incr(&ipool, opts);
  for (size_t i = 0; i < n; ++i) incr.Insert(entries[i].rect, i);

  EXPECT_EQ(bulk.size(), n);
  EXPECT_EQ(bulk.Validate(), "");
  for (int t = 0; t < 40; ++t) {
    std::vector<double> q(dim);
    for (auto& v : q) v = rng.NextDouble();
    auto a = bulk.KnnQuery(q.data(), 5);
    auto b = incr.KnnQuery(q.data(), 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i].dist, b[i].dist, 1e-12);
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
    entries[i].rect = HyperRect::FromPoint(p);
    entries[i].id = i;
  }
  tree.BulkLoad(entries);
  ASSERT_EQ(tree.Validate(), "");
  // Dynamic phase on a packed tree.
  for (size_t i = 500; i < 700; ++i) {
    std::vector<double> p = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()};
    coords.push_back(p);
    tree.Insert(HyperRect::FromPoint(p), i);
  }
  for (size_t i = 0; i < 200; i += 2) {
    ASSERT_TRUE(tree.Delete(HyperRect::FromPoint(coords[i]), i));
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
  tree.BulkLoad({});
  EXPECT_EQ(tree.size(), 0u);
  double q[2] = {0.5, 0.5};
  EXPECT_TRUE(tree.KnnQuery(q, 1).empty());
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
  bulk.BulkLoad(entries);
  auto bi = bulk.Info();
  auto ii = incr.Info();
  EXPECT_LT(bi.num_leaves, ii.num_leaves);  // denser packing
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
