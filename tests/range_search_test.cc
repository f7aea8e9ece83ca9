// Similarity range queries on the NN-cell index: exact point-in-ball
// retrieval via the cell approximations.

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/rng.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

struct Fixture {
  Fixture(size_t dim, NNCellOptions opts = NNCellOptions())
      : file(2048), pool(&file, 16384) {
    index = std::make_unique<NNCellIndex>(&pool, dim, opts);
  }
  PageFile file;
  BufferPool pool;
  std::unique_ptr<NNCellIndex> index;
};

class RangeSearchTest : public ::testing::TestWithParam<double> {};

TEST_P(RangeSearchTest, MatchesBruteForce) {
  const double radius = GetParam();
  const size_t dim = 4;
  Fixture fx(dim);
  PointSet pts = GenerateUniform(250, dim, 17);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  Rng rng(18);
  for (int t = 0; t < 40; ++t) {
    std::vector<double> q(dim);
    for (auto& v : q) v = rng.NextDouble();
    auto r = fx.index->RangeSearch(q.data(), radius);
    ASSERT_TRUE(r.ok());
    std::set<uint64_t> got;
    for (const auto& hit : *r) {
      got.insert(hit.id);
      EXPECT_LE(hit.dist, radius + 1e-12);
    }
    std::set<uint64_t> expected;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (L2Dist(pts[i], q.data(), dim) <= radius) expected.insert(i);
    }
    EXPECT_EQ(got, expected) << "radius " << radius << " query " << t;
    // Ascending order.
    for (size_t i = 1; i < r->size(); ++i) {
      EXPECT_LE((*r)[i - 1].dist, (*r)[i].dist);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, RangeSearchTest,
                         ::testing::Values(0.05, 0.15, 0.3, 0.6, 1.5));

TEST(RangeSearchTest, ZeroRadiusFindsExactMatchesOnly) {
  Fixture fx(2);
  PointSet pts = GenerateUniform(50, 2, 19);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  auto on_point = fx.index->RangeSearch(pts[13], 0.0);
  ASSERT_TRUE(on_point.ok());
  ASSERT_EQ(on_point->size(), 1u);
  EXPECT_EQ((*on_point)[0].id, 13u);
  const double off[] = {0.123456789, 0.987654321};
  auto off_point = fx.index->RangeSearch(off, 0.0);
  ASSERT_TRUE(off_point.ok());
  EXPECT_TRUE(off_point->empty());
}

TEST(RangeSearchTest, NegativeRadiusRejected) {
  Fixture fx(2);
  ASSERT_TRUE(fx.index->BulkBuild(GenerateUniform(10, 2, 20)).ok());
  auto r = fx.index->RangeSearch(std::vector<double>{0.5, 0.5}.data(), -0.1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(RangeSearchTest, HugeRadiusReturnsEverything) {
  Fixture fx(3);
  ASSERT_TRUE(fx.index->BulkBuild(GenerateUniform(60, 3, 21)).ok());
  const double center[] = {0.5, 0.5, 0.5};
  auto r = fx.index->RangeSearch(center, 10.0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 60u);
}

TEST(RangeSearchTest, RespectsDeletions) {
  Fixture fx(2);
  PointSet pts = GenerateUniform(40, 2, 22);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  ASSERT_TRUE(fx.index->Delete(7).ok());
  auto r = fx.index->RangeSearch(pts[7], 0.5);
  ASSERT_TRUE(r.ok());
  for (const auto& hit : *r) EXPECT_NE(hit.id, 7u);
}

TEST(RangeSearchTest, WeightedMetricRange) {
  NNCellOptions opts;
  opts.weights = {9.0, 1.0};
  Fixture fx(2, opts);
  PointSet pts(2);
  pts.Add({0.5, 0.5});
  pts.Add({0.6, 0.5});  // d_W = 3 * 0.1 = 0.3
  pts.Add({0.5, 0.6});  // d_W = 1 * 0.1 = 0.1
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  auto r = fx.index->RangeSearch(std::vector<double>{0.5, 0.5}.data(), 0.2);
  ASSERT_TRUE(r.ok());
  std::set<uint64_t> got;
  for (const auto& hit : *r) got.insert(hit.id);
  EXPECT_EQ(got, (std::set<uint64_t>{0, 2}));  // point 1 outside d_W ball
}

TEST(RangeSearchTest, DecompositionStillExact) {
  NNCellOptions opts;
  opts.decomposition.max_partitions = 6;
  Fixture fx(3, opts);
  PointSet pts = GenerateClusters(120, 3, 3, 0.07, 23);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  const PointSet& actual = fx.index->points();
  Rng rng(24);
  for (int t = 0; t < 25; ++t) {
    std::vector<double> q = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()};
    auto r = fx.index->RangeSearch(q.data(), 0.25);
    ASSERT_TRUE(r.ok());
    std::set<uint64_t> got;
    for (const auto& hit : *r) got.insert(hit.id);
    std::set<uint64_t> expected;
    for (size_t i = 0; i < actual.size(); ++i) {
      if (L2Dist(actual[i], q.data(), 3) <= 0.25) expected.insert(i);
    }
    EXPECT_EQ(got, expected);
  }
}

}  // namespace
}  // namespace nncell
