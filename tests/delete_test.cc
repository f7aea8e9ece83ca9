// Tests for NN-cell index deletions (the paper defers the dynamic-delete
// case to Roos' algorithms; we implement a recompute-the-neighbors
// variant and verify exactness throughout).

#include <memory>
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
  Fixture(size_t dim, ApproxAlgorithm alg = ApproxAlgorithm::kCorrect)
      : file(2048), pool(&file, 16384) {
    NNCellOptions opts;
    opts.algorithm = alg;
    index = std::make_unique<NNCellIndex>(&pool, dim, opts);
  }
  PageFile file;
  BufferPool pool;
  std::unique_ptr<NNCellIndex> index;
};

// Oracle: NN among live points only.
double BruteNNDist(const NNCellIndex& index, const double* q) {
  double best = 1e300;
  for (uint64_t i = 0; i < index.points().size(); ++i) {
    if (!index.IsAlive(i)) continue;
    best = std::min(best, L2DistSq(index.points()[i], q, index.dim()));
  }
  return std::sqrt(best);
}

TEST(DeleteTest, BasicDeleteThenQuery) {
  Fixture fx(2);
  ASSERT_TRUE(fx.index->BulkBuild(GenerateUniform(30, 2, 1)).ok());
  ASSERT_EQ(fx.index->size(), 30u);
  ASSERT_TRUE(fx.index->Delete(5).ok());
  EXPECT_EQ(fx.index->size(), 29u);
  EXPECT_FALSE(fx.index->IsAlive(5));
  EXPECT_TRUE(fx.index->IsAlive(6));
  // Querying the deleted point's location finds someone else, exactly.
  std::vector<double> q = fx.index->points().Get(5);
  auto r = fx.index->Query(q.data());
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->id, 5u);
  EXPECT_NEAR(r->dist, BruteNNDist(*fx.index, q.data()), 1e-9);
}

TEST(DeleteTest, DeleteMissingFails) {
  Fixture fx(2);
  ASSERT_TRUE(fx.index->BulkBuild(GenerateUniform(10, 2, 2)).ok());
  EXPECT_EQ(fx.index->Delete(99).code(), StatusCode::kNotFound);
  ASSERT_TRUE(fx.index->Delete(3).ok());
  EXPECT_EQ(fx.index->Delete(3).code(), StatusCode::kNotFound);
}

class DeleteStrategyTest : public ::testing::TestWithParam<ApproxAlgorithm> {};

TEST_P(DeleteStrategyTest, QueriesExactUnderChurn) {
  const size_t dim = 3;
  Fixture fx(dim, GetParam());
  Rng rng(42);
  PointSet pts = GenerateUniform(120, dim, 7);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());

  // Interleave deletes, inserts and queries.
  std::vector<uint64_t> live;
  for (uint64_t i = 0; i < 120; ++i) live.push_back(i);
  for (int step = 0; step < 60; ++step) {
    if (step % 3 != 2 && !live.empty()) {
      size_t pick = rng.NextIndex(live.size());
      ASSERT_TRUE(fx.index->Delete(live[pick]).ok());
      live.erase(live.begin() + pick);
    } else {
      std::vector<double> p = {rng.NextDouble(), rng.NextDouble(),
                               rng.NextDouble()};
      auto id = fx.index->Insert(p);
      if (id.ok()) live.push_back(*id);
    }
    if (step % 5 == 4) {
      for (int t = 0; t < 5; ++t) {
        std::vector<double> q = {rng.NextDouble(), rng.NextDouble(),
                                 rng.NextDouble()};
        auto r = fx.index->Query(q.data());
        ASSERT_TRUE(r.ok());
        EXPECT_NEAR(r->dist, BruteNNDist(*fx.index, q.data()), 1e-9)
            << "step " << step << " " << ApproxAlgorithmName(GetParam());
      }
    }
  }
  EXPECT_EQ(fx.index->ValidateTree(), "");
  EXPECT_EQ(fx.index->size(), live.size());
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, DeleteStrategyTest,
    ::testing::Values(ApproxAlgorithm::kCorrect, ApproxAlgorithm::kPoint,
                      ApproxAlgorithm::kSphere,
                      ApproxAlgorithm::kNNDirection),
    [](const ::testing::TestParamInfo<ApproxAlgorithm>& info) {
      std::string name = ApproxAlgorithmName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(DeleteTest, DeleteAllButOne) {
  Fixture fx(2);
  ASSERT_TRUE(fx.index->BulkBuild(GenerateUniform(20, 2, 3)).ok());
  for (uint64_t i = 1; i < 20; ++i) ASSERT_TRUE(fx.index->Delete(i).ok());
  EXPECT_EQ(fx.index->size(), 1u);
  // The survivor owns the whole space again.
  auto r = fx.index->Query(std::vector<double>{0.99, 0.99}.data());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->id, 0u);
  // Its recomputed cell should cover everything.
  const auto& rects = fx.index->CellRects(0);
  ASSERT_FALSE(rects.empty());
  HyperRect un = rects[0];
  for (const auto& rect : rects) un.ExpandToRect(rect);
  EXPECT_TRUE(un.ContainsRect(HyperRect::UnitCube(2)));
}

TEST(DeleteTest, DeleteAllThenQueriesFail) {
  Fixture fx(2);
  ASSERT_TRUE(fx.index->BulkBuild(GenerateUniform(8, 2, 4)).ok());
  for (uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(fx.index->Delete(i).ok());
  EXPECT_EQ(fx.index->size(), 0u);
  auto r = fx.index->Query(std::vector<double>{0.5, 0.5}.data());
  EXPECT_FALSE(r.ok());
}

TEST(DeleteTest, ReinsertSameCoordinatesAfterDelete) {
  Fixture fx(2);
  ASSERT_TRUE(fx.index->BulkBuild(GenerateUniform(15, 2, 5)).ok());
  std::vector<double> coords = fx.index->points().Get(7);
  ASSERT_TRUE(fx.index->Delete(7).ok());
  auto id = fx.index->Insert(coords);
  ASSERT_TRUE(id.ok());
  EXPECT_NE(*id, 7u);  // ids are never reused
  auto r = fx.index->Query(coords.data());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->id, *id);
  EXPECT_NEAR(r->dist, 0.0, 1e-12);
}

TEST(DeleteTest, NeighborsGrowAfterDelete) {
  // Delete the center of a 3x3 grid: the neighbors' recomputed cells must
  // cover the vacated center region (no false dismissals there).
  Fixture fx(2);
  PointSet pts = GenerateGrid(3, 2, 0.0, 1);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  // Center point of the grid is at (0.5, 0.5).
  uint64_t center = 0;
  for (uint64_t i = 0; i < pts.size(); ++i) {
    if (std::abs(pts[i][0] - 0.5) < 1e-9 && std::abs(pts[i][1] - 0.5) < 1e-9) {
      center = i;
    }
  }
  ASSERT_TRUE(fx.index->Delete(center).ok());
  auto r = fx.index->Query(std::vector<double>{0.5, 0.5}.data());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->used_fallback);  // covered by recomputed neighbors
  EXPECT_NEAR(r->dist, 1.0 / 3.0, 1e-9);  // one grid step away
}

TEST(DeleteTest, KnnAfterDeletes) {
  Fixture fx(3);
  PointSet pts = GenerateUniform(80, 3, 6);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  for (uint64_t i = 0; i < 80; i += 4) ASSERT_TRUE(fx.index->Delete(i).ok());
  Rng rng(7);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()};
    auto r = fx.index->KnnQuery(q.data(), 5);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), 5u);
    // Compare against brute force over live points.
    std::vector<double> dists;
    for (uint64_t i = 0; i < pts.size(); ++i) {
      if (!fx.index->IsAlive(i)) continue;
      dists.push_back(L2Dist(fx.index->points()[i], q.data(), 3));
    }
    std::sort(dists.begin(), dists.end());
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_NEAR((*r)[i].dist, dists[i], 1e-9);
      EXPECT_TRUE(fx.index->IsAlive((*r)[i].id));
    }
  }
}

TEST(DeleteTest, StatsTrackDeletions) {
  Fixture fx(2);
  ASSERT_TRUE(fx.index->BulkBuild(GenerateUniform(25, 2, 8)).ok());
  ASSERT_TRUE(fx.index->Delete(0).ok());
  ASSERT_TRUE(fx.index->Delete(1).ok());
  EXPECT_EQ(fx.index->build_stats().deletions, 2u);
  EXPECT_GT(fx.index->build_stats().cells_recomputed, 0u);
}

}  // namespace
}  // namespace nncell
