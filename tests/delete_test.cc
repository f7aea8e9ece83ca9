// Tests for NN-cell index deletions (the paper defers the dynamic-delete
// case to Roos' algorithms; we implement a recompute-the-neighbors
// variant and verify exactness throughout).

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/rng.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/durable_format.h"
#include "storage/fs_util.h"
#include "storage/page_file.h"
#include "test_printers.h"

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
  fx.index->SetExactPlan(ExactPlan::kCellProbe);  // query the cells
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

// --- Maintenance content pin -----------------------------------------------
//
// A fixed dynamic workload in d=4: 400 bulk-built uniform points, then 100
// inserts with a delete of an original point after every fourth (25
// deletes). Maintenance keeps the affected cells whose witness survives
// each write (kMaintCertified of them over the sequence) and recomputes
// the rest. Under the default Sphere strategy a recompute's candidate set
// drifts with N, so a kept cell can differ from what a full recompute
// would give (within Lemma 1); the pin is of witness-certified
// maintenance. The insert stream (seed 8) has cells whose recomputed
// bounds differ from the stored ones only in the sign of a zero, so
// comparing rectangles with operator== instead of bit-wise changes the
// fingerprint.
constexpr size_t kMaintDim = 4;
constexpr size_t kMaintBase = 400;
constexpr size_t kMaintInserts = 100;
constexpr uint64_t kMaintFingerprint = 0x9074a7eb3bb77a5bull;
constexpr size_t kMaintCertified = 11603;

void RunMaintenanceSequence(NNCellIndex* index) {
  ASSERT_TRUE(
      index->BulkBuild(GenerateUniform(kMaintBase, kMaintDim, 21)).ok());
  PointSet inserts = GenerateUniform(kMaintInserts, kMaintDim, 8);
  for (size_t i = 0; i < kMaintInserts; ++i) {
    ASSERT_TRUE(index->Insert(inserts.Get(i)).ok()) << "insert " << i;
    if (i % 4 == 3) {
      ASSERT_TRUE(index->Delete((i * 53) % kMaintBase).ok()) << "delete " << i;
    }
  }
}

// FNV-1a over the bit patterns of every live cell's rectangles in id order,
// so a sign-of-zero difference changes it.
uint64_t CellRectFingerprint(const NNCellIndex& index) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const double* values, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t bits;
      std::memcpy(&bits, &values[i], sizeof(bits));
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  };
  for (uint64_t id = 0; id < index.points().size(); ++id) {
    if (!index.IsAlive(id)) continue;
    for (const HyperRect& rect : index.CellRects(id)) {
      mix(rect.lo(), 2 * rect.dim());  // lo, then hi
    }
  }
  return h;
}

TEST(DeleteTest, MaintenanceFingerprintPinned) {
  PageFile file(4096);
  BufferPool pool(&file, 4096);
  NNCellIndex index(&pool, kMaintDim, NNCellOptions());
  RunMaintenanceSequence(&index);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(CellRectFingerprint(index), kMaintFingerprint);
  const NNCellBuildStats& stats = index.build_stats();
  EXPECT_EQ(stats.cells_certified, kMaintCertified);
  EXPECT_GT(stats.cells_rewritten, 0u);
  EXPECT_LT(stats.cells_rewritten, stats.cells_recomputed);
  Status inv = index.CheckInvariants(50);
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

TEST(DeleteTest, MaintenanceReplayReproducesIndex) {
  const std::string dir = ::testing::TempDir() + "delete_test_replay";
  const std::string copy = dir + "_copy";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(copy);
  const std::string snapshot =
      "/" + std::string(durable::kSnapshotFileName);
  {
    auto live = NNCellIndex::Open(dir, kMaintDim, NNCellOptions());
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    RunMaintenanceSequence(live->get());
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_EQ(CellRectFingerprint(**live), kMaintFingerprint);
    // Freeze the directory before the live index folds its log, so the
    // copy can only reach the same state by WAL replay.
    std::filesystem::copy(dir, copy,
                          std::filesystem::copy_options::recursive);
    ASSERT_TRUE((*live)->Checkpoint().ok());
  }
  NNCellIndex::RecoveryInfo info;
  auto replayed = NNCellIndex::Open(copy, kMaintDim, NNCellOptions(),
                                    NNCellIndex::DurableOptions(), &info);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(info.wal_records_replayed, kMaintInserts + kMaintInserts / 4);
  EXPECT_EQ(CellRectFingerprint(**replayed), kMaintFingerprint);
  ASSERT_TRUE((*replayed)->Checkpoint().ok());
  auto live_image = fs::ReadFileToString(dir + snapshot);
  auto replayed_image = fs::ReadFileToString(copy + snapshot);
  ASSERT_TRUE(live_image.ok() && replayed_image.ok());
  EXPECT_TRUE(*live_image == *replayed_image)
      << "snapshot after replay differs from the live index's";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(copy);
}

}  // namespace
}  // namespace nncell
