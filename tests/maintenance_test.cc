// Tests for witness-certified dynamic maintenance: a cell whose stored face
// optima survive a write keeps its MBR without LP solves, so under the
// kCorrect strategy every cell must still equal a full recompute; a cell
// that only shrank is overwritten in its cell-tree leaf; witnesses are
// runtime-only, so a reopened index starts without them; and duplicates
// are found without a lookup table.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "geom/cell_approximator.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

// Largest |difference| between every live cell's stored MBR and the MBR a
// full recompute over all other live points gives (kCorrect).
double MaxErrorAgainstFullRecompute(const NNCellIndex& index) {
  const size_t dim = index.dim();
  CellApproximator full(dim, HyperRect::UnitCube(dim));
  double worst = 0.0;
  for (uint64_t id = 0; id < index.points().size(); ++id) {
    if (!index.IsAlive(id)) continue;
    std::vector<const double*> rows;
    for (uint64_t j = 0; j < index.points().size(); ++j) {
      if (j != id && index.IsAlive(j)) rows.push_back(index.points()[j]);
    }
    const HyperRect want = full.ApproximateMbr(index.points()[id], rows);
    const std::vector<HyperRect> have = index.CellRects(id);
    EXPECT_EQ(have.size(), 1u);
    for (size_t k = 0; k < dim; ++k) {
      worst = std::max(worst, std::abs(have[0].lo(k) - want.lo(k)));
      worst = std::max(worst, std::abs(have[0].hi(k) - want.hi(k)));
    }
  }
  return worst;
}

class MaintenanceEquivalenceTest : public ::testing::TestWithParam<size_t> {};

// A seeded sequence of inserts and deletes: after every operation every
// cell matches a full recompute, while most affected cells were certified
// instead of recomputed.
TEST_P(MaintenanceEquivalenceTest, EveryCellMatchesFullRecompute) {
  const size_t dim = GetParam();
  PageFile file(4096);
  BufferPool pool(&file, 4096);
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kCorrect;
  NNCellIndex index(&pool, dim, opts);
  ASSERT_TRUE(index.BulkBuild(GenerateUniform(48, dim, 3 + dim)).ok());
  PointSet inserts = GenerateUniform(40, dim, 100 + dim);
  Rng rng(dim);
  double worst = 0.0;
  for (size_t i = 0; i < inserts.size(); ++i) {
    ASSERT_TRUE(index.Insert(inserts.Get(i)).ok()) << "insert " << i;
    worst = std::max(worst, MaxErrorAgainstFullRecompute(index));
    if (i % 3 == 2) {
      uint64_t victim;
      do {
        victim = rng.NextU64() % index.points().size();
      } while (!index.IsAlive(victim));
      ASSERT_TRUE(index.Delete(victim).ok()) << "delete after " << i;
      worst = std::max(worst, MaxErrorAgainstFullRecompute(index));
    }
  }
  EXPECT_LE(worst, 1e-12);
  const NNCellBuildStats& stats = index.build_stats();
  EXPECT_GT(stats.cells_certified, 0u);
  EXPECT_GT(stats.cells_recomputed, 0u);
  Status inv = index.CheckInvariants(50);
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

INSTANTIATE_TEST_SUITE_P(Dims, MaintenanceEquivalenceTest,
                         ::testing::Values(size_t{2}, size_t{3}, size_t{5}));

// Shrunk cells stay in their leaf: the tree still validates (directory
// rectangles are tight) and matches the bookkeeping.
TEST(MaintenanceTest, ShrunkCellsUpdateInPlace) {
  PageFile file(2048);
  BufferPool pool(&file, 4096);
  NNCellIndex index(&pool, 3, NNCellOptions());
  ASSERT_TRUE(index.BulkBuild(GenerateUniform(300, 3, 5)).ok());
  PointSet inserts = GenerateUniform(60, 3, 6);
  for (size_t i = 0; i < inserts.size(); ++i) {
    ASSERT_TRUE(index.Insert(inserts.Get(i)).ok());
  }
  const NNCellBuildStats& stats = index.build_stats();
  EXPECT_GT(stats.cells_updated_in_place, 0u);
  EXPECT_LE(stats.cells_updated_in_place, stats.cells_rewritten);
  EXPECT_EQ(index.ValidateTree(), "");
  Status inv = index.CheckInvariants(100);
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

// Decomposed cells carry no witness, so every affected cell recomputes.
TEST(MaintenanceTest, DecomposedCellsAreNeverCertified) {
  PageFile file(4096);
  BufferPool pool(&file, 4096);
  NNCellOptions opts;
  opts.decomposition.max_partitions = 4;
  NNCellIndex index(&pool, 3, opts);
  ASSERT_TRUE(index.BulkBuild(GenerateUniform(120, 3, 7)).ok());
  PointSet inserts = GenerateUniform(20, 3, 8);
  for (size_t i = 0; i < inserts.size(); ++i) {
    ASSERT_TRUE(index.Insert(inserts.Get(i)).ok());
  }
  ASSERT_TRUE(index.Delete(3).ok());
  EXPECT_EQ(index.build_stats().cells_certified, 0u);
  EXPECT_GT(index.build_stats().cells_recomputed, 0u);
  Status inv = index.CheckInvariants(50);
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

// Without the lookup table: a fresh bulk build keeps first occurrences
// (-0.0 equals +0.0), and Insert finds duplicates through the point tree
// until the original is deleted.
TEST(MaintenanceTest, DuplicatesFoundWithoutLookupTable) {
  PageFile file(2048);
  BufferPool pool(&file, 1024);
  NNCellIndex index(&pool, 2, NNCellOptions());
  PointSet batch(2);
  batch.Add(std::vector<double>{0.25, 0.5});
  batch.Add(std::vector<double>{0.0, 0.75});
  batch.Add(std::vector<double>{0.25, 0.5});
  batch.Add(std::vector<double>{0.9, 0.1});
  batch.Add(std::vector<double>{-0.0, 0.75});
  batch.Add(std::vector<double>{0.6, 0.6});
  ASSERT_TRUE(index.BulkBuild(batch).ok());
  ASSERT_EQ(index.size(), 4u);
  EXPECT_EQ(index.OriginalPoint(0), (std::vector<double>{0.25, 0.5}));
  EXPECT_EQ(index.OriginalPoint(1), (std::vector<double>{0.0, 0.75}));
  EXPECT_EQ(index.OriginalPoint(2), (std::vector<double>{0.9, 0.1}));
  EXPECT_EQ(index.OriginalPoint(3), (std::vector<double>{0.6, 0.6}));
  EXPECT_FALSE(std::signbit(index.OriginalPoint(1)[0]));

  EXPECT_EQ(index.Insert({0.9, 0.1}).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(index.Insert({-0.0, 0.75}).status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(index.Delete(2).ok());
  StatusOr<uint64_t> again = index.Insert({0.9, 0.1});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, 4u);

  // A second batch into the same index goes through the point tree.
  PointSet more(2);
  more.Add(std::vector<double>{0.6, 0.6});
  more.Add(std::vector<double>{0.3, 0.3});
  ASSERT_TRUE(index.BulkBuild(more).ok());
  EXPECT_EQ(index.size(), 5u);
  Status inv = index.CheckInvariants(50);
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

// --- Restart and replay ------------------------------------------------------

class MaintenanceRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "maintenance_restart_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + "_copy");
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + "_copy");
  }

  std::string dir_;
};

// Exact answers (ids and distance bits) of both indexes on a fixed battery.
void ExpectSameAnswers(const NNCellIndex& a, const NNCellIndex& b) {
  PointSet queries = GenerateUniform(200, a.dim(), 77);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto ra = a.Query(queries[i]);
    auto rb = b.Query(queries[i]);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(ra->id, rb->id) << "query " << i;
    uint64_t da, db;
    std::memcpy(&da, &ra->dist, sizeof(da));
    std::memcpy(&db, &rb->dist, sizeof(db));
    EXPECT_EQ(da, db) << "query " << i;
  }
}

// Witnesses are not persisted: the reopened index answers exactly like the
// one that kept running, and its first write certifies nothing.
TEST_F(MaintenanceRestartTest, ReopenStartsWithoutWitnesses) {
  constexpr size_t kDim = 4;
  PointSet inserts = GenerateUniform(40, kDim, 12);
  auto live = NNCellIndex::Open(dir_, kDim, NNCellOptions());
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_TRUE((*live)->BulkBuild(GenerateUniform(300, kDim, 11)).ok());
  for (size_t i = 0; i + 1 < inserts.size(); ++i) {
    ASSERT_TRUE((*live)->Insert(inserts.Get(i)).ok());
    if (i % 4 == 3) {
      ASSERT_TRUE((*live)->Delete(i * 7).ok());
    }
  }
  EXPECT_GT((*live)->build_stats().cells_certified, 0u);
  ASSERT_TRUE((*live)->Checkpoint().ok());
  std::filesystem::copy(dir_, dir_ + "_copy",
                        std::filesystem::copy_options::recursive);

  auto reopened = NNCellIndex::Open(dir_ + "_copy", kDim, NNCellOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectSameAnswers(**live, **reopened);

  const std::vector<double> last = inserts.Get(inserts.size() - 1);
  const size_t live_before = (*live)->build_stats().cells_certified;
  ASSERT_TRUE((*live)->Insert(last).ok());
  ASSERT_TRUE((*reopened)->Insert(last).ok());
  EXPECT_GT((*live)->build_stats().cells_certified, live_before);
  EXPECT_EQ((*reopened)->build_stats().cells_certified, 0u);
  EXPECT_GT((*reopened)->build_stats().cells_recomputed, 0u);
  ExpectSameAnswers(**live, **reopened);
  Status inv = (*reopened)->CheckInvariants(50);
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

// WAL replay starts from the same witness-free snapshot as the index that
// wrote the log, so it makes the same certify / recompute decisions.
TEST_F(MaintenanceRestartTest, ReplayMakesTheSameDecisions) {
  constexpr size_t kDim = 3;
  PointSet inserts = GenerateUniform(50, kDim, 14);
  NNCellBuildStats live_stats;
  {
    auto live = NNCellIndex::Open(dir_, kDim, NNCellOptions());
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ASSERT_TRUE((*live)->BulkBuild(GenerateUniform(200, kDim, 13)).ok());
    for (size_t i = 0; i < inserts.size(); ++i) {
      ASSERT_TRUE((*live)->Insert(inserts.Get(i)).ok());
      if (i % 5 == 4) {
        ASSERT_TRUE((*live)->Delete(i * 3).ok());
      }
    }
    live_stats = (*live)->build_stats();
    std::filesystem::copy(dir_, dir_ + "_copy",
                          std::filesystem::copy_options::recursive);
  }
  NNCellIndex::RecoveryInfo info;
  auto replayed =
      NNCellIndex::Open(dir_ + "_copy", kDim, NNCellOptions(),
                        NNCellIndex::DurableOptions(), &info);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(info.wal_records_replayed, inserts.size() + inserts.size() / 5);
  const NNCellBuildStats& stats = (*replayed)->build_stats();
  EXPECT_GT(stats.cells_certified, 0u);
  EXPECT_EQ(stats.cells_certified, live_stats.cells_certified);
  EXPECT_EQ(stats.cells_recomputed, live_stats.cells_recomputed);
  EXPECT_EQ(stats.cells_updated_in_place, live_stats.cells_updated_in_place);
  Status inv = (*replayed)->CheckInvariants(50);
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

}  // namespace
}  // namespace nncell
