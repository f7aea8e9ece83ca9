// End-to-end integration tests: all three index structures (NN-cell,
// R*-tree, X-tree) and the sequential scan answer the same NN queries over
// the same workloads, across data distributions, with consistent paging
// behaviour.

#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "rstar/rstar_tree.h"
#include "scan/sequential_scan.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "xtree/xtree.h"

namespace nncell {
namespace {

enum class Distribution { kUniform, kGrid, kClusters, kFourier, kSparse };

const char* DistributionLabel(Distribution dist) {
  static constexpr const char* kNames[] = {"Uniform", "Grid", "Clusters",
                                           "Fourier", "Sparse"};
  return kNames[static_cast<int>(dist)];
}

// gtest prints the parameter into the name ctest registers; without this
// an enum in a tuple prints as raw bytes.
void PrintTo(Distribution dist, std::ostream* os) {
  *os << DistributionLabel(dist);
}

PointSet MakeData(Distribution dist, size_t n, size_t dim, uint64_t seed) {
  switch (dist) {
    case Distribution::kUniform:
      return GenerateUniform(n, dim, seed);
    case Distribution::kGrid: {
      size_t per_side = 2;
      while (true) {
        size_t total = 1;
        for (size_t k = 0; k < dim; ++k) total *= (per_side + 1);
        if (total > n) break;
        ++per_side;
      }
      return GenerateGrid(per_side, dim, 0.3, seed);
    }
    case Distribution::kClusters:
      return GenerateClusters(n, dim, 5, 0.05, seed);
    case Distribution::kFourier:
      return GenerateFourier(n, dim, seed);
    case Distribution::kSparse:
      return GenerateSparse(std::min<size_t>(n, 40), dim, seed);
  }
  return PointSet(dim);
}

struct Stack {
  Stack(size_t dim, const PointSet& pts) {
    // NN-cell index.
    cell_file = std::make_unique<PageFile>(2048);
    cell_pool = std::make_unique<BufferPool>(cell_file.get(), 16384);
    NNCellOptions opts;
    opts.algorithm = ApproxAlgorithm::kSphere;
    nncell = std::make_unique<NNCellIndex>(cell_pool.get(), dim, opts);
    EXPECT_TRUE(nncell->BulkBuild(pts).ok());

    // Point trees.
    rstar_file = std::make_unique<PageFile>(2048);
    rstar_pool = std::make_unique<BufferPool>(rstar_file.get(), 16384);
    TreeOptions topts;
    topts.dim = dim;
    rstar = std::make_unique<RStarTree>(rstar_pool.get(), topts);
    xtree_file = std::make_unique<PageFile>(2048);
    xtree_pool = std::make_unique<BufferPool>(xtree_file.get(), 16384);
    xtree = std::make_unique<XTree>(xtree_pool.get(), topts);

    // Scan.
    scan_file = std::make_unique<PageFile>(2048);
    scan_pool = std::make_unique<BufferPool>(scan_file.get(), 64);
    scan = std::make_unique<SequentialScan>(scan_pool.get(), dim);

    const PointSet& actual = nncell->points();  // deduplicated set
    for (size_t i = 0; i < actual.size(); ++i) {
      rstar->Insert(HyperRect::FromPoint(actual[i], dim), i);
      xtree->Insert(HyperRect::FromPoint(actual[i], dim), i);
      scan->Insert(actual[i], i);
    }
  }

  std::unique_ptr<PageFile> cell_file, rstar_file, xtree_file, scan_file;
  std::unique_ptr<BufferPool> cell_pool, rstar_pool, xtree_pool, scan_pool;
  std::unique_ptr<NNCellIndex> nncell;
  std::unique_ptr<RStarTree> rstar;
  std::unique_ptr<XTree> xtree;
  std::unique_ptr<SequentialScan> scan;
};

class CrossIndexTest
    : public ::testing::TestWithParam<std::tuple<Distribution, size_t>> {};

TEST_P(CrossIndexTest, AllIndexesAgreeOnNN) {
  const Distribution dist = std::get<0>(GetParam());
  const size_t dim = std::get<1>(GetParam());
  PointSet pts = MakeData(dist, 300, dim, 1000 + dim);
  Stack stack(dim, pts);
  PointSet queries = GenerateQueries(60, dim, 2000 + dim);

  for (size_t t = 0; t < queries.size(); ++t) {
    auto scan_result = stack.scan->NearestNeighbor(queries[t]);
    auto cell_result = stack.nncell->Query(queries[t]);
    ASSERT_TRUE(cell_result.ok());
    auto rstar_result = stack.rstar->KnnQuery(queries[t], 1).hits;
    auto xtree_result = stack.xtree->KnnQuery(queries[t], 1).hits;
    ASSERT_EQ(rstar_result.size(), 1u);
    ASSERT_EQ(xtree_result.size(), 1u);

    EXPECT_NEAR(cell_result->dist, scan_result.dist, 1e-9) << "query " << t;
    EXPECT_NEAR(std::sqrt(rstar_result[0].dist_sq), scan_result.dist, 1e-9)
        << "query " << t;
    EXPECT_NEAR(std::sqrt(xtree_result[0].dist_sq), scan_result.dist, 1e-9)
        << "query " << t;
  }
}

std::string DistributionName(
    const ::testing::TestParamInfo<std::tuple<Distribution, size_t>>& info) {
  return std::string(DistributionLabel(std::get<0>(info.param))) + "_d" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CrossIndexTest,
    ::testing::Combine(::testing::Values(Distribution::kUniform,
                                         Distribution::kGrid,
                                         Distribution::kClusters,
                                         Distribution::kFourier,
                                         Distribution::kSparse),
                       ::testing::Values(2, 4, 8)),
    DistributionName);

TEST(IntegrationTest, QueriesOnDataPointsAgreeEverywhere) {
  const size_t dim = 5;
  PointSet pts = GenerateUniform(250, dim, 9);
  Stack stack(dim, pts);
  for (size_t i = 0; i < pts.size(); i += 7) {
    auto cell = stack.nncell->Query(pts[i]);
    ASSERT_TRUE(cell.ok());
    EXPECT_EQ(cell->id, i);
    EXPECT_NEAR(cell->dist, 0.0, 1e-12);
    auto knn = stack.xtree->KnnQuery(pts[i], 1).hits;
    EXPECT_EQ(knn[0].id, i);
  }
}

TEST(IntegrationTest, PageAccountingIsConsistent) {
  // Physical reads reported by the pool equal the PageFile's disk reads.
  const size_t dim = 6;
  PointSet pts = GenerateUniform(400, dim, 13);
  Stack stack(dim, pts);
  stack.nncell->SetExactPlan(ExactPlan::kCellProbe);  // reads cell pages
  PointSet queries = GenerateQueries(20, dim, 14);
  stack.cell_pool->DropCache();
  stack.cell_file->ResetStats();
  stack.cell_pool->ResetStats();
  for (size_t t = 0; t < queries.size(); ++t) {
    ASSERT_TRUE(stack.nncell->Query(queries[t]).ok());
  }
  EXPECT_EQ(stack.cell_pool->stats().physical_reads,
            stack.cell_file->disk_reads());
  EXPECT_LE(stack.cell_pool->stats().physical_reads,
            stack.cell_pool->stats().logical_reads);
}

TEST(IntegrationTest, NNCellBeatsScanOnPageAccessesUniformMidDim) {
  // The headline systems claim at moderate dimensionality: the NN-cell
  // point query touches far fewer pages than a full scan.
  const size_t dim = 6;
  PointSet pts = GenerateUniform(1500, dim, 17);
  Stack stack(dim, pts);
  // The paper's executor; at E/N ~ 1/60 the index itself would scan.
  stack.nncell->SetExactPlan(ExactPlan::kCellProbe);
  PointSet queries = GenerateQueries(25, dim, 18);
  uint64_t cell_pages = 0, scan_pages = 0;
  for (size_t t = 0; t < queries.size(); ++t) {
    stack.cell_pool->DropCache();
    stack.cell_pool->ResetStats();
    ASSERT_TRUE(stack.nncell->Query(queries[t]).ok());
    cell_pages += stack.cell_pool->stats().physical_reads;
    stack.scan_pool->DropCache();
    stack.scan_pool->ResetStats();
    stack.scan->NearestNeighbor(queries[t]);
    scan_pages += stack.scan_pool->stats().physical_reads;
  }
  EXPECT_LT(cell_pages, scan_pages);
}

}  // namespace
}  // namespace nncell
