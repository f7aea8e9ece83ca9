// Differential oracle suite: the no-false-dismissal guarantee (Lemma 2)
// as an executable property. Every configuration of the index -- all four
// approximation algorithms, several dimensionalities and seeds, weighted
// metrics, decomposition, and post-insert/delete states -- must return
// exactly the nearest neighbor the SequentialScan baseline finds, because
// the scan IS the definition of correctness the paper's Lemma 2 promises
// to preserve.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "batch_paths.h"
#include "common/distance.h"
#include "common/metrics.h"
#include "common/metrics_names.h"
#include "common/point_set.h"
#include "common/rng.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "scan/sequential_scan.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

struct IndexUnderTest {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<NNCellIndex> index;
};

IndexUnderTest MakeIndex(size_t dim, const NNCellOptions& options) {
  IndexUnderTest t;
  t.file = std::make_unique<PageFile>(2048);
  t.pool = std::make_unique<BufferPool>(t.file.get(), 512);
  t.index = std::make_unique<NNCellIndex>(t.pool.get(), dim, options);
  return t;
}

struct ScanOracle {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<SequentialScan> scan;
};

// Oracle over the live points of `index`, in the same (possibly weighted)
// metric space the index searches internally: SequentialScan is plain
// Euclidean, so it scans the metric-transformed coordinates and its
// distances are directly comparable to QueryResult::dist.
ScanOracle MakeOracle(const NNCellIndex& index) {
  ScanOracle o;
  o.file = std::make_unique<PageFile>(2048);
  o.pool = std::make_unique<BufferPool>(o.file.get(), 512);
  o.scan = std::make_unique<SequentialScan>(o.pool.get(), index.dim());
  for (uint64_t id = 0; id < index.points().size(); ++id) {
    if (index.IsAlive(id)) o.scan->Insert(index.points()[id], id);
  }
  return o;
}

std::vector<double> ToMetric(const std::vector<double>& q,
                             const std::vector<double>& weights) {
  std::vector<double> m = q;
  for (size_t i = 0; i < weights.size(); ++i) m[i] *= std::sqrt(weights[i]);
  return m;
}

// One differential probe: the index answer must match the scan answer in
// distance exactly (both compute sqrt of an exact double sum; ties may
// legitimately resolve to different ids at equal distance).
void ExpectSameNearest(const NNCellIndex& index, const SequentialScan& scan,
                       const std::vector<double>& q) {
  auto got = index.Query(q.data());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  SequentialScan::Result want =
      scan.NearestNeighbor(ToMetric(q, index.options().weights).data());
  EXPECT_NEAR(got->dist, want.dist, 1e-9)
      << "index returned id " << got->id << ", scan id " << want.id;
  EXPECT_TRUE(index.IsAlive(got->id));
}

// One answer row of ExpectExecutorsAgree: (query kind, id, distance bits).
using AnswerRow = std::tuple<int, uint64_t, uint64_t>;

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Every exact executor must give the cell probe's answers bit for bit, in
// the same order: the nearest neighbor, the 5 nearest, and every point
// within the 3rd-nearest distance (a radius on a point, so the boundary
// test d2 <= r_sq is exercised). The forced plans and kAuto are tried in
// turn, so the index is left choosing its own plan (kAuto).
void ExpectExecutorsAgree(NNCellIndex* index, size_t n_queries,
                          uint64_t seed) {
  PointSet queries = GenerateQueries(n_queries, index->dim(), seed);
  std::vector<AnswerRow> want;
  for (ExactPlan plan :
       {ExactPlan::kCellProbe, ExactPlan::kScan, ExactPlan::kAuto}) {
    index->SetExactPlan(plan);
    ASSERT_NE(index->exact_plan(), ExactPlan::kAuto);
    const bool scan = index->exact_plan() == ExactPlan::kScan;
    std::vector<AnswerRow> got;
    for (size_t t = 0; t < queries.size(); ++t) {
      auto nn = index->Query(queries[t]);
      ASSERT_TRUE(nn.ok()) << nn.status().ToString();
      got.emplace_back(0, nn->id, Bits(nn->dist));
      if (scan) {
        EXPECT_EQ(nn->candidates, index->size());
        EXPECT_FALSE(nn->used_fallback);
      }
      auto knn = index->KnnQuery(queries[t], 5);
      ASSERT_TRUE(knn.ok()) << knn.status().ToString();
      ASSERT_FALSE(knn->empty());
      for (const auto& r : *knn) got.emplace_back(1, r.id, Bits(r.dist));
      const double radius = (*knn)[std::min<size_t>(2, knn->size() - 1)].dist;
      auto in_range = index->RangeSearch(queries[t], radius);
      ASSERT_TRUE(in_range.ok()) << in_range.status().ToString();
      for (const auto& r : *in_range) {
        got.emplace_back(2, r.id, Bits(r.dist));
        if (scan) {
          EXPECT_EQ(r.candidates, index->size());
        }
      }
    }
    if (plan == ExactPlan::kCellProbe) {
      want = std::move(got);
    } else {
      EXPECT_EQ(got, want) << "plan " << ExactPlanName(plan);
    }
  }
}

struct DiffCase {
  ApproxAlgorithm algorithm;
  size_t dim;
  uint64_t seed;
};

std::string CaseName(const testing::TestParamInfo<DiffCase>& info) {
  std::string name = ApproxAlgorithmName(info.param.algorithm);
  // gtest parameter names must be alphanumeric ("NN-Direction" is not).
  name.erase(std::remove_if(name.begin(), name.end(),
                            [](unsigned char ch) { return !std::isalnum(ch); }),
             name.end());
  return name + "_d" + std::to_string(info.param.dim) + "_s" +
         std::to_string(info.param.seed);
}

class DifferentialTest : public testing::TestWithParam<DiffCase> {};

TEST_P(DifferentialTest, QueryMatchesSequentialScan) {
  const DiffCase& c = GetParam();
  // Smaller sets in high d keep the kCorrect (all-pairs LP) cases fast.
  const size_t n = c.dim <= 4 ? 130 : (c.dim <= 8 ? 90 : 60);

  NNCellOptions options;
  options.algorithm = c.algorithm;
  IndexUnderTest t = MakeIndex(c.dim, options);
  PointSet pts = GenerateUniform(n, c.dim, c.seed);
  ASSERT_TRUE(t.index->BulkBuild(pts).ok());

  ScanOracle oracle = MakeOracle(*t.index);
  Rng rng(c.seed ^ 0xd1ffe7);
  std::vector<double> q(c.dim);
  for (size_t i = 0; i < 40; ++i) {
    for (auto& v : q) v = rng.NextDouble();
    ExpectSameNearest(*t.index, *oracle.scan, q);
  }
  ExpectExecutorsAgree(t.index.get(), 30, c.seed);
}

TEST_P(DifferentialTest, StaysExactAcrossInsertsAndDeletes) {
  const DiffCase& c = GetParam();
  const size_t n = c.dim <= 4 ? 100 : 60;

  NNCellOptions options;
  options.algorithm = c.algorithm;
  IndexUnderTest t = MakeIndex(c.dim, options);
  PointSet pts = GenerateUniform(n, c.dim, c.seed);
  ASSERT_TRUE(t.index->BulkBuild(pts).ok());

  // Dynamic churn: a wave of inserts, then a wave of deletes (every 4th
  // original point), leaving a state no precomputation ever saw.
  Rng rng(c.seed ^ 0xc0ffee);
  std::vector<double> p(c.dim);
  for (size_t i = 0; i < 12; ++i) {
    for (auto& v : p) v = rng.NextDouble();
    auto id = t.index->Insert(p);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  for (uint64_t id = 0; id < n; id += 4) {
    ASSERT_TRUE(t.index->Delete(id).ok());
  }
  ASSERT_TRUE(t.index->CheckInvariants(25, c.seed).ok());

  ScanOracle oracle = MakeOracle(*t.index);
  std::vector<double> q(c.dim);
  for (size_t i = 0; i < 30; ++i) {
    for (auto& v : q) v = rng.NextDouble();
    ExpectSameNearest(*t.index, *oracle.scan, q);
  }
  ExpectExecutorsAgree(t.index.get(), 30, c.seed + 1);
}

std::vector<DiffCase> AllCases() {
  std::vector<DiffCase> cases;
  for (ApproxAlgorithm a :
       {ApproxAlgorithm::kCorrect, ApproxAlgorithm::kPoint,
        ApproxAlgorithm::kSphere, ApproxAlgorithm::kNNDirection}) {
    for (size_t dim : {2u, 4u, 8u, 16u}) {
      for (uint64_t seed : {7u, 1234u}) {
        cases.push_back({a, dim, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, DifferentialTest,
                         testing::ValuesIn(AllCases()), CaseName);

// The candidate count itself is differential-testable for the Correct
// strategy: with exact (undecomposed) cell MBRs there is exactly one
// rectangle per live point, so Query's candidate set must be precisely the
// cells whose stored rectangle contains q -- countable by brute force over
// the bookkept rectangles. Lemma 2 additionally demands at least one
// candidate for any in-space query (the true NN's cell contains q). The
// same totals must show up in the metrics registry.
TEST(DifferentialCandidateCountTest, CorrectStrategyMatchesContainmentOracle) {
  NNCellOptions options;
  options.algorithm = ApproxAlgorithm::kCorrect;
  IndexUnderTest t = MakeIndex(4, options);
  t.index->SetExactPlan(ExactPlan::kCellProbe);  // the paper's candidates
  PointSet pts = GenerateUniform(80, 4, 321);
  ASSERT_TRUE(t.index->BulkBuild(pts).ok());

  metrics::Registry& registry = metrics::Registry::Global();
  metrics::Counter* cand_counter =
      registry.counter(metrics::kQueryCandidates);
  const bool was_enabled = metrics::Registry::Enabled();
  metrics::Registry::SetEnabled(true);
  const uint64_t cand_before = cand_counter->Value();

  uint64_t total_candidates = 0;
  Rng rng(0xca9d);
  std::vector<double> q(4);
  for (int probe = 0; probe < 25; ++probe) {
    for (auto& v : q) v = rng.NextDouble();
    auto r = t.index->Query(q.data());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // No weights configured, so q is already in metric space.
    size_t contained = 0;
    for (uint64_t id = 0; id < t.index->points().size(); ++id) {
      if (!t.index->IsAlive(id)) continue;
      ASSERT_EQ(t.index->CellRects(id).size(), 1u);
      if (t.index->CellRects(id)[0].ContainsPoint(q.data())) ++contained;
    }
    EXPECT_GE(r->candidates, 1u);
    EXPECT_EQ(r->candidates, contained);
    total_candidates += r->candidates;
  }

  metrics::Registry::SetEnabled(was_enabled);
#if NNCELL_METRICS
  EXPECT_EQ(cand_counter->Value() - cand_before, total_candidates);
#else
  (void)cand_before;
  (void)total_candidates;
#endif
}

// Weighted metrics ride the same isometry argument: the index searches in
// sqrt(w)-scaled space, so an oracle scanning the scaled coordinates must
// agree on every weighted distance.
TEST(DifferentialWeightedTest, WeightedQueryMatchesScaledScan) {
  for (size_t dim : {2u, 8u}) {
    NNCellOptions options;
    options.algorithm = ApproxAlgorithm::kSphere;
    options.weights.resize(dim);
    for (size_t i = 0; i < dim; ++i) {
      options.weights[i] = 0.25 + 1.5 * static_cast<double>(i % 4);
    }
    IndexUnderTest t = MakeIndex(dim, options);
    PointSet pts = GenerateUniform(120, dim, 99);
    ASSERT_TRUE(t.index->BulkBuild(pts).ok());

    ScanOracle oracle = MakeOracle(*t.index);
    Rng rng(0x3e1f);
    std::vector<double> q(dim);
    for (size_t i = 0; i < 40; ++i) {
      for (auto& v : q) v = rng.NextDouble();
      ExpectSameNearest(*t.index, *oracle.scan, q);
    }
    ExpectExecutorsAgree(t.index.get(), 30, dim);
  }
}

// Decomposed approximations (Section 3) must not cost exactness either.
TEST(DifferentialDecompositionTest, DecomposedCellsStayExact) {
  NNCellOptions options;
  options.algorithm = ApproxAlgorithm::kSphere;
  options.decomposition.max_partitions = 4;
  IndexUnderTest t = MakeIndex(6, options);
  PointSet pts = GenerateUniform(150, 6, 2024);
  ASSERT_TRUE(t.index->BulkBuild(pts).ok());

  ScanOracle oracle = MakeOracle(*t.index);
  Rng rng(0xdec0);
  std::vector<double> q(6);
  for (size_t i = 0; i < 40; ++i) {
    for (auto& v : q) v = rng.NextDouble();
    ExpectSameNearest(*t.index, *oracle.scan, q);
  }
  ExpectExecutorsAgree(t.index.get(), 30, 0xdec1);
}

// QueryBatch is defined as "identical to a serial loop of Query calls";
// hold it to that, including against the oracle.
TEST(DifferentialBatchTest, BatchEqualsSerialAndOracle) {
  NNCellOptions options;
  options.algorithm = ApproxAlgorithm::kSphere;
  options.parallel.num_threads = 4;
  IndexUnderTest t = MakeIndex(8, options);
  // 200 points at d=8 would plan a scan; the cell probe keeps the
  // concurrent tree traversal under test (ExactPlanBatchTest covers kScan).
  t.index->SetExactPlan(ExactPlan::kCellProbe);
  PointSet pts = GenerateUniform(200, 8, 5);
  ASSERT_TRUE(t.index->BulkBuild(pts).ok());

  PointSet queries =
      GenerateQueries(FanOutBatchSize(t.index->QueryCost(), 60), 8, 6);
  BatchPaths paths;
  auto batch = t.index->QueryBatch(queries);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), queries.size());
  paths.ExpectAllFannedOut(1);

  ScanOracle oracle = MakeOracle(*t.index);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto serial = t.index->Query(queries[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*batch)[i].id, serial->id);
    EXPECT_EQ((*batch)[i].dist, serial->dist);
    SequentialScan::Result want = oracle.scan->NearestNeighbor(queries[i]);
    EXPECT_NEAR((*batch)[i].dist, want.dist, 1e-9);
  }
}

// A batch whose work stays below kFanOutWork runs on the calling thread,
// one that reaches it fans out; under either plan both give the answers
// of a serial loop of Query calls, bit for bit. A failing query fails
// the batch on both paths.
TEST(DifferentialBatchTest, BothSidesOfTheFanOutThresholdEqualSerial) {
  NNCellOptions options;
  options.parallel.num_threads = 4;
  IndexUnderTest t = MakeIndex(8, options);
  ASSERT_TRUE(t.index->BulkBuild(GenerateUniform(300, 8, 7)).ok());
  for (ExactPlan plan : {ExactPlan::kScan, ExactPlan::kCellProbe}) {
    t.index->SetExactPlan(plan);
    const size_t fanned = FanOutBatchSize(t.index->QueryCost(), 2);
    ASSERT_GT(fanned, 2u) << ExactPlanName(plan);
    PointSet queries = GenerateQueries(fanned, 8, 8);
    std::vector<NNCellIndex::QueryResult> want;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = t.index->Query(queries[i]);
      ASSERT_TRUE(r.ok());
      want.push_back(*r);
    }
    for (size_t n : {fanned - 1, fanned}) {
      PointSet batch_queries(8);
      for (size_t i = 0; i < n; ++i) batch_queries.Add(queries[i]);
      BatchPaths paths;
      auto batch = t.index->QueryBatch(batch_queries);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      if (n < fanned) {
        paths.ExpectAllSerial(1);
      } else {
        paths.ExpectAllFannedOut(1);
      }
      ASSERT_EQ(batch->size(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ((*batch)[i].id, want[i].id) << i;
        EXPECT_EQ(Bits((*batch)[i].dist), Bits(want[i].dist)) << i;
        EXPECT_EQ((*batch)[i].candidates, want[i].candidates) << i;
        EXPECT_EQ((*batch)[i].point, want[i].point) << i;
      }

      // A non-finite coordinate fails the whole batch on either path.
      std::vector<double> bad(queries[n / 2], queries[n / 2] + 8);
      bad[3] = std::nan("");
      PointSet with_bad(8);
      for (size_t i = 0; i < n; ++i) {
        with_bad.Add(i == n / 2 ? bad.data() : queries[i]);
      }
      auto failed = t.index->QueryBatch(with_bad);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().message(), "non-finite coordinate");
    }
  }
}

// The plan is the documented rule over the live cells, worked out again
// after every live Insert and Delete: at fixed d the expected candidates
// stay roughly constant, so the cell probe takes over as N grows and the
// scan comes back as N shrinks. A forced plan ignores the rule.
TEST(DifferentialExactPlanTest, PlanFlipsWithNAtFixedDim) {
  IndexUnderTest t = MakeIndex(2, NNCellOptions{});
  NNCellIndex& index = *t.index;
  auto rule = [&] {
    return index.ExpectedCandidates() * NNCellIndex::kScanCoverage >=
                   static_cast<double>(index.size())
               ? ExactPlan::kScan
               : ExactPlan::kCellProbe;
  };
  ASSERT_TRUE(index.BulkBuild(GenerateUniform(60, 2, 31)).ok());
  EXPECT_EQ(index.exact_plan(), ExactPlan::kScan);

  Rng rng(0x9a1);
  std::vector<uint64_t> ids;
  std::vector<double> p(2);
  while (index.exact_plan() == ExactPlan::kScan && index.size() < 2000) {
    for (auto& v : p) v = rng.NextDouble();
    auto id = index.Insert(p);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
    ASSERT_EQ(index.exact_plan(), rule()) << index.size() << " points";
  }
  EXPECT_EQ(index.exact_plan(), ExactPlan::kCellProbe);
  EXPECT_GT(index.size(), 100u);
  ExpectExecutorsAgree(&index, 20, 0x9a2);

  index.SetExactPlan(ExactPlan::kScan);
  EXPECT_EQ(index.exact_plan(), ExactPlan::kScan);
  index.SetExactPlan(ExactPlan::kAuto);
  EXPECT_EQ(index.exact_plan(), ExactPlan::kCellProbe);

  while (index.exact_plan() == ExactPlan::kCellProbe && !ids.empty()) {
    ASSERT_TRUE(index.Delete(ids.back()).ok());
    ids.pop_back();
    ASSERT_EQ(index.exact_plan(), rule()) << index.size() << " points";
  }
  EXPECT_EQ(index.exact_plan(), ExactPlan::kScan);
  ASSERT_TRUE(index.CheckInvariants(25).ok());
}

// QueryBatch under the scan plan from several threads at once, each batch
// fanned over the index's own pool: N readers of the point table, with
// answers equal to the serial cell probe's.
TEST(ExactPlanBatchTest, ConcurrentScanBatchesEqualCellProbe) {
  NNCellOptions options;
  options.parallel.num_threads = 4;
  IndexUnderTest t = MakeIndex(16, options);
  ASSERT_TRUE(t.index->BulkBuild(GenerateUniform(150, 16, 41)).ok());
  ASSERT_EQ(t.index->exact_plan(), ExactPlan::kScan);
  PointSet queries =
      GenerateQueries(FanOutBatchSize(t.index->QueryCost(), 40), 16, 42);

  t.index->SetExactPlan(ExactPlan::kCellProbe);
  std::vector<NNCellIndex::QueryResult> want;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = t.index->Query(queries[i]);
    ASSERT_TRUE(r.ok());
    want.push_back(*r);
  }

  t.index->SetExactPlan(ExactPlan::kScan);
  std::vector<StatusOr<std::vector<NNCellIndex::QueryResult>>> got(
      3, Status::Internal("not run"));
  BatchPaths paths;
  std::vector<std::thread> threads;
  for (size_t k = 0; k < got.size(); ++k) {
    threads.emplace_back([&, k] { got[k] = t.index->QueryBatch(queries); });
  }
  for (std::thread& th : threads) th.join();
  paths.ExpectAllFannedOut(got.size());
  for (const auto& batch : got) {
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*batch)[i].id, want[i].id) << i;
      EXPECT_EQ(Bits((*batch)[i].dist), Bits(want[i].dist)) << i;
      EXPECT_EQ((*batch)[i].candidates, t.index->size()) << i;
    }
  }
}

}  // namespace
}  // namespace nncell
