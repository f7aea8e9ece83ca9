// Sharded-index test layer: the scatter-gather differential against an
// unsharded oracle (bit-identical results across every approximation
// algorithm, dimensionality and shard count), the online-rebalance
// equivalence, durable recovery of the router, the rebalance crash
// matrix, and degraded-mode behavior when a single shard's storage is
// corrupt.

#include "shard/sharded_index.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "batch_paths.h"
#include "byte_digest.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "shard/shard_format.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "test_printers.h"

namespace nncell {
namespace {

NNCellOptions Options(ApproxAlgorithm algo) {
  NNCellOptions opts;
  opts.algorithm = algo;
  return opts;
}

ShardedOptions Sharded(size_t k) {
  ShardedOptions s;
  s.num_shards = k;
  s.auto_rebalance = false;
  return s;
}

NNCellIndex::DurableOptions Durable() {
  NNCellIndex::DurableOptions d;
  d.page_size = 1024;
  d.pool_pages = 512;
  return d;
}

// In-memory unsharded oracle over its own storage.
struct Oracle {
  explicit Oracle(size_t dim, NNCellOptions opts = Options(
                                  ApproxAlgorithm::kSphere))
      : file(2048), pool(&file, 512), index(&pool, dim, opts) {}
  PageFile file;
  BufferPool pool;
  NNCellIndex index;
};

PointSet RandomPoints(size_t n, size_t dim, uint64_t seed) {
  PointSet pts(dim);
  Rng rng(seed);
  std::vector<double> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : p) v = rng.NextDouble();
    pts.Add(p);
  }
  return pts;
}

void ExpectSameResult(const NNCellIndex::QueryResult& a,
                      const NNCellIndex::QueryResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.id, b.id) << what;
  EXPECT_EQ(a.dist, b.dist) << what;  // bit-identical, not approximate
  EXPECT_EQ(a.point, b.point) << what;
}

void ExpectSameResults(const std::vector<NNCellIndex::QueryResult>& a,
                       const std::vector<NNCellIndex::QueryResult>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectSameResult(a[i], b[i], what + " [" + std::to_string(i) + "]");
  }
}

// Runs the full query surface (NN / kNN / range) of `sharded` against the
// oracle and requires bit-identical answers.
void DifferentialQueries(const ShardedIndex& sharded,
                         const NNCellIndex& oracle, size_t n_queries,
                         uint64_t seed) {
  Rng rng(seed);
  std::vector<double> q(oracle.dim());
  for (size_t i = 0; i < n_queries; ++i) {
    for (double& v : q) v = rng.NextDouble();
    const std::string tag = "query " + std::to_string(i);

    auto got = sharded.Query(q.data());
    auto want = oracle.Query(q.data());
    ASSERT_EQ(got.ok(), want.ok()) << tag;
    if (want.ok()) ExpectSameResult(*got, *want, tag);

    auto got_knn = sharded.KnnQuery(q.data(), 5);
    auto want_knn = oracle.KnnQuery(q.data(), 5);
    ASSERT_EQ(got_knn.ok(), want_knn.ok()) << tag;
    if (want_knn.ok()) ExpectSameResults(*got_knn, *want_knn, tag + " knn");

    const double radius = 0.05 + 0.3 * rng.NextDouble();
    auto got_rs = sharded.RangeSearch(q.data(), radius);
    auto want_rs = oracle.RangeSearch(q.data(), radius);
    ASSERT_EQ(got_rs.ok(), want_rs.ok()) << tag;
    if (want_rs.ok()) ExpectSameResults(*got_rs, *want_rs, tag + " range");
  }
}

// --- the oracle differential over algorithms x dims x shard counts --------

using DiffParam = std::tuple<ApproxAlgorithm, size_t, size_t>;

class ShardDifferentialTest : public ::testing::TestWithParam<DiffParam> {};

TEST_P(ShardDifferentialTest, BulkBuildMatchesUnsharded) {
  const auto [algo, dim, shards] = GetParam();
  const size_t n = dim <= 2 ? 90 : (dim <= 8 ? 50 : 36);
  PointSet pts = RandomPoints(n, dim, 0x5eed0 + dim * 31 + shards);

  Oracle oracle(dim, Options(algo));
  ASSERT_TRUE(oracle.index.BulkBuild(pts).ok());

  auto sharded = ShardedIndex::Create(dim, Options(algo), Sharded(shards));
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  ASSERT_TRUE((*sharded)->BulkBuild(pts).ok());
  EXPECT_EQ((*sharded)->size(), oracle.index.size());
  EXPECT_EQ((*sharded)->num_shards(), shards);

  DifferentialQueries(**sharded, oracle.index, 12, 0xabc0 + dim);
  EXPECT_TRUE((*sharded)->CheckInvariants(20).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsByDimByShards, ShardDifferentialTest,
    ::testing::Combine(
        ::testing::Values(ApproxAlgorithm::kCorrect, ApproxAlgorithm::kPoint,
                          ApproxAlgorithm::kSphere,
                          ApproxAlgorithm::kNNDirection),
        ::testing::Values<size_t>(2, 8, 16),
        ::testing::Values<size_t>(1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<DiffParam>& info) {
      std::string algo = ApproxAlgorithmName(std::get<0>(info.param));
      algo.erase(std::remove_if(algo.begin(), algo.end(),
                                [](char c) { return !std::isalnum(c); }),
                 algo.end());
      return algo + "_d" + std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

// --- dynamic inserts / deletes -------------------------------------------

TEST(ShardedIndexTest, InsertDeleteMatchesUnsharded) {
  const size_t dim = 4;
  Oracle oracle(dim);
  auto sharded = ShardedIndex::Create(dim, Options(ApproxAlgorithm::kSphere),
                                      Sharded(4));
  ASSERT_TRUE(sharded.ok());

  Rng rng(0xd1ce);
  std::vector<uint64_t> live;
  for (size_t i = 0; i < 120; ++i) {
    std::vector<double> p(dim);
    for (double& v : p) v = rng.NextDouble();
    auto want = oracle.index.Insert(p);
    auto got = (*sharded)->Insert(p);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(*got, *want) << "global ids must match the oracle's";
    live.push_back(*got);
    if (i % 7 == 3 && !live.empty()) {
      const uint64_t victim = live[rng.NextIndex(live.size())];
      Status w = oracle.index.Delete(victim);
      Status g = (*sharded)->Delete(victim);
      ASSERT_EQ(w.ok(), g.ok());
      live.erase(std::remove(live.begin(), live.end(), victim), live.end());
    }
  }
  EXPECT_EQ((*sharded)->size(), oracle.index.size());
  for (uint64_t id : live) {
    EXPECT_TRUE((*sharded)->IsAlive(id));
  }
  DifferentialQueries(**sharded, oracle.index, 20, 0xfeed);
  EXPECT_TRUE((*sharded)->CheckInvariants(30).ok());
}

TEST(ShardedIndexTest, ErrorsMirrorUnsharded) {
  auto sharded = ShardedIndex::Create(2, Options(ApproxAlgorithm::kSphere),
                                      Sharded(4));
  ASSERT_TRUE(sharded.ok());
  ShardedIndex& idx = **sharded;

  // Empty-index queries.
  const std::vector<double> q{0.5, 0.5};
  EXPECT_EQ(idx.Query(q.data()).status().message(), "index is empty");
  EXPECT_EQ(idx.KnnQuery(q.data(), 3).status().message(), "index is empty");
  EXPECT_EQ(idx.RangeSearch(q.data(), 0.1).status().message(),
            "index is empty");

  ASSERT_TRUE(idx.Insert({0.25, 0.5}).ok());

  // Exact duplicate.
  EXPECT_EQ(idx.Insert({0.25, 0.5}).status().code(),
            StatusCode::kAlreadyExists);
  // Dimension mismatch.
  EXPECT_EQ(idx.Insert({0.25}).status().message(), "dimension mismatch");
  // Out of space.
  EXPECT_EQ(idx.Insert({1.5, 0.5}).status().code(), StatusCode::kOutOfRange);
  // Negative radius (after the empty check, as in the oracle).
  EXPECT_EQ(idx.RangeSearch(q.data(), -1.0).status().message(),
            "negative radius");
  // Non-finite coordinates (NaN, +inf, -inf) on every entry point, and
  // non-finite radii: the same messages as an unsharded index.
  Oracle oracle(2);
  ASSERT_TRUE(oracle.index.Insert({0.25, 0.5}).ok());
  ApproxOptions approx;
  approx.epsilon = 0.1;
  const double inf = std::numeric_limits<double>::infinity();
  PointSet outside(2);
  outside.Add(q);
  outside.Add(std::vector<double>{1.5, 0.5});
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    const std::vector<double> p{0.5, bad};
    PointSet batch(2);
    batch.Add(q);
    batch.Add(p);
    auto messages = [&](auto& index) {
      return std::vector<std::string>{
          index.Insert(p).status().message(),
          index.BulkBuild(batch).message(),
          index.Query(p.data()).status().message(),
          index.Query(p.data(), approx).status().message(),
          index.QueryBatch(batch).status().message(),
          index.KnnQuery(p.data(), 3).status().message(),
          index.KnnQuery(p.data(), 3, approx).status().message(),
          index.RangeSearch(p.data(), 0.1).status().message(),
          index.BulkBuild(outside).message(),
      };
    };
    std::vector<std::string> want(8, "non-finite coordinate");
    want.push_back("point outside the data space [0,1]^d");
    EXPECT_EQ(messages(idx), want) << bad;
    EXPECT_EQ(messages(oracle.index), want) << bad;
    const std::string radius = bad < 0.0 ? "negative radius"
                                         : "non-finite radius";
    EXPECT_EQ(idx.RangeSearch(q.data(), bad).status().message(), radius);
    EXPECT_EQ(oracle.index.RangeSearch(q.data(), bad).status().message(),
              radius);
  }
  // Unknown / dead ids.
  EXPECT_EQ(idx.Delete(99).message(), "no live point with this id");
  ASSERT_TRUE(idx.Delete(0).ok());
  EXPECT_EQ(idx.Delete(0).message(), "no live point with this id");
  // Checkpoint needs a durable index.
  EXPECT_EQ(idx.Checkpoint().code(),
            StatusCode::kFailedPrecondition);
}

// A batch with one point outside [0,1]^d is refused before either index
// changes: nothing is registered, so a clean retry builds, and a further
// BulkBuild is refused because the index is no longer empty.
TEST(ShardedIndexTest, RefusedBatchLeavesIndexEmpty) {
  const PointSet clean = RandomPoints(40, 2, 31);
  PointSet bad(2);
  for (size_t i = 0; i < clean.size(); ++i) {
    if (i == clean.size() / 2) bad.Add(std::vector<double>{1.5, 0.5});
    bad.Add(clean[i]);
  }
  auto check = [&](auto& index) {
    EXPECT_EQ(index.BulkBuild(bad).code(), StatusCode::kOutOfRange);
    EXPECT_EQ(index.size(), 0u);
    Status inv = index.CheckInvariants(20);
    EXPECT_TRUE(inv.ok()) << inv.ToString();
    ASSERT_TRUE(index.BulkBuild(clean).ok());
    EXPECT_EQ(index.size(), clean.size());
    EXPECT_EQ(index.BulkBuild(clean).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(index.size(), clean.size());
    inv = index.CheckInvariants(20);
    EXPECT_TRUE(inv.ok()) << inv.ToString();
  };
  Oracle oracle(2);
  check(oracle.index);
  auto sharded = ShardedIndex::Create(2, Options(ApproxAlgorithm::kSphere),
                                      Sharded(2));
  ASSERT_TRUE(sharded.ok());
  check(**sharded);
}

TEST(ShardedIndexTest, QueryBatchMatchesSerialLoop) {
  const size_t dim = 3;
  auto sharded = ShardedIndex::Create(dim, Options(ApproxAlgorithm::kSphere),
                                      Sharded(4));
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE((*sharded)->BulkBuild(RandomPoints(80, dim, 0xba7c)).ok());
  // Four workers and enough queries, so the batch takes the parallel
  // fan-out on any host.
  (*sharded)->SetNumThreads(4);

  PointSet queries = RandomPoints(
      FanOutBatchSize((*sharded)->QueryCost(), 32), dim, 0x9876);
  BatchPaths paths;
  auto batch = (*sharded)->QueryBatch(queries);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), queries.size());
  paths.ExpectAllFannedOut(1);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto one = (*sharded)->Query(queries[i]);
    ASSERT_TRUE(one.ok());
    ExpectSameResult((*batch)[i], *one, "batch slot " + std::to_string(i));
  }
}

// The cross-shard pool takes the caller's NNCellOptions::parallel thread
// count (shards themselves stay serial), and SetNumThreads resizes it.
TEST(ShardedIndexTest, PoolTakesTheCallersThreadCount) {
  for (size_t threads : {1u, 2u, 3u}) {
    NNCellOptions opts = Options(ApproxAlgorithm::kSphere);
    opts.parallel.num_threads = threads;
    auto sharded = ShardedIndex::Create(2, opts, Sharded(4));
    ASSERT_TRUE(sharded.ok());
    EXPECT_EQ((*sharded)->num_threads(), threads);
  }
  auto sharded =
      ShardedIndex::Create(2, Options(ApproxAlgorithm::kSphere), Sharded(2));
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ((*sharded)->num_threads(), 1u);
  (*sharded)->SetNumThreads(0);
  EXPECT_EQ((*sharded)->num_threads(), ThreadPool::DefaultThreads());
  (*sharded)->SetNumThreads(2);
  EXPECT_EQ((*sharded)->num_threads(), 2u);
  (*sharded)->SetNumThreads(1);
  EXPECT_EQ((*sharded)->num_threads(), 1u);
}

TEST(ShardedIndexTest, WeightedMetricMatchesUnsharded) {
  const size_t dim = 3;
  NNCellOptions opts = Options(ApproxAlgorithm::kSphere);
  opts.weights = {4.0, 1.0, 0.25};
  Oracle oracle(dim, opts);
  auto sharded = ShardedIndex::Create(dim, opts, Sharded(4));
  ASSERT_TRUE(sharded.ok());

  PointSet pts = RandomPoints(70, dim, 0x3e1);
  ASSERT_TRUE(oracle.index.BulkBuild(pts).ok());
  ASSERT_TRUE((*sharded)->BulkBuild(pts).ok());
  DifferentialQueries(**sharded, oracle.index, 15, 0x77);
  EXPECT_TRUE((*sharded)->CheckInvariants(20).ok());
}

// --- online rebalance -----------------------------------------------------

TEST(ShardRebalanceTest, SkewedInsertsTriggerOnlineRebalance) {
  const size_t dim = 2;
  ShardedOptions sopts;
  sopts.num_shards = 4;
  sopts.auto_rebalance = true;
  sopts.min_rebalance_points = 32;
  sopts.max_skew = 2.0;
  auto sharded =
      ShardedIndex::Create(dim, Options(ApproxAlgorithm::kSphere), sopts);
  ASSERT_TRUE(sharded.ok());
  Oracle oracle(dim);

  // Every point lands in the first uniform slab: maximal skew.
  Rng rng(0x53e1);
  for (size_t i = 0; i < 120; ++i) {
    std::vector<double> p{0.2 * rng.NextDouble(), rng.NextDouble()};
    auto want = oracle.index.Insert(p);
    auto got = (*sharded)->Insert(p);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(*got, *want);
  }
  EXPECT_GT((*sharded)->epoch(), 0u) << "skew must have forced a rebalance";

  // The rebalanced shards are quantile-balanced.
  ShardedIndex::ShardStats st = (*sharded)->Stats();
  uint64_t max_live = 0;
  uint64_t total = 0;
  for (uint64_t l : st.live) {
    max_live = std::max(max_live, l);
    total += l;
  }
  EXPECT_EQ(total, 120u);
  EXPECT_LE(max_live, 2 * (total / st.live.size()))
      << "rebalance left the index skewed";

  // Bit-identical to the oracle after the move (unweighted metric: the
  // re-partition re-inserts the exact original coordinates).
  DifferentialQueries(**sharded, oracle.index, 20, 0x900d);
  EXPECT_TRUE((*sharded)->CheckInvariants(30).ok());
}

TEST(ShardRebalanceTest, TargetPointsPerShardResizesShardCount) {
  const size_t dim = 2;
  ShardedOptions sopts;
  sopts.num_shards = 1;
  sopts.auto_rebalance = true;
  sopts.min_rebalance_points = 16;
  sopts.target_points_per_shard = 16;
  auto sharded =
      ShardedIndex::Create(dim, Options(ApproxAlgorithm::kSphere), sopts);
  ASSERT_TRUE(sharded.ok());
  Oracle oracle(dim);

  Rng rng(0x512e);
  for (size_t i = 0; i < 64; ++i) {
    std::vector<double> p{rng.NextDouble(), rng.NextDouble()};
    ASSERT_TRUE(oracle.index.Insert(p).ok());
    ASSERT_TRUE((*sharded)->Insert(p).ok());
  }
  EXPECT_EQ((*sharded)->num_shards(), 4u) << "64 live / 16 target = 4 shards";
  DifferentialQueries(**sharded, oracle.index, 15, 0x1234);
  EXPECT_TRUE((*sharded)->CheckInvariants(25).ok());

  // Shrink back: delete most points and force a rebalance.
  for (uint64_t id = 8; id < 64; ++id) {
    ASSERT_TRUE((*sharded)->Delete(id).ok());
    ASSERT_TRUE(oracle.index.Delete(id).ok());
  }
  ASSERT_TRUE((*sharded)->Rebalance(/*force=*/true).ok());
  EXPECT_EQ((*sharded)->num_shards(), 1u);
  DifferentialQueries(**sharded, oracle.index, 10, 0x4321);
}

// --- durable mode ---------------------------------------------------------

class ShardDurableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "shard_durable_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ShardDurableTest, OpenTakesTheCallersThreadCount) {
  for (size_t threads : {1u, 2u}) {
    NNCellOptions opts = Options(ApproxAlgorithm::kSphere);
    opts.parallel.num_threads = threads;
    auto sharded = ShardedIndex::Open(dir_, 2, opts, Durable(), Sharded(2));
    ASSERT_TRUE(sharded.ok()) << sharded.status().message();
    EXPECT_EQ((*sharded)->num_threads(), threads);
  }
}

TEST_F(ShardDurableTest, ReopenRecoversExactState) {
  const size_t dim = 2;
  Oracle oracle(dim);
  Rng rng(0xd002);
  std::vector<std::vector<double>> inserted;
  {
    auto sharded = ShardedIndex::Open(dir_, dim,
                                      Options(ApproxAlgorithm::kSphere),
                                      Durable(), Sharded(3));
    ASSERT_TRUE(sharded.ok()) << sharded.status().message();
    for (size_t i = 0; i < 40; ++i) {
      std::vector<double> p{rng.NextDouble(), rng.NextDouble()};
      inserted.push_back(p);
      ASSERT_TRUE(oracle.index.Insert(p).ok());
      ASSERT_TRUE((*sharded)->Insert(p).ok());
    }
    ASSERT_TRUE((*sharded)->Delete(7).ok());
    ASSERT_TRUE(oracle.index.Delete(7).ok());
    ASSERT_TRUE((*sharded)->Checkpoint().ok());
    // Post-checkpoint tail, replayed from the WALs on reopen.
    for (size_t i = 0; i < 6; ++i) {
      std::vector<double> p{rng.NextDouble(), rng.NextDouble()};
      inserted.push_back(p);
      ASSERT_TRUE(oracle.index.Insert(p).ok());
      ASSERT_TRUE((*sharded)->Insert(p).ok());
    }
    ASSERT_TRUE((*sharded)->Delete(42).ok());
    ASSERT_TRUE(oracle.index.Delete(42).ok());
  }

  ShardedIndex::RecoveryInfo info;
  auto reopened = ShardedIndex::Open(dir_, dim,
                                     Options(ApproxAlgorithm::kSphere),
                                     Durable(), Sharded(3), &info);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_FALSE(info.created);
  EXPECT_EQ(info.reconciled_inserts, 0u);
  EXPECT_EQ(info.reconciled_deletes, 0u);
  EXPECT_FALSE((*reopened)->degraded());
  EXPECT_EQ((*reopened)->size(), oracle.index.size());
  for (uint64_t id = 0; id < inserted.size(); ++id) {
    EXPECT_EQ((*reopened)->IsAlive(id), oracle.index.IsAlive(id)) << id;
  }
  DifferentialQueries(**reopened, oracle.index, 15, 0xbeef);
  EXPECT_TRUE((*reopened)->CheckInvariants(25).ok());

  // New global ids continue after the recovered ones.
  auto next = (*reopened)->Insert({0.111, 0.222});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, inserted.size());
}

TEST_F(ShardDurableTest, DurableRebalanceSurvivesReopen) {
  const size_t dim = 2;
  Oracle oracle(dim);
  Rng rng(0x4eb1);
  {
    auto sharded = ShardedIndex::Open(dir_, dim,
                                      Options(ApproxAlgorithm::kSphere),
                                      Durable(), Sharded(4));
    ASSERT_TRUE(sharded.ok());
    for (size_t i = 0; i < 48; ++i) {
      std::vector<double> p{0.25 * rng.NextDouble(), rng.NextDouble()};
      ASSERT_TRUE(oracle.index.Insert(p).ok());
      ASSERT_TRUE((*sharded)->Insert(p).ok());
    }
    ASSERT_TRUE((*sharded)->Rebalance(/*force=*/true).ok());
    EXPECT_EQ((*sharded)->epoch(), 1u);
    DifferentialQueries(**sharded, oracle.index, 10, 0x11);
  }
  auto reopened = ShardedIndex::Open(dir_, dim,
                                     Options(ApproxAlgorithm::kSphere),
                                     Durable(), Sharded(4));
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->epoch(), 1u);
  EXPECT_FALSE((*reopened)->degraded());
  DifferentialQueries(**reopened, oracle.index, 15, 0x22);
  EXPECT_TRUE((*reopened)->CheckInvariants(25).ok());
}

TEST_F(ShardDurableTest, UnsupportedManifestVersionIsInvalidArgument) {
  {
    auto sharded = ShardedIndex::Open(dir_, 2,
                                      Options(ApproxAlgorithm::kSphere),
                                      Durable(), Sharded(2));
    ASSERT_TRUE(sharded.ok());
    ASSERT_TRUE((*sharded)->Insert({0.1, 0.2}).ok());
  }
  // Patch only the version field (u32 LE at byte 8). The CRC is *not*
  // fixed up: version skew must be detected before the checksum, so a
  // future format is reported as skew, not corruption.
  const std::string path = dir_ + "/" + shard::kShardManifestFileName;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(8);
    const uint32_t v = 99;
    f.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  auto reopened = ShardedIndex::Open(dir_, 2,
                                     Options(ApproxAlgorithm::kSphere),
                                     Durable(), Sharded(2));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reopened.status().message().find(
                "unsupported shard manifest version 99 (this build reads "
                "version 1)"),
            std::string::npos)
      << reopened.status().message();
}

TEST_F(ShardDurableTest, CorruptManifestPayloadIsChecksumMismatch) {
  {
    auto sharded = ShardedIndex::Open(dir_, 2,
                                      Options(ApproxAlgorithm::kSphere),
                                      Durable(), Sharded(4));
    ASSERT_TRUE(sharded.ok());
    ASSERT_TRUE((*sharded)->Insert({0.1, 0.2}).ok());
  }
  const std::string path = dir_ + "/" + shard::kShardManifestFileName;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(shard::kShardManifestHeaderBytes) + 2);
    char b = '\x5a';
    f.write(&b, 1);
  }
  auto reopened = ShardedIndex::Open(dir_, 2,
                                     Options(ApproxAlgorithm::kSphere),
                                     Durable(), Sharded(4));
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("checksum mismatch"),
            std::string::npos)
      << reopened.status().message();
}

// --- degraded mode: one corrupt shard must not destroy the index ----------

TEST_F(ShardDurableTest, SingleShardCorruptionDegradesOnlyThatShard) {
  const size_t dim = 2;
  PointSet pts = RandomPoints(48, dim, 0xc0de);
  {
    auto sharded = ShardedIndex::Open(dir_, dim,
                                      Options(ApproxAlgorithm::kSphere),
                                      Durable(), Sharded(4));
    ASSERT_TRUE(sharded.ok());
    ASSERT_TRUE((*sharded)->BulkBuild(pts).ok());
    ShardedIndex::ShardStats st = (*sharded)->Stats();
    for (uint64_t l : st.live) ASSERT_GT(l, 0u);
  }

  // Flip one byte in the middle of shard 2's snapshot.
  const std::string snap = dir_ + "/shard-2/snapshot.nncell";
  ASSERT_TRUE(std::filesystem::exists(snap));
  {
    const auto size = std::filesystem::file_size(snap);
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char b = 0;
    f.read(&b, 1);
    f.seekp(static_cast<std::streamoff>(size / 2));
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }

  ShardedIndex::RecoveryInfo info;
  auto reopened = ShardedIndex::Open(dir_, dim,
                                     Options(ApproxAlgorithm::kSphere),
                                     Durable(), Sharded(4), &info);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE((*reopened)->degraded());
  EXPECT_EQ((*reopened)->degraded_shards(), 1u);
  EXPECT_TRUE((*reopened)->ShardStatus(0).ok());
  EXPECT_TRUE((*reopened)->ShardStatus(1).ok());
  EXPECT_TRUE((*reopened)->ShardStatus(3).ok());
  const Status bad = (*reopened)->ShardStatus(2);
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(info.shards[2].status.ok());

  // Queries answer from the healthy shards: brute-force reference over
  // every point routed outside shard 2's slab.
  ShardedIndex::ShardStats st = (*reopened)->Stats();
  auto route = [&](const double* p) {
    const double c = p[st.route_dim];
    size_t s = 0;
    while (s < st.cuts.size() && st.cuts[s] <= c) ++s;
    return s;
  };
  Rng rng(0xdead);
  for (int t = 0; t < 10; ++t) {
    std::vector<double> q{rng.NextDouble(), rng.NextDouble()};
    uint64_t best_id = 0;
    double best_d2 = 1e300;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (route(pts[i]) == 2) continue;
      double d2 = 0;
      for (size_t j = 0; j < dim; ++j) {
        const double d = pts[i][j] - q[j];
        d2 += d * d;
      }
      if (d2 < best_d2) {
        best_d2 = d2;
        best_id = i;
      }
    }
    auto got = (*reopened)->Query(q.data());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->id, best_id) << "degraded query " << t;
  }

  // Writes touching the dead shard fail with a precise status; the rest
  // of the index stays writable.
  std::vector<double> into_dead{0.0, 0.5};
  // Find a coordinate routed to shard 2.
  while (route(into_dead.data()) != 2) into_dead[0] += 0.01;
  auto ins = (*reopened)->Insert(into_dead);
  EXPECT_EQ(ins.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(ins.status().message().find("shard 2 is unavailable"),
            std::string::npos)
      << ins.status().message();

  std::vector<double> into_live{0.0, 0.5};
  while (route(into_live.data()) == 2) into_live[0] += 0.01;
  EXPECT_TRUE((*reopened)->Insert(into_live).ok());

  // Rebalance refuses while degraded.
  Status reb = (*reopened)->Rebalance(/*force=*/true);
  EXPECT_EQ(reb.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reb.message().find("degraded"), std::string::npos);
}

// --- pinned state digests --------------------------------------------------

// Pins what a fixed sequence leaves behind: BulkBuild, inserts and deletes
// (stage 1), then a forced Rebalance that changes the shard count through
// target_points_per_shard, 1 -> 2 and 3 -> 2 shards (stage 2). Durable: the
// CRC32C of every file's path and ByteDigest after each stage, the second
// after a Checkpoint. In memory: the CRC32C of ShardStatsJson() and of
// fixed NN, kNN and range answers after each stage. The partition, the
// cuts, the router map, the shard builds, the scatter-gather merge and its
// probe counts decide these bytes. Re-pin only in a change that means to
// alter one of them, and say why.
struct ShardDigestCase {
  const char* name;
  size_t shards;
  uint32_t durable;  // directory files after both stages
  uint32_t memory;   // ShardStatsJson() and the answers after both stages
};

void PrintTo(const ShardDigestCase& c, std::ostream* os) { *os << c.name; }

constexpr size_t kDigestDim = 2;

ShardedOptions DigestOptions(size_t k) {
  ShardedOptions s = Sharded(k);
  s.target_points_per_shard = 700;  // 1,206 live points -> 2 shards
  return s;
}

// Stage 1: BulkBuild, inserts and deletes.
void RunDigestWrites(ShardedIndex* idx) {
  ASSERT_TRUE(idx->BulkBuild(GenerateUniform(1200, kDigestDim, 11)).ok());
  const PointSet extra = GenerateUniform(12, kDigestDim, 12);
  std::vector<uint64_t> inserted;
  for (size_t i = 0; i < extra.size(); ++i) {
    auto id = idx->Insert(extra.Get(i));
    ASSERT_TRUE(id.ok()) << id.status().message();
    inserted.push_back(*id);
  }
  for (uint64_t id : {uint64_t{0}, uint64_t{7}, uint64_t{600},
                      uint64_t{1199}, inserted[2], inserted[9]}) {
    ASSERT_TRUE(idx->Delete(id).ok());
  }
  ASSERT_TRUE(idx->CheckInvariants(20).ok());
}

// Stage 2: the forced Rebalance.
void RunDigestRebalance(ShardedIndex* idx) {
  ASSERT_TRUE(idx->Rebalance(/*force=*/true).ok());
  ASSERT_EQ(idx->num_shards(), 2u);
  ASSERT_TRUE(idx->CheckInvariants(20).ok());
}

uint32_t ExtendResult(uint32_t crc, const NNCellIndex::QueryResult& r) {
  uint64_t words[2] = {r.id, 0};
  std::memcpy(&words[1], &r.dist, sizeof(double));
  return Crc32cExtend(crc, words, sizeof(words));
}

// Every regular file under `dir` as (relative path, ByteDigest of its
// bytes), sorted by path.
uint32_t ExtendDirectory(uint32_t crc, const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) {
      files.push_back(std::filesystem::relative(e.path(), dir).string());
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::string& f : files) {
    std::ifstream in(dir + "/" + f, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const uint32_t content = ByteDigest(bytes.data(), bytes.size());
    crc = Crc32cExtend(crc, f.data(), f.size());
    crc = Crc32cExtend(crc, &content, sizeof(content));
  }
  return crc;
}

// NN (id, distance bits, candidates), kNN and range answers of fixed
// queries, then ShardStatsJson(), which counts their probes.
uint32_t ExtendAnswers(uint32_t crc, const ShardedIndex& idx) {
  const PointSet queries = GenerateUniform(8, kDigestDim, 13);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto nn = idx.Query(queries[i]);
    EXPECT_TRUE(nn.ok());
    if (!nn.ok()) return crc;
    crc = ExtendResult(crc, *nn);
    const uint64_t candidates = nn->candidates;
    crc = Crc32cExtend(crc, &candidates, sizeof(candidates));
    auto knn = idx.KnnQuery(queries[i], 5);
    EXPECT_TRUE(knn.ok());
    if (!knn.ok()) return crc;
    for (const auto& r : *knn) crc = ExtendResult(crc, r);
    auto range = idx.RangeSearch(queries[i], 0.1);
    EXPECT_TRUE(range.ok());
    if (!range.ok()) return crc;
    for (const auto& r : *range) crc = ExtendResult(crc, r);
  }
  const std::string stats = idx.ShardStatsJson();
  return Crc32cExtend(crc, stats.data(), stats.size());
}

class ShardDigestTest : public ::testing::TestWithParam<ShardDigestCase> {};

TEST_P(ShardDigestTest, DurableFilesMatchPinnedDigest) {
  const ShardDigestCase& c = GetParam();
  const std::string dir =
      ::testing::TempDir() + "shard_digest_durable_" + c.name;
  std::filesystem::remove_all(dir);
  NNCellOptions opts = Options(ApproxAlgorithm::kSphere);
  opts.parallel.num_threads = 2;
  auto idx = ShardedIndex::Open(dir, kDigestDim, opts, Durable(),
                                DigestOptions(c.shards));
  ASSERT_TRUE(idx.ok()) << idx.status().message();
  RunDigestWrites(idx->get());
  uint32_t crc = ExtendDirectory(0, dir);
  RunDigestRebalance(idx->get());
  ASSERT_TRUE((*idx)->Checkpoint().ok());
  crc = ExtendDirectory(crc, dir);
  EXPECT_EQ(crc, c.durable) << std::hex << crc;
  idx->reset();
  std::filesystem::remove_all(dir);
}

TEST_P(ShardDigestTest, MemoryStateAndAnswersMatchPinnedDigest) {
  const ShardDigestCase& c = GetParam();
  auto idx = ShardedIndex::Create(kDigestDim, Options(ApproxAlgorithm::kSphere),
                                  DigestOptions(c.shards));
  ASSERT_TRUE(idx.ok()) << idx.status().message();
  RunDigestWrites(idx->get());
  uint32_t crc = ExtendAnswers(0, **idx);
  RunDigestRebalance(idx->get());
  crc = ExtendAnswers(crc, **idx);
  EXPECT_EQ(crc, c.memory) << std::hex << crc << "\n"
                           << (*idx)->ShardStatsJson();
}

INSTANTIATE_TEST_SUITE_P(
    RebalancedShards, ShardDigestTest,
    ::testing::Values(ShardDigestCase{"k1", 1, 0x025b349c, 0x7aad2211},
                      ShardDigestCase{"k3", 3, 0xd2acd846, 0x483320d0}),
    [](const ::testing::TestParamInfo<ShardDigestCase>& info) {
      return std::string(info.param.name);
    });

// --- crash matrix over the rebalance install protocol ---------------------

#if NNCELL_FAILPOINTS

struct ShardOp {
  enum Kind { kInsert, kDelete, kCheckpoint, kRebalance } kind;
  std::vector<double> point;
  uint64_t id = 0;
};

std::vector<ShardOp> ShardWorkload() {
  std::vector<ShardOp> ops;
  Rng rng(0x57ac);
  auto insert = [&](double lo, double hi) {
    ops.push_back({ShardOp::kInsert,
                   {lo + (hi - lo) * rng.NextDouble(), rng.NextDouble()},
                   0});
  };
  for (int i = 0; i < 8; ++i) insert(0.0, 1.0);
  ops.push_back({ShardOp::kCheckpoint, {}, 0});
  for (int i = 0; i < 6; ++i) insert(0.0, 0.2);  // skew into the low slab
  ops.push_back({ShardOp::kRebalance, {}, 0});
  for (int i = 0; i < 4; ++i) insert(0.0, 1.0);
  ops.push_back({ShardOp::kDelete, {}, 2});
  ops.push_back({ShardOp::kCheckpoint, {}, 0});
  return ops;
}

[[noreturn]] void RunShardChild(const std::string& dir,
                                const std::string& ack_path,
                                const std::string& site, int skip) {
  failpoint::Arm(site, failpoint::Action::kCrash, skip);
  int ack_fd = ::open(ack_path.c_str(),
                      O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (ack_fd < 0) ::_exit(3);
  ShardedOptions sopts = Sharded(3);
  auto idx = ShardedIndex::Open(dir, 2, Options(ApproxAlgorithm::kSphere),
                                Durable(), sopts);
  if (!idx.ok()) ::_exit(3);
  for (const ShardOp& op : ShardWorkload()) {
    Status st = Status::OK();
    switch (op.kind) {
      case ShardOp::kInsert: st = (*idx)->Insert(op.point).status(); break;
      case ShardOp::kDelete: st = (*idx)->Delete(op.id); break;
      case ShardOp::kCheckpoint: st = (*idx)->Checkpoint(); break;
      case ShardOp::kRebalance: st = (*idx)->Rebalance(true); break;
    }
    if (!st.ok()) ::_exit(4);
    if (::write(ack_fd, "A", 1) != 1 || ::fsync(ack_fd) != 0) ::_exit(3);
  }
  ::_exit(0);
}

// Live global-id set of the oracle after the first `n_ops` operations.
std::set<uint64_t> ShardOracleAfter(size_t n_ops) {
  std::set<uint64_t> live;
  uint64_t next = 0;
  std::vector<ShardOp> ops = ShardWorkload();
  for (size_t i = 0; i < n_ops && i < ops.size(); ++i) {
    switch (ops[i].kind) {
      case ShardOp::kInsert: live.insert(next++); break;
      case ShardOp::kDelete: live.erase(ops[i].id); break;
      default: break;
    }
  }
  return live;
}

std::set<uint64_t> ShardLive(const ShardedIndex& idx, size_t upper) {
  std::set<uint64_t> live;
  for (uint64_t g = 0; g < upper; ++g) {
    if (idx.IsAlive(g)) live.insert(g);
  }
  return live;
}

class ShardCrashMatrixTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ShardCrashMatrixTest, RecoversAcknowledgedPrefix) {
  const std::string site = GetParam();
  std::string safe_site = site;
  for (char& c : safe_site) {
    if (c == '.') c = '_';
  }
  for (int skip = 0; skip <= 2; ++skip) {
    const std::string base = ::testing::TempDir() + "shard_crash_" +
                             safe_site + "_s" + std::to_string(skip);
    const std::string dir = base + ".d";
    const std::string ack_path = base + ".ack";
    std::filesystem::remove_all(dir);
    std::remove(ack_path.c_str());

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) RunShardChild(dir, ack_path, site, skip);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus)) << site << " skip " << skip;
    const int code = WEXITSTATUS(wstatus);
    ASSERT_TRUE(code == 0 || code == failpoint::kCrashExitCode)
        << site << " skip " << skip << ": child exited " << code;

    size_t acked = 0;
    if (std::filesystem::exists(ack_path)) {
      acked = std::filesystem::file_size(ack_path);
    }

    ShardedIndex::RecoveryInfo info;
    auto recovered = ShardedIndex::Open(dir, 2,
                                        Options(ApproxAlgorithm::kSphere),
                                        Durable(), Sharded(3), &info);
    ASSERT_TRUE(recovered.ok())
        << site << " skip " << skip << " acked " << acked << ": "
        << recovered.status().message();
    ASSERT_FALSE((*recovered)->degraded())
        << site << " skip " << skip << ": no injected state may degrade";
    EXPECT_EQ((*recovered)->ValidateTree(), "") << site << " skip " << skip;

    const size_t total_ops = ShardWorkload().size();
    const std::set<uint64_t> got = ShardLive(**recovered, 64);
    const std::set<uint64_t> at_ack = ShardOracleAfter(acked);
    if (got != at_ack) {
      // The operation in flight at the crash may have become durable.
      const std::set<uint64_t> next = ShardOracleAfter(acked + 1);
      ASSERT_EQ(got, next)
          << site << " skip " << skip << " acked " << acked << "/"
          << total_ops;
    }
    ASSERT_TRUE((*recovered)->CheckInvariants(20).ok())
        << site << " skip " << skip;

    std::filesystem::remove_all(dir);
    std::remove(ack_path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, ShardCrashMatrixTest,
    ::testing::Values("shard.rebalance.stage", "shard.rebalance.commit",
                      "shard.rebalance.finalize", "fs.atomic_write.data",
                      "fs.atomic_write.rename", "wal.append.write"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

#endif  // NNCELL_FAILPOINTS

}  // namespace
}  // namespace nncell
