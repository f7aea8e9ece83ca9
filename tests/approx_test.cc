// Approximate query tier tests (docs/APPROXIMATE.md): the exactness
// contract as an executable property -- epsilon = 0 with an unlimited
// budget must answer bit-identically to the exact tier across algorithms,
// dimensionalities and shard counts -- plus the certificate-soundness
// property (every returned distance obeys the certified (1+eps) bound
// against a sequential-scan oracle on every query), the bounded-effort
// budget contract, and the wire-protocol round trip of the approx request
// block and the per-result certificate.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/approx.h"
#include "common/metrics.h"
#include "common/metrics_names.h"
#include "common/point_set.h"
#include "common/rng.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "scan/sequential_scan.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "server/server.h"
#include "shard/sharded_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "test_printers.h"

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

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Bit-identity, not numerical closeness: the exactness contract promises
// the approximate entry points are the same code path when disabled.
void ExpectBitIdentical(const NNCellIndex::QueryResult& exact,
                        const NNCellIndex::QueryResult& routed,
                        const std::string& what) {
  EXPECT_EQ(exact.id, routed.id) << what;
  EXPECT_EQ(Bits(exact.dist), Bits(routed.dist)) << what;
  EXPECT_EQ(exact.point, routed.point) << what;
  EXPECT_EQ(exact.candidates, routed.candidates) << what;
}

// --- the exactness contract: eps=0 + unlimited budget == exact tier ------

using ExactParam = std::tuple<ApproxAlgorithm, size_t, size_t>;

class ApproxExactnessTest : public ::testing::TestWithParam<ExactParam> {};

TEST_P(ApproxExactnessTest, DisabledOptionsAreBitIdentical) {
  const auto [algo, dim, shards] = GetParam();
  const size_t n = dim <= 2 ? 90 : (dim <= 8 ? 50 : 36);
  PointSet pts = RandomPoints(n, dim, 0xa11ce + dim * 31 + shards);

  NNCellOptions options;
  options.algorithm = algo;

  // Disabled options: explicit epsilon = 0 and the documented unlimited
  // budget sentinel. enabled() must be false.
  ApproxOptions disabled;
  disabled.epsilon = 0.0;
  disabled.max_leaf_visits = kUnlimitedLeafVisits;
  ASSERT_FALSE(disabled.enabled());

  IndexUnderTest plain = MakeIndex(dim, options);
  ASSERT_TRUE(plain.index->BulkBuild(pts).ok());

  auto sharded = ShardedIndex::Create(dim, options, [&] {
    ShardedOptions s;
    s.num_shards = shards;
    s.auto_rebalance = false;
    return s;
  }());
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  ASSERT_TRUE((*sharded)->BulkBuild(pts).ok());

  // Every approximate traversal bumps this counter, and its certificate
  // always reports at least one leaf visit; an exact-path answer does
  // neither. Together they prove the disabled calls never left the exact
  // tier, including the entry points with no separate exact overload.
  metrics::Counter* approx_count =
      metrics::Registry::Global().counter(metrics::kApproxQueryCount);
  const bool metrics_were_enabled = metrics::Registry::Enabled();
  metrics::Registry::SetEnabled(true);
  const uint64_t approx_before = approx_count->Value();
  auto expect_exact_path = [](const NNCellIndex::QueryResult& r,
                              const std::string& what) {
    EXPECT_FALSE(r.approx.approximate) << what;
    EXPECT_EQ(r.approx.leaf_visits, 0u) << what;
  };

  Rng rng(0xe9 + dim);
  PointSet queries(dim);
  std::vector<double> q(dim);
  std::vector<NNCellIndex::QueryResult> serial_exact;
  for (size_t i = 0; i < 16; ++i) {
    for (double& v : q) v = rng.NextDouble();
    queries.Add(q);

    const std::string tag = "query " + std::to_string(i);
    // The traced overload is the cell-index path with no approx dispatch.
    auto exact = plain.index->Query(q.data(), /*trace=*/nullptr);
    auto by_default = plain.index->Query(q.data());
    auto routed = plain.index->Query(q.data(), disabled);
    ASSERT_TRUE(exact.ok() && by_default.ok() && routed.ok()) << tag;
    ExpectBitIdentical(*exact, *by_default, tag + " default");
    ExpectBitIdentical(*exact, *routed, tag);
    expect_exact_path(*routed, tag);
    serial_exact.push_back(*exact);

    for (const ApproxOptions& opts : {ApproxOptions{}, disabled}) {
      auto knn = plain.index->KnnQuery(q.data(), 5, opts);
      auto s_knn = (*sharded)->KnnQuery(q.data(), 5, opts);
      ASSERT_TRUE(knn.ok() && s_knn.ok()) << tag;
      ASSERT_EQ(knn->size(), 5u) << tag;
      ASSERT_EQ(s_knn->size(), knn->size()) << tag;
      // The 1-NN answer heads the k-NN list.
      EXPECT_EQ(knn->front().id, exact->id) << tag;
      EXPECT_EQ(Bits(knn->front().dist), Bits(exact->dist)) << tag;
      for (size_t j = 0; j < knn->size(); ++j) {
        const std::string what = tag + " knn " + std::to_string(j);
        expect_exact_path((*knn)[j], what);
        expect_exact_path((*s_knn)[j], "sharded " + what);
        EXPECT_EQ((*knn)[j].id, (*s_knn)[j].id) << what;
        EXPECT_EQ(Bits((*knn)[j].dist), Bits((*s_knn)[j].dist)) << what;
      }

      auto s_nn = (*sharded)->Query(q.data(), opts);
      ASSERT_TRUE(s_nn.ok()) << tag;
      expect_exact_path(*s_nn, tag + " sharded");
      EXPECT_EQ(s_nn->id, exact->id) << tag;
      EXPECT_EQ(Bits(s_nn->dist), Bits(exact->dist)) << tag;
    }
  }

  // The batch entry points agree with the serial exact loop. (Plain and
  // sharded differ only in candidate counts, which legitimately change
  // across the scatter-gather merge; ids and distances never do.)
  for (const ApproxOptions& opts : {ApproxOptions{}, disabled}) {
    auto batch = plain.index->QueryBatch(queries, opts);
    auto s_batch = (*sharded)->QueryBatch(queries, opts);
    ASSERT_TRUE(batch.ok() && s_batch.ok());
    ASSERT_EQ(batch->size(), serial_exact.size());
    ASSERT_EQ(s_batch->size(), serial_exact.size());
    for (size_t i = 0; i < serial_exact.size(); ++i) {
      const std::string what = "batch " + std::to_string(i);
      ExpectBitIdentical(serial_exact[i], (*batch)[i], what);
      expect_exact_path((*s_batch)[i], "sharded " + what);
      EXPECT_EQ(serial_exact[i].id, (*s_batch)[i].id) << what;
      EXPECT_EQ(Bits(serial_exact[i].dist), Bits((*s_batch)[i].dist)) << what;
    }
  }

  metrics::Registry::SetEnabled(metrics_were_enabled);
#if NNCELL_METRICS
  EXPECT_EQ(approx_count->Value(), approx_before)
      << "a disabled-options call ran the approximate traversal";
#else
  (void)approx_before;
#endif
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsByDimByShards, ApproxExactnessTest,
    ::testing::Combine(
        ::testing::Values(ApproxAlgorithm::kCorrect, ApproxAlgorithm::kPoint,
                          ApproxAlgorithm::kSphere,
                          ApproxAlgorithm::kNNDirection),
        ::testing::Values<size_t>(2, 8, 16), ::testing::Values<size_t>(1, 4)),
    [](const ::testing::TestParamInfo<ExactParam>& info) {
      std::string algo = ApproxAlgorithmName(std::get<0>(info.param));
      algo.erase(std::remove_if(algo.begin(), algo.end(),
                                [](char c) { return !std::isalnum(c); }),
                 algo.end());
      return algo + "_d" + std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

// --- certificate soundness ------------------------------------------------

// Oracle over the live points of `index` in its metric space: the index's
// internal coordinates are what QueryResult::dist measures, so scan
// distances compare directly (docs/APPROXIMATE.md, proof obligation).
struct ScanOracle {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<SequentialScan> scan;
};

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

// FP slack for the certified comparisons: the two sides accumulate the
// same sums in different orders, so allow a relative 1e-12.
constexpr double kUlp = 1.0 + 1e-12;

// The certificate contract of docs/APPROXIMATE.md. `strict_bound` is the
// single-index strengthening: on one tree the eps rule fires before
// exactness is proven, so the frontier bound also sits under the true
// distance and within (1+eps) of the answer. A sharded merge loses that
// (an exact shard's bound may exceed its own -- and the global -- answer)
// but keeps the uniform guarantee: the true NN distance is at least
// min(returned dist, bound).
void CheckCertificate(const NNCellIndex::QueryResult& r, double oracle_dist,
                      const ApproxOptions& approx, bool strict_bound,
                      const std::string& tag) {
  // The returned point is real, so it can never beat the true NN.
  EXPECT_LE(oracle_dist, r.dist * kUlp) << tag;
  // approximate is exactly the disjunction of the two causes.
  EXPECT_EQ(r.approx.approximate,
            r.approx.terminated_early || r.approx.truncated)
      << tag;
  if (!r.approx.truncated) {
    // Certified: with an unexhausted budget the answer is within (1+eps)
    // of the true nearest neighbor.
    EXPECT_LE(r.dist, (1.0 + approx.epsilon) * oracle_dist * kUlp) << tag;
  }
  if (r.approx.approximate) {
    // Uniform bound soundness: no unexplored region holds a point closer
    // than min(dist, bound). The bound alone may exceed the oracle
    // distance when the true NN was explored before the search stopped.
    EXPECT_LE(std::min(r.dist, r.approx.bound), oracle_dist * kUlp) << tag;
  }
  if (strict_bound && r.approx.terminated_early && !r.approx.truncated) {
    EXPECT_LE(r.approx.bound, oracle_dist * kUlp) << tag;
    EXPECT_LE(r.dist, (1.0 + approx.epsilon) * r.approx.bound * kUlp) << tag;
  }
  if (approx.max_leaf_visits != kUnlimitedLeafVisits) {
    EXPECT_LE(r.approx.leaf_visits, approx.max_leaf_visits) << tag;
  }
}

class CertificateSoundnessTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(CertificateSoundnessTest, EveryAnswerObeysItsCertificate) {
  const auto [dim, seed] = GetParam();
  const size_t n = dim <= 2 ? 400 : 250;

  NNCellOptions options;
  options.algorithm = ApproxAlgorithm::kSphere;
  IndexUnderTest t = MakeIndex(dim, options);
  ASSERT_TRUE(t.index->BulkBuild(RandomPoints(n, dim, seed)).ok());
  ScanOracle oracle = MakeOracle(*t.index);

  const double epsilons[] = {0.0, 0.05, 0.1, 0.5, 2.0};
  const uint64_t budgets[] = {kUnlimitedLeafVisits, 1, 2, 8};

  Rng rng(seed ^ 0xce27);
  std::vector<double> q(dim);
  for (size_t i = 0; i < 25; ++i) {
    for (double& v : q) v = rng.NextDouble();
    const double oracle_dist = oracle.scan->NearestNeighbor(q.data()).dist;
    for (double eps : epsilons) {
      for (uint64_t budget : budgets) {
        ApproxOptions approx;
        approx.epsilon = eps;
        approx.max_leaf_visits = budget;
        auto r = t.index->Query(q.data(), approx);
        ASSERT_TRUE(r.ok());
        const std::string tag = "query " + std::to_string(i) + " eps=" +
                                std::to_string(eps) + " budget=" +
                                std::to_string(budget);
        CheckCertificate(*r, oracle_dist, approx, /*strict_bound=*/true, tag);
        if (approx.enabled()) {
          EXPECT_GT(r->approx.leaf_visits, 0u) << tag;
          EXPECT_GT(r->approx.bound, 0.0) << tag;
        }
        // eps=0 with an unlimited budget is the exact tier: never flagged.
        if (!approx.enabled()) {
          EXPECT_FALSE(r->approx.approximate) << tag;
          EXPECT_EQ(r->approx.leaf_visits, 0u) << tag;
        }
      }
    }

    // kNN: every returned distance is within (1+eps) of the true i-th NN
    // distance when the budget did not truncate the search.
    ApproxOptions approx;
    approx.epsilon = 0.1;
    auto knn = t.index->KnnQuery(q.data(), 5, approx);
    ASSERT_TRUE(knn.ok());
    auto true_knn = oracle.scan->KnnQuery(q.data(), 5);
    ASSERT_EQ(knn->size(), true_knn.size());
    for (size_t j = 0; j < knn->size(); ++j) {
      EXPECT_FALSE((*knn)[j].approx.truncated);
      EXPECT_LE((*knn)[j].dist,
                (1.0 + approx.epsilon) * true_knn[j].dist * kUlp)
          << "knn rank " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsBySeeds, CertificateSoundnessTest,
    ::testing::Combine(::testing::Values<size_t>(2, 8, 16),
                       ::testing::Values<uint64_t>(0xf00d, 0xbeef)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, uint64_t>>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param) & 0xffff);
    });

// Certificates survive the sharded scatter-gather merge: flags OR'd,
// leaf visits summed, and the merged bound still certifies the answer.
TEST(ApproxShardedTest, MergedCertificateStaysSound) {
  const size_t dim = 8;
  NNCellOptions options;
  options.algorithm = ApproxAlgorithm::kSphere;

  IndexUnderTest plain = MakeIndex(dim, options);
  PointSet pts = RandomPoints(300, dim, 0x5a5a);
  ASSERT_TRUE(plain.index->BulkBuild(pts).ok());
  ScanOracle oracle = MakeOracle(*plain.index);

  ShardedOptions sopts;
  sopts.num_shards = 4;
  sopts.auto_rebalance = false;
  auto sharded = ShardedIndex::Create(dim, options, sopts);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE((*sharded)->BulkBuild(pts).ok());

  Rng rng(0x77aa);
  std::vector<double> q(dim);
  for (size_t i = 0; i < 30; ++i) {
    for (double& v : q) v = rng.NextDouble();
    const double oracle_dist = oracle.scan->NearestNeighbor(q.data()).dist;
    for (double eps : {0.1, 0.5}) {
      ApproxOptions approx;
      approx.epsilon = eps;
      auto r = (*sharded)->Query(q.data(), approx);
      ASSERT_TRUE(r.ok());
      const std::string tag =
          "query " + std::to_string(i) + " eps=" + std::to_string(eps);
      CheckCertificate(*r, oracle_dist, approx, /*strict_bound=*/false, tag);
      EXPECT_GT(r->approx.leaf_visits, 0u) << tag;
    }
    // Per-shard budget: the total is bounded by shards * budget.
    ApproxOptions budgeted;
    budgeted.max_leaf_visits = 2;
    auto r = (*sharded)->Query(q.data(), budgeted);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r->approx.leaf_visits,
              budgeted.max_leaf_visits * (*sharded)->num_shards());
    EXPECT_LE(oracle_dist, r->dist * kUlp);
  }
}

// --- wire protocol ---------------------------------------------------------

namespace srv = ::nncell::server;

TEST(ApproxWireTest, RequestBlockRoundTrip) {
  ApproxOptions approx;
  approx.epsilon = 0.25;
  approx.max_leaf_visits = 77;

  std::string with_approx, without;
  srv::EncodePointPayloadWithApprox({0.5, 0.25}, approx, &with_approx);
  srv::EncodePointPayload({0.5, 0.25}, &without);
  // The approx block is a strict 16-byte suffix: requests without it are
  // byte-identical to the pre-approx protocol.
  ASSERT_EQ(with_approx.size(), without.size() + srv::kApproxRequestBytes);
  EXPECT_EQ(with_approx.compare(0, without.size(), without), 0);

  std::vector<double> point;
  ApproxOptions decoded;
  bool has_approx = false;
  ASSERT_TRUE(srv::DecodePointPayloadWithApprox(with_approx, &point, &decoded,
                                                &has_approx)
                  .ok());
  EXPECT_TRUE(has_approx);
  EXPECT_EQ(decoded.epsilon, approx.epsilon);
  EXPECT_EQ(decoded.max_leaf_visits, approx.max_leaf_visits);
  EXPECT_EQ(point, (std::vector<double>{0.5, 0.25}));

  ASSERT_TRUE(
      srv::DecodePointPayloadWithApprox(without, &point, &decoded, &has_approx)
          .ok());
  EXPECT_FALSE(has_approx);
}

TEST(ApproxWireTest, BatchRequestBlockRoundTrip) {
  ApproxOptions approx;
  approx.epsilon = 0.1;
  std::string payload;
  srv::EncodeBatchPayloadWithApprox({{0.1, 0.2}, {0.3, 0.4}}, approx,
                                    &payload);
  size_t dim = 0, count = 0;
  std::vector<double> flat;
  ApproxOptions decoded;
  bool has_approx = false;
  ASSERT_TRUE(srv::DecodeBatchPayloadWithApprox(payload, &dim, &flat, &count,
                                                &decoded, &has_approx)
                  .ok());
  EXPECT_TRUE(has_approx);
  EXPECT_EQ(dim, 2u);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(decoded.epsilon, 0.1);
}

TEST(ApproxWireTest, RejectsBadEpsilon) {
  for (double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    ApproxOptions approx;
    approx.epsilon = bad;
    std::string payload;
    srv::EncodePointPayloadWithApprox({0.5, 0.5}, approx, &payload);
    std::vector<double> point;
    ApproxOptions decoded;
    bool has_approx = false;
    EXPECT_FALSE(srv::DecodePointPayloadWithApprox(payload, &point, &decoded,
                                                   &has_approx)
                     .ok())
        << "epsilon " << bad << " must be rejected at the wire boundary";
  }
}

// A NaN or infinite coordinate is malformed in every request form, with
// or without the approx block, so it never reaches a coalesced batch.
TEST(ApproxWireTest, RejectsNonFiniteCoordinates) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    const std::vector<double> p = {0.5, bad};
    std::vector<double> point;
    ApproxOptions decoded;
    bool has_approx = false;
    std::string payload;
    srv::EncodePointPayload(p, &payload);
    EXPECT_FALSE(srv::DecodePointPayload(payload, &point).ok()) << bad;
    EXPECT_FALSE(srv::DecodePointPayloadWithApprox(payload, &point, &decoded,
                                                   &has_approx)
                     .ok())
        << bad;
    payload.clear();
    srv::EncodePointPayloadWithApprox(p, ApproxOptions{}, &payload);
    EXPECT_FALSE(srv::DecodePointPayloadWithApprox(payload, &point, &decoded,
                                                   &has_approx)
                     .ok())
        << bad;

    size_t dim = 0, count = 0;
    std::vector<double> flat;
    payload.clear();
    srv::EncodeBatchPayload({{0.1, 0.2}, p}, &payload);
    EXPECT_FALSE(srv::DecodeBatchPayloadWithApprox(payload, &dim, &flat, &count,
                                                   &decoded, &has_approx)
                     .ok())
        << bad;
    payload.clear();
    srv::EncodeBatchPayloadWithApprox({{0.1, 0.2}, p}, ApproxOptions{},
                                      &payload);
    EXPECT_FALSE(srv::DecodeBatchPayloadWithApprox(payload, &dim, &flat, &count,
                                                   &decoded, &has_approx)
                     .ok())
        << bad;
  }
}

TEST(ApproxWireTest, CertificateRoundTripAndLegacyBytes) {
  srv::WireQueryResult r;
  r.id = 42;
  r.dist = 0.125;
  r.candidates = 7;
  r.point = {0.5, 0.5};

  // Legacy encoding first: no certificate, bytes must be stable.
  std::string legacy;
  srv::EncodeQueryResultPayload(r, &legacy);

  r.has_certificate = true;
  r.certificate.approximate = 1;
  r.certificate.terminated_early = 1;
  r.certificate.truncated = 0;
  r.certificate.leaf_visits = 9;
  r.certificate.bound = 0.0625;
  std::string with_cert;
  srv::EncodeQueryResultPayload(r, &with_cert);
  ASSERT_EQ(with_cert.size(), legacy.size() + srv::kApproxCertificateBytes);
  EXPECT_EQ(with_cert.compare(0, legacy.size(), legacy), 0);

  uint8_t status = 0;
  std::string_view body;
  std::string message;
  ASSERT_TRUE(
      srv::DecodeStatusPayload(with_cert, &status, &body, &message).ok());
  srv::WireQueryResult decoded;
  ASSERT_TRUE(srv::DecodeQueryResultBody(body, &decoded,
                                         /*expect_certificate=*/true)
                  .ok());
  EXPECT_EQ(decoded, r);

  // A truncated certificate is a decode error, not a silent fallback.
  ASSERT_TRUE(
      srv::DecodeStatusPayload(with_cert, &status, &body, &message).ok());
  std::string_view short_body = body.substr(0, body.size() - 1);
  EXPECT_FALSE(srv::DecodeQueryResultBody(short_body, &decoded,
                                          /*expect_certificate=*/true)
                   .ok());
}

// --- live server end to end ------------------------------------------------

class ApproxServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ =
        ::testing::TempDir() + "approx_server_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".sock";
    std::filesystem::remove(socket_path_);
    file_ = std::make_unique<PageFile>(1024);
    pool_ = std::make_unique<BufferPool>(file_.get(), 512);
    NNCellOptions opts;
    opts.algorithm = ApproxAlgorithm::kSphere;
    index_ = std::make_unique<NNCellIndex>(pool_.get(), 4, opts);
    Rng rng(0xab5e);
    for (int i = 0; i < 120; ++i) {
      auto id = index_->Insert({rng.NextDouble(), rng.NextDouble(),
                                rng.NextDouble(), rng.NextDouble()});
      ASSERT_TRUE(id.ok());
    }
    srv::ServerOptions sopt;
    sopt.socket_path = socket_path_;
    server_ = std::make_unique<srv::NNCellServer>(index_.get(), sopt);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    ASSERT_TRUE(server_->Stop().ok());
    std::filesystem::remove(socket_path_);
  }

  std::string socket_path_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<NNCellIndex> index_;
  std::unique_ptr<srv::NNCellServer> server_;
};

TEST_F(ApproxServerTest, QueryWithApproxBlockGetsCertificate) {
  auto client = srv::Client::ConnectUnix(socket_path_);
  ASSERT_TRUE(client.ok());
  const std::vector<double> q = {0.3, 0.7, 0.2, 0.9};

  // Default query: no certificate on the wire, same bytes as ever.
  auto plain = client->Query(q);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_certificate);

  // Explicit disabled options: exact answer plus a trivial certificate.
  auto exact = client->Query(q, ApproxOptions{});
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->has_certificate);
  EXPECT_EQ(exact->certificate.approximate, 0);
  EXPECT_EQ(exact->id, plain->id);
  EXPECT_EQ(Bits(exact->dist), Bits(plain->dist));

  // An enabled tier answers with a populated certificate.
  ApproxOptions approx;
  approx.epsilon = 0.2;
  auto certified = client->Query(q, approx);
  ASSERT_TRUE(certified.ok());
  EXPECT_TRUE(certified->has_certificate);
  EXPECT_GT(certified->certificate.leaf_visits, 0u);
  EXPECT_GT(certified->certificate.bound, 0.0);
  // The certified answer can never beat the exact one.
  EXPECT_GE(certified->dist, plain->dist * (1.0 - 1e-12));

  // Batches: per-item certificates, and a mixed run of default and
  // approx-tier requests on one connection answers each correctly.
  auto batch = client->QueryBatch({q, {0.1, 0.1, 0.1, 0.1}}, approx);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);
  for (const auto& r : *batch) {
    EXPECT_TRUE(r.has_certificate);
    EXPECT_GT(r.certificate.leaf_visits, 0u);
  }
  auto plain_batch = client->QueryBatch({q, {0.1, 0.1, 0.1, 0.1}});
  ASSERT_TRUE(plain_batch.ok());
  for (const auto& r : *plain_batch) EXPECT_FALSE(r.has_certificate);
  EXPECT_EQ((*plain_batch)[0].id, plain->id);

  // Budget-capped query over the wire reports its truncation.
  ApproxOptions budgeted;
  budgeted.max_leaf_visits = 1;
  auto capped = client->Query(q, budgeted);
  ASSERT_TRUE(capped.ok());
  EXPECT_TRUE(capped->has_certificate);
  EXPECT_LE(capped->certificate.leaf_visits, 1u);
}

}  // namespace
}  // namespace nncell
