// Weighted Euclidean ("adaptable") similarity search on the NN-cell
// index: d_W(x,y)^2 = sum w_i (x_i - y_i)^2, implemented by the
// sqrt(weight) isometry. All NN-cell machinery must stay exact under any
// positive weight vector.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

double WeightedDistSq(const std::vector<double>& a,
                      const std::vector<double>& b,
                      const std::vector<double>& w) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    s += w[i] * d * d;
  }
  return s;
}

struct WeightedFixture {
  WeightedFixture(size_t dim, std::vector<double> weights,
                  ApproxAlgorithm alg = ApproxAlgorithm::kSphere)
      : file(2048), pool(&file, 16384) {
    NNCellOptions opts;
    opts.algorithm = alg;
    opts.weights = std::move(weights);
    index = std::make_unique<NNCellIndex>(&pool, dim, opts);
  }
  PageFile file;
  BufferPool pool;
  std::unique_ptr<NNCellIndex> index;
};

class WeightedMetricTest
    : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(WeightedMetricTest, QueryMatchesWeightedBruteForce) {
  const std::vector<double>& w = GetParam();
  const size_t dim = w.size();
  Rng rng(99);
  // Keep raw point copies for the oracle (points() returns transformed).
  std::vector<std::vector<double>> raw;
  PointSet pts = GenerateUniform(100, dim, 5);
  WeightedFixture fx(dim, w);
  for (size_t i = 0; i < pts.size(); ++i) {
    raw.push_back(pts.Get(i));
  }
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());

  for (int t = 0; t < 120; ++t) {
    std::vector<double> q(dim);
    for (auto& v : q) v = rng.NextDouble();
    auto r = fx.index->Query(q.data());
    ASSERT_TRUE(r.ok());
    double best = 1e300;
    size_t best_id = 0;
    for (size_t i = 0; i < raw.size(); ++i) {
      double d = WeightedDistSq(raw[i], q, w);
      if (d < best) {
        best = d;
        best_id = i;
      }
    }
    EXPECT_NEAR(r->dist, std::sqrt(best), 1e-9) << "query " << t;
    if (r->id == best_id) {
      // Reported point must be in ORIGINAL coordinates.
      for (size_t i = 0; i < dim; ++i) {
        EXPECT_NEAR(r->point[i], raw[best_id][i], 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Weights, WeightedMetricTest,
    ::testing::Values(std::vector<double>{1.0, 1.0},          // plain L2
                      std::vector<double>{4.0, 1.0},          // x dominates
                      std::vector<double>{0.1, 10.0},         // y dominates
                      std::vector<double>{2.0, 0.5, 1.0},     // 3-d mix
                      std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));

TEST(WeightedMetricTest, KnnMatchesWeightedBruteForce) {
  std::vector<double> w = {3.0, 0.5, 1.5};
  WeightedFixture fx(3, w);
  PointSet pts = GenerateUniform(120, 3, 11);
  std::vector<std::vector<double>> raw;
  for (size_t i = 0; i < pts.size(); ++i) raw.push_back(pts.Get(i));
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  Rng rng(12);
  for (int t = 0; t < 40; ++t) {
    std::vector<double> q = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()};
    auto r = fx.index->KnnQuery(q.data(), 7);
    ASSERT_TRUE(r.ok());
    std::vector<double> dists;
    for (const auto& p : raw) dists.push_back(std::sqrt(WeightedDistSq(p, q, w)));
    std::sort(dists.begin(), dists.end());
    ASSERT_EQ(r->size(), 7u);
    for (size_t i = 0; i < 7; ++i) {
      EXPECT_NEAR((*r)[i].dist, dists[i], 1e-9);
    }
  }
}

TEST(WeightedMetricTest, WeightsChangeTheAnswer) {
  // Two candidate neighbors; the weight vector decides which one wins.
  WeightedFixture fx_x(2, {100.0, 1.0});
  WeightedFixture fx_y(2, {1.0, 100.0});
  PointSet pts(2);
  pts.Add({0.50, 0.30});  // close in y, far in x? (relative to query below)
  pts.Add({0.30, 0.50});
  ASSERT_TRUE(fx_x.index->BulkBuild(pts).ok());
  ASSERT_TRUE(fx_y.index->BulkBuild(pts).ok());
  std::vector<double> q = {0.45, 0.45};
  // With x dominating, prefer the point closer in x: (0.50, 0.30).
  auto rx = fx_x.index->Query(q.data());
  ASSERT_TRUE(rx.ok());
  EXPECT_EQ(rx->id, 0u);
  // With y dominating, prefer the point closer in y: (0.30, 0.50).
  auto ry = fx_y.index->Query(q.data());
  ASSERT_TRUE(ry.ok());
  EXPECT_EQ(ry->id, 1u);
}

TEST(WeightedMetricTest, DynamicInsertAndDeleteUnderWeights) {
  std::vector<double> w = {2.0, 0.25};
  WeightedFixture fx(2, w, ApproxAlgorithm::kCorrect);
  Rng rng(13);
  std::vector<std::vector<double>> raw;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 60; ++i) {
    std::vector<double> p = {rng.NextDouble(), rng.NextDouble()};
    auto id = fx.index->Insert(p);
    if (id.ok()) {
      raw.push_back(p);
      ids.push_back(*id);
    }
  }
  // Delete a third.
  std::vector<bool> alive(raw.size(), true);
  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(fx.index->Delete(ids[i]).ok());
    alive[i] = false;
  }
  for (int t = 0; t < 60; ++t) {
    std::vector<double> q = {rng.NextDouble(), rng.NextDouble()};
    auto r = fx.index->Query(q.data());
    ASSERT_TRUE(r.ok());
    double best = 1e300;
    for (size_t i = 0; i < raw.size(); ++i) {
      if (!alive[i]) continue;
      best = std::min(best, WeightedDistSq(raw[i], q, w));
    }
    EXPECT_NEAR(r->dist, std::sqrt(best), 1e-9);
  }
}

TEST(WeightedMetricTest, InvalidWeightsRejected) {
  PageFile file(2048);
  BufferPool pool(&file, 64);
  NNCellOptions opts;
  opts.weights = {1.0, -2.0};
  EXPECT_DEATH(NNCellIndex(&pool, 2, opts), "positive");
}

}  // namespace
}  // namespace nncell
