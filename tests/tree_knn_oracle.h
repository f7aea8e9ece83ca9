// Brute-force k-NN oracle for the tree tests: inputs with and without
// distance ties, and a comparison that pins the tie rule ascending by
// (squared distance, id).

#ifndef NNCELL_TESTS_TREE_KNN_ORACLE_H_
#define NNCELL_TESTS_TREE_KNN_ORACLE_H_

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/point_set.h"
#include "common/rng.h"
#include "rstar/rtree_core.h"

namespace nncell {

// Uniform coordinates in [0,1), or multiples of 1/8 in [0,1] when
// `lattice`: squared distances between lattice points are then exact
// multiples of 1/64, so equal distances (and duplicate points) abound.
inline std::vector<double> RandomCoords(Rng& rng, size_t dim, bool lattice) {
  std::vector<double> p(dim);
  for (double& v : p) {
    v = lattice ? static_cast<double>(rng.NextIndex(9)) / 8.0
                : rng.NextDouble();
  }
  return p;
}

// The k nearest points by brute force, ascending by (squared distance, id).
inline std::vector<RTreeCore::Hit> BruteForceKnn(const PointSet& pts,
                                                 const double* q, size_t k) {
  std::vector<RTreeCore::Hit> all;
  for (size_t i = 0; i < pts.size(); ++i) {
    all.push_back({i, L2DistSq(pts[i], q, pts.dim())});
  }
  std::sort(all.begin(), all.end(),
            [](const RTreeCore::Hit& a, const RTreeCore::Hit& b) {
              return a.dist_sq < b.dist_sq ||
                     (a.dist_sq == b.dist_sq && a.id < b.id);
            });
  all.resize(std::min(k, all.size()));
  return all;
}

inline void ExpectSameHits(const std::vector<RTreeCore::Hit>& got,
                           const std::vector<RTreeCore::Hit>& want,
                           const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(got[i].dist_sq, want[i].dist_sq) << what << " rank " << i;
  }
}

}  // namespace nncell

#endif  // NNCELL_TESTS_TREE_KNN_ORACLE_H_
