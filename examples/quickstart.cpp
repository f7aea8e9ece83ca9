// Quickstart: build an NN-cell index over a few thousand points and run
// exact nearest-neighbor queries as point queries on the precomputed
// solution space.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

int main() {
  using namespace nncell;

  // 1. Paged storage: a simulated disk with 4 KiB pages and an LRU cache.
  PageFile file(4096);
  BufferPool pool(&file, 1024);

  // 2. The index. The Sphere strategy approximates each Voronoi cell from
  //    the points near it; queries stay exact regardless (Lemma 2).
  const size_t dim = 6;
  NNCellOptions options;
  options.algorithm = ApproxAlgorithm::kSphere;
  NNCellIndex index(&pool, dim, options);

  // 3. Load data: 2000 uniform points in [0,1]^6.
  PointSet pts = GenerateUniform(2000, dim, /*seed=*/1);
  Status status = index.BulkBuild(pts);
  if (!status.ok()) {
    std::fprintf(stderr, "build failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("built NN-cell index over %zu points (dim=%zu)\n", index.size(),
              dim);
  std::printf("expected candidate cells per query: %.2f\n",
              index.ExpectedCandidates());

  // 4. Query: nearest neighbor of an arbitrary point in the data space.
  std::vector<double> q = {0.31, 0.77, 0.15, 0.58, 0.92, 0.44};
  auto result = index.Query(q.data());
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("nearest neighbor: id=%llu dist=%.4f (%zu candidate cells)\n",
              static_cast<unsigned long long>(result->id), result->dist,
              result->candidates);

  // 5. Dynamic insert: the index stays exact as points arrive.
  auto id = index.Query(q.data());
  auto inserted = index.Insert(q);  // insert the query point itself
  if (!inserted.ok()) {
    std::printf("insert failed: %s\n", inserted.status().ToString().c_str());
    return 1;
  }
  auto after = index.Query(q.data());
  std::printf("after inserting the query point: id=%llu dist=%.4f (was %.4f)\n",
              static_cast<unsigned long long>(after->id), after->dist,
              id->dist);

  // 6. Batched queries across worker threads. SetNumThreads(0) uses one
  //    thread per hardware core; the answers are identical to a serial
  //    loop of Query() calls (the readers only share the buffer pool).
  //    options.parallel.num_threads would likewise parallelize BulkBuild
  //    -- producing a byte-identical index.
  index.SetNumThreads(0);
  PointSet batch = GenerateQueries(64, dim, /*seed=*/9);
  auto results = index.QueryBatch(batch);
  if (!results.ok()) {
    std::fprintf(stderr, "batch failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }
  double mean_dist = 0.0;
  for (const auto& r : *results) mean_dist += r.dist;
  std::printf("batched %zu queries in parallel; mean NN distance %.4f\n",
              results->size(), mean_dist / static_cast<double>(results->size()));
  return 0;
}
