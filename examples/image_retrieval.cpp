// Content-based image retrieval, the paper's motivating application
// [Fal+ 94, SH 94]: images are reduced to color-histogram feature vectors;
// "find the most similar image" is a nearest-neighbor query in feature
// space. This example builds a synthetic image collection (mixtures of a
// few dominant hues per image category), indexes the histograms with the
// NN-cell index, and compares retrieval against a sequential scan.
//
//   $ ./build/examples/image_retrieval

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "nncell/nncell_index.h"
#include "scan/sequential_scan.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace {

using namespace nncell;

// 8-bucket hue histogram of a synthetic image: each category mixes two
// dominant hue buckets plus noise, then normalizes to sum 1 (so vectors
// live on a simplex inside [0,1]^8 -- clustered, correlated "real" data).
std::vector<double> SyntheticHistogram(size_t category, Rng& rng) {
  const size_t buckets = 8;
  std::vector<double> h(buckets);
  size_t main1 = category % buckets;
  size_t main2 = (category * 3 + 1) % buckets;
  for (size_t b = 0; b < buckets; ++b) {
    h[b] = 0.02 + 0.05 * rng.NextDouble();
  }
  h[main1] += 0.5 + 0.2 * rng.NextDouble();
  h[main2] += 0.25 + 0.1 * rng.NextDouble();
  double sum = 0.0;
  for (double v : h) sum += v;
  for (double& v : h) v /= sum;
  return h;
}

}  // namespace

int main() {
  const size_t dim = 8;
  const size_t images = 1500;
  const size_t categories = 10;
  Rng rng(2026);

  PageFile file(4096);
  BufferPool pool(&file, 2048);
  NNCellOptions options;
  options.algorithm = ApproxAlgorithm::kNNDirection;  // robust on clusters
  NNCellIndex index(&pool, dim, options);

  // Scan baseline on its own storage.
  PageFile scan_file(4096);
  BufferPool scan_pool(&scan_file, 64);
  SequentialScan scan(&scan_pool, dim);

  PointSet collection(dim);
  std::vector<size_t> labels;
  std::set<std::vector<double>> seen;
  for (size_t i = 0; i < images; ++i) {
    size_t category = i % categories;
    std::vector<double> h = SyntheticHistogram(category, rng);
    if (!seen.insert(h).second) continue;  // skip rare exact duplicates
    scan.Insert(h.data(), labels.size());
    collection.Add(h);
    labels.push_back(category);
  }
  // Static build: the collection is known upfront, so every cell is
  // approximated once against the full point set.
  Status status = index.BulkBuild(collection);
  if (!status.ok()) {
    std::fprintf(stderr, "build failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu image histograms (%zu categories)\n", index.size(),
              categories);

  // Retrieval: for fresh query images, the nearest stored histogram should
  // come from the same category.
  size_t correct = 0;
  const size_t queries = 200;
  double index_ms = 0.0, scan_ms = 0.0;
  uint64_t index_pages = 0, scan_pages = 0;
  for (size_t t = 0; t < queries; ++t) {
    size_t category = t % categories;
    std::vector<double> q = SyntheticHistogram(category, rng);

    pool.DropCache();
    pool.ResetStats();
    Stopwatch timer;
    auto result = index.Query(q.data());
    index_ms += timer.ElapsedMillis();
    index_pages += pool.stats().physical_reads;
    if (!result.ok()) continue;

    scan_pool.DropCache();
    scan_pool.ResetStats();
    Stopwatch scan_timer;
    auto scan_result = scan.NearestNeighbor(q.data());
    scan_ms += scan_timer.ElapsedMillis();
    scan_pages += scan_pool.stats().physical_reads;

    if (scan_result.id != result->id &&
        std::abs(scan_result.dist - result->dist) > 1e-9) {
      std::fprintf(stderr, "MISMATCH vs scan on query %zu\n", t);
      return 1;
    }
    if (labels[result->id] == category) ++correct;
  }

  std::printf("category precision@1: %.1f%%\n",
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(queries));
  std::printf("NN-cell index: %.3f ms CPU, %.1f pages per query\n",
              index_ms / queries,
              static_cast<double>(index_pages) / queries);
  std::printf("sequential scan: %.3f ms CPU, %.1f pages per query\n",
              scan_ms / queries, static_cast<double>(scan_pages) / queries);
  return 0;
}
