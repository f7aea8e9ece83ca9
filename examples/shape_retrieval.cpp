// Shape similarity search on Fourier descriptors -- the paper's "real
// data" scenario (CAD parts described by Fourier points, d=8) and the
// classic feature transformation of [Jag 91] / [MG 93]: a 2-D contour is
// sampled, its centroid-distance signature is Fourier-transformed, and the
// leading coefficient magnitudes form the feature vector. Similar shapes
// have nearby descriptors, so shape retrieval = NN search.
//
//   $ ./build/examples/shape_retrieval

#include <cmath>
#include <complex>
#include <cstdio>
#include <set>
#include <vector>

#include "common/rng.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace {

using namespace nncell;

// A synthetic closed contour: radius signature r(theta) built from a few
// harmonics. `family` controls which harmonics dominate (shape class);
// noise individualizes each instance.
std::vector<double> ContourSignature(size_t family, double noise, Rng& rng,
                                     size_t samples = 128) {
  std::vector<double> r(samples);
  double a2 = (family == 0) ? 0.4 : 0.05;  // ellipse-ish
  double a3 = (family == 1) ? 0.4 : 0.05;  // triangle-ish
  double a5 = (family == 2) ? 0.3 : 0.02;  // star-ish
  for (size_t i = 0; i < samples; ++i) {
    double theta = 2.0 * M_PI * static_cast<double>(i) / samples;
    r[i] = 1.0 + a2 * std::cos(2 * theta) + a3 * std::cos(3 * theta) +
           a5 * std::cos(5 * theta) + noise * rng.NextGaussian() * 0.02;
  }
  return r;
}

// Leading DFT magnitudes of the signature, scale-normalized by |F_0| and
// mapped into [0,1]^dim. This is the classic Fourier shape descriptor.
std::vector<double> FourierDescriptor(const std::vector<double>& signature,
                                      size_t dim) {
  const size_t n = signature.size();
  std::vector<double> feature(dim);
  double dc = 0.0;
  for (double v : signature) dc += v;
  dc = std::abs(dc) / static_cast<double>(n);
  for (size_t h = 1; h <= dim; ++h) {
    std::complex<double> coeff(0.0, 0.0);
    for (size_t i = 0; i < n; ++i) {
      double angle = -2.0 * M_PI * static_cast<double>(h * i) / n;
      coeff += signature[i] * std::complex<double>(std::cos(angle),
                                                   std::sin(angle));
    }
    double magnitude = std::abs(coeff) / (static_cast<double>(n) * dc);
    feature[h - 1] = std::min(1.0, 2.0 * magnitude);  // into [0,1]
  }
  return feature;
}

}  // namespace

int main() {
  const size_t dim = 8;  // the paper's Fourier-point dimensionality
  const size_t shapes = 1200;
  const size_t families = 3;
  Rng rng(777);

  PageFile file(4096);
  BufferPool pool(&file, 2048);
  NNCellOptions options;
  options.algorithm = ApproxAlgorithm::kNNDirection;
  options.decomposition.max_partitions = 4;  // Section 3: tighter cells
  NNCellIndex index(&pool, dim, options);

  PointSet descriptors(dim);
  std::vector<size_t> labels;
  std::set<std::vector<double>> seen;
  for (size_t i = 0; i < shapes; ++i) {
    size_t family = i % families;
    auto signature = ContourSignature(family, 1.0, rng);
    auto descriptor = FourierDescriptor(signature, dim);
    if (!seen.insert(descriptor).second) continue;
    descriptors.Add(descriptor);
    labels.push_back(family);
  }
  Status status = index.BulkBuild(descriptors);
  if (!status.ok()) {
    std::fprintf(stderr, "build failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu Fourier shape descriptors (d=%zu, %zu families)\n",
              index.size(), dim, families);
  std::printf("expected candidate cells per query: %.2f\n",
              index.ExpectedCandidates());

  // Retrieval check: query with fresh shapes; the nearest descriptor
  // should come from the same family.
  size_t correct = 0;
  const size_t queries = 150;
  double candidates = 0.0;
  for (size_t t = 0; t < queries; ++t) {
    size_t family = t % families;
    auto signature = ContourSignature(family, 1.0, rng);
    auto descriptor = FourierDescriptor(signature, dim);
    auto result = index.Query(descriptor.data());
    if (!result.ok()) continue;
    candidates += static_cast<double>(result->candidates);
    if (labels[result->id] == family) ++correct;
  }
  std::printf("family precision@1: %.1f%% over %zu queries\n",
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(queries),
              queries);
  std::printf("avg candidate cells inspected per query: %.1f (of %zu)\n",
              candidates / static_cast<double>(queries), index.size());
  return 0;
}
