// SIMD kernel regression bench: batched distance scans over the SoA block
// store and the LP panel kernels, scalar table vs the dispatched table.
// Emits one JSON document with wall-clock, the active dispatch level, and
// deterministic counters (distance evaluations + a bit-fold checksum of
// every computed double); `tools/bench_gate.py simd` gates pull requests on the
// committed BENCH_simd.json baseline.
//
// The checksum and eval counts are a pure function of dim/n/seed and the
// FP-determinism contract (docs/KERNELS.md): every dispatch level must
// produce bit-identical doubles, so the gate is machine-independent and
// catches any kernel that drifts from the scalar reference. Wall-clock and
// the speedup headline are recorded for the human reader, never gated.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/kernels/kernels.h"
#include "common/kernels/soa_store.h"
#include "common/rng.h"

namespace nncell {
namespace {

struct SimdConfig {
  const char* name;
  size_t dim;
  size_t n;  // points / rows per pass
};

// d=16 is the acceptance headline (the paper's Fourier workload width);
// the small dims exercise the tail paths, d=32 the multi-block path.
const SimdConfig kConfigs[] = {
    {"l2_soa_d2_n65536", 2, 65536},   {"l2_soa_d4_n65536", 4, 65536},
    {"l2_soa_d8_n32768", 8, 32768},   {"l2_soa_d16_n16384", 16, 16384},
    {"l2_soa_d32_n8192", 32, 8192},   {"matvec_d16_n16384", 16, 16384},
};

// Order-insensitive bit-fold of a double array: XOR of the bit patterns
// mixed with a multiplicative hash. Any single-ulp drift in any lane flips
// the fold.
uint64_t FoldBits(uint64_t acc, const double* v, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &v[i], sizeof(bits));
    acc ^= bits + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2);
  }
  return acc;
}

struct PassResult {
  uint64_t checksum = 0;
  uint64_t evals = 0;
  double seconds = 0.0;  // best-of-reps wall time for the timed passes
};

// One deterministic counted pass + `reps` timed passes of the SoA batched
// L2 scan with the given op table.
PassResult RunL2Soa(const kernels::KernelOps& ops, const SimdConfig& cfg,
                    int reps) {
  Rng rng(42);
  kernels::SoaBlockStore store(cfg.dim);
  std::vector<double> p(cfg.dim);
  for (size_t i = 0; i < cfg.n; ++i) {
    for (auto& v : p) v = rng.NextDouble();
    store.Append(p.data());
  }
  std::vector<double> q(cfg.dim);
  for (auto& v : q) v = rng.NextDouble();

  std::vector<double> out(cfg.n);
  PassResult r;
  ops.l2_batch_soa(q.data(), store.blocks(), cfg.n, cfg.dim, out.data());
  r.checksum = FoldBits(0, out.data(), cfg.n);
  r.evals = cfg.n;

  r.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    ops.l2_batch_soa(q.data(), store.blocks(), cfg.n, cfg.dim, out.data());
    auto t1 = std::chrono::steady_clock::now();
    r.seconds =
        std::min(r.seconds, std::chrono::duration<double>(t1 - t0).count());
  }
  return r;
}

// Same shape for the LP panel kernel: y = A x over a padded row-major
// matrix (the ActiveSetSolver / FaceSolveSession row-product pass).
PassResult RunMatVec(const kernels::KernelOps& ops, const SimdConfig& cfg,
                     int reps) {
  Rng rng(42);
  const size_t stride = kernels::PaddedDim(cfg.dim);
  std::vector<double> a(cfg.n * stride, 0.0);
  for (size_t r = 0; r < cfg.n; ++r) {
    for (size_t i = 0; i < cfg.dim; ++i) {
      a[r * stride + i] = rng.NextDouble(-1.0, 1.0);
    }
  }
  std::vector<double> x(cfg.dim);
  for (auto& v : x) v = rng.NextDouble(-1.0, 1.0);

  std::vector<double> y(cfg.n);
  PassResult r;
  ops.mat_vec(a.data(), cfg.n, cfg.dim, stride, x.data(), y.data());
  r.checksum = FoldBits(0, y.data(), cfg.n);
  r.evals = cfg.n;

  r.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    ops.mat_vec(a.data(), cfg.n, cfg.dim, stride, x.data(), y.data());
    auto t1 = std::chrono::steady_clock::now();
    r.seconds =
        std::min(r.seconds, std::chrono::duration<double>(t1 - t0).count());
  }
  return r;
}

PassResult Run(const kernels::KernelOps& ops, const SimdConfig& cfg,
               int reps) {
  if (std::strncmp(cfg.name, "matvec", 6) == 0) {
    return RunMatVec(ops, cfg, reps);
  }
  return RunL2Soa(ops, cfg, reps);
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out=FILE]\n", argv[0]);
      return 2;
    }
  }
  // Quick and full runs use identical data and the identical counted pass
  // (so a quick run gates against the committed full baseline); they
  // differ only in how many timed reps damp scheduler noise.
  const int reps = quick ? 20 : 200;

  FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
  }

  std::fprintf(out, "{\n  \"schema\": 1,\n  \"seed\": 42,\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out, "  \"dispatch\": \"%s\",\n", kernels::ActiveLevelName());
  std::fprintf(out, "  \"dispatch_reason\": \"%s\",\n",
               kernels::DispatchReason());
  std::fprintf(out, "  \"configs\": [\n");
  bool first = true;
  int mismatches = 0;
  for (const SimdConfig& cfg : kConfigs) {
    PassResult scalar = Run(kernels::ScalarOps(), cfg, reps);
    PassResult dispatched = Run(kernels::Ops(), cfg, reps);

    // The bench is itself a bit-equality check: a dispatched table whose
    // checksum diverges from scalar violates the kernel contract.
    if (scalar.checksum != dispatched.checksum ||
        scalar.evals != dispatched.evals) {
      std::fprintf(stderr, "%s: dispatched/%s diverges from scalar!\n",
                   cfg.name, kernels::ActiveLevelName());
      ++mismatches;
    }

    double speedup = dispatched.seconds > 0.0
                         ? scalar.seconds / dispatched.seconds
                         : 0.0;
    if (!first) std::fprintf(out, ",\n");
    first = false;
    std::fprintf(out, "    {\n      \"name\": \"%s\",\n", cfg.name);
    std::fprintf(out, "      \"dim\": %zu, \"n\": %zu,\n", cfg.dim, cfg.n);
    std::fprintf(out,
                 "      \"checksum\": \"%016llx\", \"evals\": %llu,\n",
                 static_cast<unsigned long long>(scalar.checksum),
                 static_cast<unsigned long long>(scalar.evals));
    std::fprintf(out,
                 "      \"scalar_seconds\": %.9f, \"dispatched_seconds\": "
                 "%.9f, \"wall_speedup\": %.3f\n    }",
                 scalar.seconds, dispatched.seconds, speedup);

    std::fprintf(stderr, "%-20s scalar %8.3fus  %s %8.3fus  (%.2fx)\n",
                 cfg.name, scalar.seconds * 1e6, kernels::ActiveLevelName(),
                 dispatched.seconds * 1e6, speedup);
  }
  std::fprintf(out, "\n  ]\n}\n");
  if (out != stdout) std::fclose(out);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace nncell

int main(int argc, char** argv) { return nncell::Main(argc, argv); }
