// Microbenchmarks of the distance kernel layer: batched L2 scans over the
// SoA block store and the AoS point table, and the LP panel kernels, scalar
// reference table vs the runtime-dispatched table, across the
// dimensionalities the index actually runs (d = 2..32). Counters report
// throughput in the units that matter for the kernels: bytes/second of
// point data consumed (GB/s) and distance evaluations per nanosecond.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/kernels/kernels.h"
#include "common/kernels/soa_store.h"
#include "common/rng.h"

namespace nncell {
namespace {

constexpr size_t kPoints = 16384;

const kernels::KernelOps& TableFor(bool dispatched) {
  return dispatched ? kernels::Ops() : kernels::ScalarOps();
}

// Batched 1 query x N points L2 scan over the blocked SoA layout — the
// sequential-scan oracle and candidate-scan hot loop.
void BM_L2BatchSoa(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool dispatched = state.range(1) != 0;
  const kernels::KernelOps& ops = TableFor(dispatched);

  Rng rng(42);
  kernels::SoaBlockStore store(dim);
  std::vector<double> p(dim);
  for (size_t i = 0; i < kPoints; ++i) {
    for (auto& v : p) v = rng.NextDouble();
    store.Append(p.data());
  }
  std::vector<double> q(dim);
  for (auto& v : q) v = rng.NextDouble();
  std::vector<double> out(kPoints);

  for (auto _ : state) {
    ops.l2_batch_soa(q.data(), store.blocks(), kPoints, dim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  const double evals = static_cast<double>(state.iterations()) * kPoints;
  state.SetBytesProcessed(static_cast<int64_t>(
      evals * dim * sizeof(double)));  // GB/s of point data
  state.counters["evals/ns"] =
      benchmark::Counter(evals * 1e-9, benchmark::Counter::kIsRate);
  state.SetLabel(ops.name);
}

// Gather variant: 4 arbitrary AoS row pointers per call (candidate lists).
void BM_L2Batch4(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool dispatched = state.range(1) != 0;
  const kernels::KernelOps& ops = TableFor(dispatched);

  Rng rng(42);
  std::vector<double> data(kPoints * dim);
  for (auto& v : data) v = rng.NextDouble();
  std::vector<double> q(dim);
  for (auto& v : q) v = rng.NextDouble();
  std::vector<double> out(kPoints);

  for (auto _ : state) {
    const double* ptrs[4];
    for (size_t j = 0; j + 4 <= kPoints; j += 4) {
      for (size_t t = 0; t < 4; ++t) ptrs[t] = data.data() + (j + t) * dim;
      ops.l2_batch4(q.data(), ptrs, dim, out.data() + j);
    }
    benchmark::DoNotOptimize(out.data());
  }
  const double evals = static_cast<double>(state.iterations()) * kPoints;
  state.SetBytesProcessed(
      static_cast<int64_t>(evals * dim * sizeof(double)));
  state.counters["evals/ns"] =
      benchmark::Counter(evals * 1e-9, benchmark::Counter::kIsRate);
  state.SetLabel(ops.name);
}

// Row-block variant over the AoS point table, as the scan executor calls
// it: one call per 64 consecutive rows. Args: dim, N (the table's rows),
// dispatched. N = 3,000 at d = 16 is the read-d16 scan; N = 5,000 at d = 4
// a shard's fallback scan. One iteration is one whole-table scan.
void BM_L2Rows(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const bool dispatched = state.range(2) != 0;
  const kernels::KernelOps& ops = TableFor(dispatched);

  Rng rng(42);
  std::vector<double> data(n * dim);
  for (auto& v : data) v = rng.NextDouble();
  std::vector<double> q(dim);
  for (auto& v : q) v = rng.NextDouble();

  constexpr size_t kChunk = 64;
  double out[kChunk];
  for (auto _ : state) {
    for (size_t base = 0; base < n; base += kChunk) {
      const size_t rows = std::min(kChunk, n - base);
      ops.l2_rows(q.data(), data.data() + base * dim, rows, dim, out);
      benchmark::DoNotOptimize(out);
    }
    benchmark::ClobberMemory();
  }
  const double evals = static_cast<double>(state.iterations()) * n;
  state.SetBytesProcessed(
      static_cast<int64_t>(evals * dim * sizeof(double)));
  state.counters["evals/ns"] =
      benchmark::Counter(evals * 1e-9, benchmark::Counter::kIsRate);
  state.SetLabel(ops.name);
}

// LP panel: y = A x over the padded constraint matrix (ray-shoot and
// active-set row products). One eval = one row dot product.
void BM_MatVec(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool dispatched = state.range(1) != 0;
  const kernels::KernelOps& ops = TableFor(dispatched);

  Rng rng(42);
  const size_t rows = 2048;
  const size_t stride = kernels::PaddedDim(dim);
  std::vector<double> a(rows * stride, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t i = 0; i < dim; ++i) {
      a[r * stride + i] = rng.NextDouble(-1.0, 1.0);
    }
  }
  std::vector<double> x(dim);
  for (auto& v : x) v = rng.NextDouble(-1.0, 1.0);
  std::vector<double> y(rows);

  for (auto _ : state) {
    ops.mat_vec(a.data(), rows, dim, stride, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  const double evals = static_cast<double>(state.iterations()) * rows;
  state.SetBytesProcessed(
      static_cast<int64_t>(evals * stride * sizeof(double)));
  state.counters["evals/ns"] =
      benchmark::Counter(evals * 1e-9, benchmark::Counter::kIsRate);
  state.SetLabel(ops.name);
}

void DistanceArgs(benchmark::internal::Benchmark* b) {
  for (int dim : {2, 4, 8, 16, 32}) {
    b->Args({dim, 0});  // scalar reference
    b->Args({dim, 1});  // dispatched (avx2/neon when available)
  }
}

BENCHMARK(BM_L2BatchSoa)->Apply(DistanceArgs);
BENCHMARK(BM_L2Batch4)->Apply(DistanceArgs);
BENCHMARK(BM_L2Rows)
    ->ArgsProduct({{4, 16}, {3000, 5000}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MatVec)->Apply(DistanceArgs);

}  // namespace
}  // namespace nncell

BENCHMARK_MAIN();
