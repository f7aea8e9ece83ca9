// Microbenchmarks proving the metrics layer's cost model (see
// common/metrics.h): a disabled instrumentation site is one relaxed load
// plus a predictable branch, an enabled site one relaxed fetch_add on a
// thread-striped cache line. The headline pair is BM_CellMbrPipeline with
// metrics off vs on -- the acceptance gate is that the disabled run is
// within noise (<= 1%) of the same pipeline before instrumentation
// existed, which follows from the disabled-site cost measured here.

#include <benchmark/benchmark.h>

#include "common/metrics.h"
#include "common/metrics_names.h"
#include "common/rng.h"
#include "geom/cell_approximator.h"

namespace nncell {
namespace {

// Raw per-site cost, runtime-disabled: the guard branch only.
void BM_CounterAddDisabled(benchmark::State& state) {
  metrics::Registry::SetEnabled(false);
  [[maybe_unused]] metrics::Counter* c =
      metrics::Registry::Global().counter(metrics::kQueryCount);
  for (auto _ : state) {
    NNCELL_METRIC_COUNT(c, 1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CounterAddDisabled);

// Raw per-site cost, enabled: guard + relaxed fetch_add on this thread's
// stripe.
void BM_CounterAddEnabled(benchmark::State& state) {
  metrics::Registry::SetEnabled(true);
  [[maybe_unused]] metrics::Counter* c =
      metrics::Registry::Global().counter(metrics::kQueryCount);
  for (auto _ : state) {
    NNCELL_METRIC_COUNT(c, 1);
    benchmark::ClobberMemory();
  }
  metrics::Registry::SetEnabled(false);
}
BENCHMARK(BM_CounterAddEnabled);

// Enabled counter under thread contention: stripes keep threads apart.
void BM_CounterAddEnabledThreaded(benchmark::State& state) {
  if (state.thread_index() == 0) metrics::Registry::SetEnabled(true);
  [[maybe_unused]] metrics::Counter* c =
      metrics::Registry::Global().counter(metrics::kQueryCount);
  for (auto _ : state) {
    NNCELL_METRIC_COUNT(c, 1);
  }
  if (state.thread_index() == 0) metrics::Registry::SetEnabled(false);
}
BENCHMARK(BM_CounterAddEnabledThreaded)->Threads(4);

void BM_HistogramRecordEnabled(benchmark::State& state) {
  metrics::Registry::SetEnabled(true);
  [[maybe_unused]] metrics::Histogram* h =
      metrics::Registry::Global().histogram(metrics::kQueryCandidatesPerQuery);
  uint64_t v = 1;
  for (auto _ : state) {
    NNCELL_METRIC_RECORD(h, v);
    v = (v * 7 + 3) & 0xfff;
  }
  metrics::Registry::SetEnabled(false);
}
BENCHMARK(BM_HistogramRecordEnabled);

// The instrumented production hot path (identical setup to micro_lp's
// BM_CellMbrPipeline, optimized knobs on), with the registry runtime-off
// (arg 0) vs runtime-on (arg 1). Comparing the two rows bounds the full
// instrumentation overhead of the LP pipeline end to end.
void BM_CellMbrPipeline(benchmark::State& state) {
  const size_t dim = 8;
  const size_t n = 500;
  metrics::Registry::SetEnabled(state.range(0) != 0);
  Rng rng(1234);
  PointSet pts(dim);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(dim);
    for (auto& v : p) v = rng.NextDouble();
    pts.Add(p);
  }
  CellApproxOptions opts;
  opts.prune_bisectors = true;
  opts.warm_start = true;
  CellApproximator approx(dim, HyperRect::UnitCube(dim), opts);
  ApproxStats stats;
  size_t owner = 0;
  std::vector<const double*> others;
  for (auto _ : state) {
    others.clear();
    for (size_t i = 0; i < n; ++i) {
      if (i != owner) others.push_back(pts[i]);
    }
    HyperRect mbr = approx.ApproximateMbr(pts[owner], others, &stats);
    benchmark::DoNotOptimize(mbr);
    owner = (owner + 1) % n;
  }
  metrics::Registry::SetEnabled(false);
}
BENCHMARK(BM_CellMbrPipeline)->Arg(0)->Arg(1);

// Snapshot/export cost: never on a hot path, but tooling calls it per
// stats invocation so it should stay in the microsecond range.
void BM_SnapshotJson(benchmark::State& state) {
  for (auto _ : state) {
    std::string json = metrics::Registry::Global().SnapshotJson();
    benchmark::DoNotOptimize(json.data());
  }
}
BENCHMARK(BM_SnapshotJson);

}  // namespace
}  // namespace nncell

BENCHMARK_MAIN();
