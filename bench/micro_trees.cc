// Microbenchmarks of the index substrates: R*-tree / X-tree inserts, NN
// queries and point queries, plus the X-tree supernode-budget ablation
// called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include "common/metrics.h"
#include "common/metrics_names.h"
#include "common/rng.h"
#include "data/generators.h"
#include "rstar/bulk_load.h"
#include "rstar/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "xtree/xtree.h"

namespace nncell {
namespace {

template <typename TreeT>
void BM_TreeInsert(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  PointSet pts = GenerateUniform(2000, dim, 7);
  for (auto _ : state) {
    state.PauseTiming();
    PageFile file(4096);
    BufferPool pool(&file, 4096);
    TreeOptions opts;
    opts.dim = dim;
    TreeT tree(&pool, opts);
    state.ResumeTiming();
    for (size_t i = 0; i < pts.size(); ++i) {
      tree.Insert(HyperRect::FromPoint(pts[i], dim), i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * pts.size());
}
BENCHMARK(BM_TreeInsert<RStarTree>)->Arg(4)->Arg(16);
BENCHMARK(BM_TreeInsert<XTree>)->Arg(4)->Arg(16);

template <typename TreeT>
void BM_TreeKnn(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  PointSet pts = GenerateUniform(5000, dim, 9);
  PageFile file(4096);
  BufferPool pool(&file, 8192);
  TreeOptions opts;
  opts.dim = dim;
  TreeT tree(&pool, opts);
  for (size_t i = 0; i < pts.size(); ++i) {
    tree.Insert(HyperRect::FromPoint(pts[i], dim), i);
  }
  PointSet queries = GenerateQueries(64, dim, 11);
  size_t qi = 0;
  for (auto _ : state) {
    auto r = tree.KnnQuery(queries[qi % queries.size()], 1);
    benchmark::DoNotOptimize(r.hits.front().dist_sq);
    ++qi;
  }
}
BENCHMARK(BM_TreeKnn<RStarTree>)->Arg(4)->Arg(16);
BENCHMARK(BM_TreeKnn<XTree>)->Arg(4)->Arg(16);

// The cell probe's tree layer: point queries on a packed X-tree of 5,000
// cell-like d=4 rectangles (half-widths 0.05..0.15 per axis, so a query
// lies in about as many of them as a d=4 shard's cell MBRs), warm pool.
// Time per iteration is one query; node_visits and hits are per query.
void BM_PointQuery(benchmark::State& state) {
  const size_t dim = 4;
  Rng rng(19);
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 5000; ++i) {
    std::vector<double> lo(dim), hi(dim);
    for (size_t k = 0; k < dim; ++k) {
      double c = rng.NextDouble();
      double w = rng.NextDouble(0.05, 0.15);
      lo[k] = std::max(0.0, c - w);
      hi[k] = std::min(1.0, c + w);
    }
    entries.push_back(Entry{HyperRect(lo, hi), i});
  }
  PageFile file(4096);
  BufferPool pool(&file, 8192);
  TreeOptions opts;
  opts.dim = dim;
  XTree tree(&pool, opts);
  tree.BulkLoad(std::move(entries), SplitPartition);
  PointSet queries = GenerateQueries(1024, dim, 21);

  // Per-query counts from one untimed pass over the query set.
  metrics::Registry& registry = metrics::Registry::Global();
  metrics::Counter* visits = registry.counter(metrics::kIndexNodeVisits);
  const bool was_enabled = metrics::Registry::Enabled();
  metrics::Registry::SetEnabled(true);
  const uint64_t visits_before = visits->Value();
  size_t hits = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    hits += tree.PointQuery(queries[q]).size();
  }
  const uint64_t visit_delta = visits->Value() - visits_before;
  metrics::Registry::SetEnabled(was_enabled);

  size_t qi = 0;
  for (auto _ : state) {
    auto r = tree.PointQuery(queries[qi % queries.size()]);
    benchmark::DoNotOptimize(r.data());
    ++qi;
  }
  const double n = static_cast<double>(queries.size());
  state.counters["node_visits"] = static_cast<double>(visit_delta) / n;
  state.counters["hits"] = static_cast<double>(hits) / n;
}
BENCHMARK(BM_PointQuery)->Unit(benchmark::kMicrosecond);

// Ablation: X-tree supernode page budget on overlapping high-d rectangles.
void BM_XTreeSupernodeBudget(benchmark::State& state) {
  const size_t budget = static_cast<size_t>(state.range(0));
  const size_t dim = 10;
  Rng rng(13);
  std::vector<HyperRect> rects;
  for (int i = 0; i < 1200; ++i) {
    std::vector<double> lo(dim), hi(dim);
    for (size_t k = 0; k < dim; ++k) {
      double c = rng.NextDouble();
      double w = rng.NextDouble(0.1, 0.5);
      lo[k] = std::max(0.0, c - w);
      hi[k] = std::min(1.0, c + w);
    }
    rects.emplace_back(lo, hi);
  }
  PointSet queries = GenerateQueries(32, dim, 15);
  // Built once per budget: the queries read the tree and start each from a
  // cold, zeroed pool.
  PageFile file(4096);
  BufferPool pool(&file, 8192);
  TreeOptions opts;
  opts.dim = dim;
  opts.max_supernode_pages = budget;
  XTree tree(&pool, opts);
  for (size_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  for (auto _ : state) {
    uint64_t pages = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      pool.DropCache();
      pool.ResetStats();
      auto hits = tree.PointQuery(queries[q]);
      benchmark::DoNotOptimize(hits.size());
      pages += pool.stats().physical_reads;
    }
    state.counters["pages_per_query"] = benchmark::Counter(
        static_cast<double>(pages) / static_cast<double>(queries.size()));
  }
}
BENCHMARK(BM_XTreeSupernodeBudget)->Arg(1)->Arg(4)->Arg(32);

}  // namespace
}  // namespace nncell

BENCHMARK_MAIN();
