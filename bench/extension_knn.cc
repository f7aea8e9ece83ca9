// Extension bench (paper Section 5 future work): k-nearest-neighbor
// search on the NN-cell index via ball queries over the cell
// approximations, against the X-tree best-first kNN.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "data/generators.h"

namespace nncell {
namespace bench {
namespace {

void Run(const BenchConfig& config) {
  const size_t dim = 6;
  const size_t n = Scaled(1500, config.scale, 100);
  PointSet pts = GenerateUniform(n, dim, config.seed);
  PointSet queries = GenerateQueries(config.queries, dim, config.seed ^ 9);

  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kSphere;
  NNCellSetup nncell = BuildNNCell(pts, opts, config);
  PointTreeSetup xtree = BuildPointTree(pts, true, config);

  std::printf(
      "Extension: k-NN on the NN-cell index vs X-tree best-first kNN,\n"
      "d=%zu, N=%zu uniform, %zu cold queries\n\n",
      dim, n, config.queries);
  Table table({"k", "NNcell[ms]", "NNcell-pages", "X-tree[ms]", "X-pages"});
  for (size_t k : {1u, 5u, 10u, 20u, 50u}) {
    double cell_ms = 0.0, x_ms = 0.0;
    uint64_t cell_pages = 0, x_pages = 0;
    for (size_t t = 0; t < queries.size(); ++t) {
      if (config.cold_queries) nncell.pool->DropCache();
      nncell.pool->ResetStats();
      Stopwatch t1;
      auto r = nncell.index->KnnQuery(queries[t], k);
      cell_ms += t1.ElapsedMillis();
      NNCELL_CHECK(r.ok());
      cell_pages += nncell.pool->stats().physical_reads;

      if (config.cold_queries) xtree.pool->DropCache();
      xtree.pool->ResetStats();
      Stopwatch t2;
      auto xr = xtree.tree->KnnQuery(queries[t], k);
      x_ms += t2.ElapsedMillis();
      NNCELL_CHECK(xr.hits.size() == std::min(k, n));
      x_pages += xtree.pool->stats().physical_reads;
    }
    double nq = static_cast<double>(queries.size());
    table.AddRow({Table::Int(k), Table::Num(cell_ms / nq, 3),
                  Table::Num(static_cast<double>(cell_pages) / nq, 1),
                  Table::Num(x_ms / nq, 3),
                  Table::Num(static_cast<double>(x_pages) / nq, 1)});
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace nncell

int main(int argc, char** argv) {
  nncell::bench::Run(nncell::bench::ParseArgs(argc, argv));
  return 0;
}
