// Extension bench: the two faces of parallelism for NN search.
//
// 1. Declustered parallel I/O -- the alternative cure for the
//    dimensionality curse the paper cites ([Ber+ 97], "exploiting
//    parallelism for an efficient nearest neighbor search"). Pages are
//    spread round-robin over D simulated disks; a query's parallel I/O
//    time is the *maximum* per-disk read count. Both the R*-tree NN
//    search and the NN-cell point query parallelize well, because their
//    page sets are spread across the whole file.
//
// 2. Real thread scaling of this engine: wall-clock speedup of the
//    multi-threaded bulk build (the per-point LP solves fan across the
//    thread pool; the committed index is byte-identical to a
//    serial build) and of batched queries (QueryBatch = N concurrent
//    readers over the shared buffer pool). Measured speedups are bounded
//    by the machine's core count -- on a single-core container every
//    thread count degenerates to ~1x.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "data/generators.h"

namespace nncell {
namespace bench {
namespace {

void RunDeclustering(const BenchConfig& config) {
  const size_t dim = 10;
  const size_t n = Scaled(1500, config.scale, 100);
  PointSet pts = GenerateUniform(n, dim, config.seed);
  PointSet queries = GenerateQueries(config.queries, dim, config.seed ^ 3);

  PointTreeSetup rstar = BuildPointTree(pts, false, config);
  NNCellOptions opts;
  opts.algorithm = RecommendedAlgorithm(dim);
  NNCellSetup nncell = BuildNNCell(pts, opts, config);

  std::printf(
      "Extension A: declustered parallel NN search [Ber+ 97], d=%zu, N=%zu\n"
      "parallel I/O depth = max per-disk page reads per query (cold)\n\n",
      dim, n);
  Table table({"disks", "R*-depth", "R*-speedup", "NNcell-depth",
               "NNcell-speedup"});
  double r_base = 0.0, c_base = 0.0;
  for (size_t disks : {1u, 2u, 4u, 8u, 16u}) {
    rstar.file->SetDeclustering(disks);
    nncell.file->SetDeclustering(disks);
    uint64_t r_depth = 0, c_depth = 0;
    for (size_t t = 0; t < queries.size(); ++t) {
      rstar.pool->DropCache();
      rstar.file->ResetStats();
      auto rr = rstar.tree->NnBranchAndBound(queries[t]);
      NNCELL_CHECK(rr.has_value());
      r_depth += rstar.file->MaxDiskReads();

      nncell.pool->DropCache();
      nncell.file->ResetStats();
      auto cr = nncell.index->Query(queries[t]);
      NNCELL_CHECK(cr.ok());
      c_depth += nncell.file->MaxDiskReads();
    }
    double nq = static_cast<double>(queries.size());
    double r_avg = static_cast<double>(r_depth) / nq;
    double c_avg = static_cast<double>(c_depth) / nq;
    if (disks == 1) {
      r_base = r_avg;
      c_base = c_avg;
    }
    table.AddRow({Table::Int(disks), Table::Num(r_avg, 1),
                  Table::Num(r_base / std::max(r_avg, 1e-9), 2),
                  Table::Num(c_avg, 1),
                  Table::Num(c_base / std::max(c_avg, 1e-9), 2)});
  }
  table.Print();
}

void RunThreadScaling(const BenchConfig& config) {
  // The paper's hard regime: d=16, where the LP solves dominate the build
  // and every query touches many candidate cells.
  const size_t dim = 16;
  const size_t n = Scaled(600, config.scale, 100);
  const size_t num_queries = std::max<size_t>(config.queries * 4, 64);
  PointSet pts = GenerateUniform(n, dim, config.seed);
  PointSet queries = GenerateQueries(num_queries, dim, config.seed ^ 7);

  std::printf(
      "Extension B: real thread scaling, d=%zu, N=%zu, batch=%zu queries "
      "(%zu hardware cores)\n"
      "build = wall-clock BulkBuild; batch throughput = warm QueryBatch\n\n",
      dim, n, num_queries, ThreadPool::DefaultThreads());
  Table table({"threads", "build-s", "build-spdup", "batch-q/s",
               "batch-spdup"});
  double build_base = 0.0, query_base = 0.0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    BenchConfig build_config = config;
    build_config.threads = threads;
    NNCellOptions opts;
    opts.algorithm = RecommendedAlgorithm(dim);
    NNCellSetup setup = BuildNNCell(pts, opts, build_config);

    // Warm batch: the scaling of interest is CPU concurrency over the
    // shared (sharded) buffer pool, not the simulated-disk model above.
    NNCELL_CHECK(setup.index->QueryBatch(queries).ok());  // warm the cache
    Stopwatch timer;
    auto results = setup.index->QueryBatch(queries);
    double batch_s = timer.ElapsedSeconds();
    NNCELL_CHECK(results.ok());
    double qps = static_cast<double>(num_queries) / std::max(batch_s, 1e-9);

    if (threads == 1) {
      build_base = setup.build_seconds;
      query_base = qps;
    }
    table.AddRow(
        {Table::Int(threads), Table::Num(setup.build_seconds, 3),
         Table::Num(build_base / std::max(setup.build_seconds, 1e-9), 2),
         Table::Num(qps, 0), Table::Num(qps / std::max(query_base, 1e-9), 2)});
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace nncell

int main(int argc, char** argv) {
  nncell::bench::BenchConfig config = nncell::bench::ParseArgs(argc, argv);
  nncell::bench::RunDeclustering(config);
  nncell::bench::RunThreadScaling(config);
  return 0;
}
