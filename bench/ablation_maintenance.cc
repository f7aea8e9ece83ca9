// Ablation (DESIGN.md): dynamic-maintenance policy after inserts. The
// paper proposes a sphere query to find the cells a new point shrinks; we
// additionally implement the exact bisector test and "no maintenance"
// (still correct -- stale approximations are supersets -- but overlapping).
// This bench quantifies the quality/build-time trade-off at d = 4, 8, 16.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "data/generators.h"

namespace nncell {
namespace bench {
namespace {

void Run(const BenchConfig& config) {
  // At d >= 8 every cell MBR meets every new bisector, so the affected
  // sets are all N cells; the certified column is what keeps this fast.
  for (size_t dim : {4, 8, 16}) {
    const size_t n = Scaled(400, config.scale, 50);
    PointSet pts = GenerateUniform(n, dim, config.seed);
    PointSet queries = GenerateQueries(config.queries, dim, config.seed ^ 1);

    std::printf(
        "Ablation: dynamic maintenance modes, d=%zu, N=%zu uniform points\n\n",
        dim, n);
    // Of the affected cells, certified ones keep their MBR because the
    // new bisector misses their stored face optima; the rest are
    // recomputed (LPs re-solved). Rewritten = recomputed cells whose
    // approximation changed; in-place = rewrites that only shrank and were
    // overwritten in their cell-tree leaf.
    Table table({"mode", "build[s]", "certified", "recomputed", "rewritten",
                 "in-place", "overlap", "query[ms]"});
    struct Case {
      MaintenanceMode mode;
      const char* name;
    };
    for (const Case& c :
         {Case{MaintenanceMode::kNone, "none"},
          Case{MaintenanceMode::kSphere, "sphere"},
          Case{MaintenanceMode::kExact, "exact"}}) {
      NNCellOptions opts;
      opts.algorithm = ApproxAlgorithm::kSphere;
      opts.maintenance = c.mode;
      // Maintenance only runs on the dynamic insert path, so build the
      // index point by point instead of with the static BulkBuild.
      NNCellSetup setup;
      setup.file = std::make_unique<PageFile>(config.page_size);
      setup.pool =
          std::make_unique<BufferPool>(setup.file.get(), config.cache_pages);
      setup.index =
          std::make_unique<NNCellIndex>(setup.pool.get(), dim, opts);
      Stopwatch timer;
      for (size_t i = 0; i < pts.size(); ++i) {
        auto id = setup.index->Insert(pts.Get(i));
        NNCELL_CHECK(id.ok() ||
                     id.status().code() == StatusCode::kAlreadyExists);
      }
      setup.build_seconds = timer.ElapsedSeconds();
      QueryCost cost = MeasureNNCellQueries(setup, queries, config);
      const NNCellBuildStats& stats = setup.index->build_stats();
      table.AddRow({c.name, Table::Num(setup.build_seconds, 2),
                    Table::Int(stats.cells_certified),
                    Table::Int(stats.cells_recomputed),
                    Table::Int(stats.cells_rewritten),
                    Table::Int(stats.cells_updated_in_place),
                    Table::Num(setup.index->ExpectedCandidates(), 2),
                    Table::Num(cost.total_ms, 2)});
    }
    table.Print();
    std::printf("\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace nncell

int main(int argc, char** argv) {
  nncell::bench::Run(nncell::bench::ParseArgs(argc, argv));
  return 0;
}
