#ifndef NNCELL_BENCH_BENCH_UTIL_H_
#define NNCELL_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/point_set.h"
#include "nncell/nncell_index.h"
#include "rstar/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "xtree/xtree.h"

namespace nncell {
namespace bench {

// Shared configuration of the figure benchmarks. Defaults are sized to a
// single core so the full suite finishes in minutes; pass --scale=N (or set
// NNCELL_BENCH_SCALE) to approach the paper's database sizes.
struct BenchConfig {
  double scale = 1.0;
  size_t queries = 40;           // query sample per measurement
  double page_latency_ms = 10.0;  // simulated disk latency per page access
  // Total-time cost model: the paper's 1998 testbed (HP 720) spends on the
  // order of a few hundred modern-CPU-equivalents per instruction, making
  // NN queries CPU-bound ("the total search time ... is not dominated by
  // the number of page accesses"). total = cpu * cpu_scale + pages * lat.
  double cpu_scale = 200.0;
  size_t page_size = 4096;       // the paper's 4 KB blocks
  size_t cache_pages = 2048;     // equal cache budget per index (8 MB)
  uint64_t seed = 42;
  bool cold_queries = true;      // drop the cache before every query
  // Worker threads for the parallel build / batched-query phases
  // (NNCellOptions::parallel). 1 = serial, 0 = one per hardware core.
  size_t threads = 1;
};

// Parses --scale=, --queries=, --latency-ms=, --cpu-scale=, --seed=,
// --threads= and --warm flags plus the NNCELL_BENCH_SCALE environment
// variable.
BenchConfig ParseArgs(int argc, char** argv);

// base * scale, at least `min`.
size_t Scaled(size_t base, double scale, size_t min = 2);

// Fixed-width text table matching the paper's figure series.
class Table {
 public:
  explicit Table(std::vector<std::string> header, int width = 14);
  void AddRow(const std::vector<std::string>& cells);
  void Print() const;

  static std::string Num(double v, int precision = 3);
  static std::string Int(uint64_t v);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  int width_;
};

// Per-query cost aggregates of a measurement run.
struct QueryCost {
  double cpu_ms = 0.0;        // measured CPU time per query
  double page_accesses = 0.0; // physical page reads per query
  double total_ms = 0.0;      // cpu + page_accesses * latency
  double candidates = 0.0;    // NN-cell only: candidate cells per query
  // Metrics-registry deltas per query (0 when metrics are compiled out).
  double node_visits = 0.0;    // index.tree.node_visits
  double distance_calcs = 0.0; // query.nn.distance_computations
};

// A fully assembled NN-cell index with its own paged storage; exact
// queries are pinned to the cell-probe plan.
struct NNCellSetup {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<NNCellIndex> index;
  double build_seconds = 0.0;
};

NNCellSetup BuildNNCell(const PointSet& pts, NNCellOptions options,
                        const BenchConfig& config);

// A point index (R*-tree or X-tree over the raw points) for the baselines.
struct PointTreeSetup {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<RTreeCore> tree;
  double build_seconds = 0.0;
};

PointTreeSetup BuildPointTree(const PointSet& pts, bool use_xtree,
                              const BenchConfig& config);

// Measures NN query costs. All variants verify their answers against each
// other implicitly through the tests; here we only time them. The point
// trees use the classic [RKV 95] branch-and-bound NN search -- the paper's
// baseline algorithm (its min-max sorting is the CPU cost the NN-cell
// point query avoids).
QueryCost MeasureNNCellQueries(const NNCellSetup& setup,
                               const PointSet& queries,
                               const BenchConfig& config);
QueryCost MeasurePointTreeNN(const PointTreeSetup& setup,
                             const PointSet& queries,
                             const BenchConfig& config);

// Picks the paper's recommended build algorithm for a dimensionality
// (Fig. 5: Sphere wins for d <= 8, NN-Direction for higher d).
ApproxAlgorithm RecommendedAlgorithm(size_t dim);

}  // namespace bench
}  // namespace nncell

#endif  // NNCELL_BENCH_BENCH_UTIL_H_
