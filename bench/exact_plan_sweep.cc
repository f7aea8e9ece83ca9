// Exact-plan crossover sweep: for uniform points over d x N, the time of
// one exact NN query through the cell probe (the paper's method) and
// through the scan of the point table, next to E/N (ExpectedCandidates()
// over the live points) and the plan the index picks under kAuto. The
// rule "scan iff E * NNCellIndex::kScanCoverage >= N" is checked against
// which executor was faster. Every query's answers must agree bit for bit.
//
//   build/bench/exact_plan_sweep --queries=2000 --threads=4
//
// --threads only speeds up the builds; queries run serially on one
// thread, warm, and each executor's time is the best of three passes.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "data/generators.h"

namespace nncell {
namespace bench {
namespace {

// Best-of-3 microseconds per query of `plan`; *ids receives the answers.
double MicrosPerQuery(NNCellIndex* index, ExactPlan plan,
                      const PointSet& queries, std::vector<uint64_t>* ids) {
  index->SetExactPlan(plan);
  double best = 1e300;
  for (int pass = 0; pass < 3; ++pass) {
    ids->clear();
    Stopwatch timer;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = index->Query(queries[i]);
      NNCELL_CHECK(r.ok());
      ids->push_back(r->id);
    }
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best * 1e6 / static_cast<double>(queries.size());
}

void Run(const BenchConfig& config) {
  const std::vector<size_t> dims = {2, 4, 6, 8, 16};
  const std::vector<size_t> sizes = {100, 2000, 20000};
  std::printf(
      "Exact plan crossover: uniform points, default Sphere strategy,\n"
      "%zu warm queries per cell, us/query best of 3, scan iff E*%.0f >= N\n\n",
      config.queries, NNCellIndex::kScanCoverage);
  Table table({"dim", "N", "E", "E/N", "probe[us]", "scan[us]", "plan",
               "faster"});
  for (size_t dim : dims) {
    for (size_t n : sizes) {
      PointSet pts = GenerateUniform(n, dim, config.seed + dim);
      PointSet queries = GenerateQueries(config.queries, dim, config.seed ^ n);
      NNCellSetup setup = BuildNNCell(pts, NNCellOptions{}, config);
      NNCellIndex* index = setup.index.get();
      index->SetExactPlan(ExactPlan::kAuto);
      const ExactPlan plan = index->exact_plan();
      const double e = index->ExpectedCandidates();

      std::vector<uint64_t> probe_ids, scan_ids;
      const double probe_us =
          MicrosPerQuery(index, ExactPlan::kCellProbe, queries, &probe_ids);
      const double scan_us =
          MicrosPerQuery(index, ExactPlan::kScan, queries, &scan_ids);
      NNCELL_CHECK_MSG(probe_ids == scan_ids, "executors disagree");
      const double n_live = static_cast<double>(index->size());
      table.AddRow({Table::Int(dim), Table::Int(index->size()),
                    Table::Num(e, 1), "1/" + Table::Num(n_live / e, 0),
                    Table::Num(probe_us, 1), Table::Num(scan_us, 1),
                    ExactPlanName(plan),
                    probe_us < scan_us ? "cell_probe" : "scan"});
    }
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
