// Batch fan-out sweep: for query batches of n queries, the wall and CPU
// time of one batch run serially on the calling thread and fanned out
// over a 4-worker pool (the caller works too), next to the batch's
// expected work, n x QueryCost() coordinate operations, and the choice
// the rule "fan out iff work >= NNCellIndex::kFanOutWork" makes. Both
// paths are the ParallelMap calls QueryBatch makes; every batch's answers
// must agree bit for bit.
//
//   build/bench/fan_out_sweep --queries=2048 --threads=4
//
// Three indexes: the d=4 cell probe of 20,000 points in 4 shards (the
// read-d4-sharded shape), and the d=16 scan of 3,000 (read-d16) and of
// 20,000 points. --threads sizes the builds and the fan-out pool.
// Queries are uniform in the data space and warm; each cell is the best
// of five passes, serial and fanned passes alternating.

#include <time.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "shard/sharded_index.h"

namespace nncell {
namespace bench {
namespace {

using Answer = StatusOr<NNCellIndex::QueryResult>;
using QueryFn = std::function<Answer(const double*)>;

double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Timing {
  double wall_us = 1e300;  // per batch, best pass
  double cpu_us = 1e300;   // per batch, process CPU of that pass
};

// One pass over `queries` in consecutive batches of n through `pool`
// (nullptr: serial). Appends every answer's id to *ids.
void Pass(ThreadPool* pool, const PointSet& queries, size_t n,
          const QueryFn& query, Timing* t, std::vector<uint64_t>* ids) {
  ids->clear();
  const size_t batches = queries.size() / n;
  const double cpu0 = ProcessCpuSeconds();
  Stopwatch timer;
  for (size_t b = 0; b < batches; ++b) {
    auto r = ParallelMap<NNCellIndex::QueryResult>(
        pool, n, [&](size_t i) { return query(queries[b * n + i]); });
    NNCELL_CHECK(r.ok());
    for (const auto& res : *r) ids->push_back(res.id);
  }
  const double wall = timer.ElapsedSeconds();
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double per = 1e6 / static_cast<double>(batches);
  if (wall * per < t->wall_us) {
    t->wall_us = wall * per;
    t->cpu_us = cpu * per;
  }
}

void Sweep(const std::string& name, double query_cost, const QueryFn& query,
           const PointSet& queries, ThreadPool* pool, Table* table) {
  for (size_t n : {2u, 4u, 8u, 32u}) {
    Timing serial, fanned;
    std::vector<uint64_t> serial_ids, fanned_ids;
    for (int pass = 0; pass < 5; ++pass) {
      Pass(nullptr, queries, n, query, &serial, &serial_ids);
      Pass(pool, queries, n, query, &fanned, &fanned_ids);
      NNCELL_CHECK_MSG(serial_ids == fanned_ids, "fan-out changed answers");
    }
    const double work = static_cast<double>(n) * query_cost;
    table->AddRow(
        {name, Table::Int(n), Table::Num(work, 0),
         Table::Num(serial.wall_us, 1), Table::Num(fanned.wall_us, 1),
         Table::Num(serial.cpu_us, 1), Table::Num(fanned.cpu_us, 1),
         serial.wall_us <= fanned.wall_us ? "serial" : "fanned",
         work >= NNCellIndex::kFanOutWork ? "fanned" : "serial"});
  }
}

void Run(const BenchConfig& config) {
  const size_t threads = config.threads == 0 ? ThreadPool::DefaultThreads()
                                             : config.threads;
  ThreadPool pool(threads);
  std::printf(
      "Batch fan-out sweep: %zu warm uniform queries per pass, %zu-worker\n"
      "pool plus the caller, us per batch (best of 5), fan out iff\n"
      "n x QueryCost() >= %.0f coordinate operations\n\n",
      config.queries, threads, NNCellIndex::kFanOutWork);
  Table table({"index", "n", "work", "serial[us]", "fanned[us]",
               "serial cpu", "fanned cpu", "faster", "rule"});

  {
    NNCellOptions options;
    options.parallel.num_threads = config.threads;
    ShardedOptions sopts;
    sopts.num_shards = 4;
    auto idx = ShardedIndex::Create(4, options, sopts);
    NNCELL_CHECK(idx.ok());
    NNCELL_CHECK((*idx)->BulkBuild(GenerateUniform(20000, 4, config.seed))
                     .ok());
    const ShardedIndex& index = **idx;
    PointSet queries = GenerateQueries(config.queries, 4, config.seed ^ 4);
    Sweep("d4 probe 4x5k", index.QueryCost(),
          [&](const double* q) { return index.Query(q); }, queries, &pool,
          &table);
  }
  for (size_t n_points : {3000u, 20000u}) {
    NNCellSetup setup = BuildNNCell(
        GenerateUniform(n_points, 16, config.seed + 16), NNCellOptions{},
        config);
    setup.index->SetExactPlan(ExactPlan::kAuto);
    const NNCellIndex& index = *setup.index;
    NNCELL_CHECK(index.exact_plan() == ExactPlan::kScan);
    PointSet queries = GenerateQueries(config.queries, 16, config.seed ^ 16);
    Sweep("d16 scan " + std::to_string(n_points / 1000) + "k",
          index.QueryCost(), [&](const double* q) { return index.Query(q); },
          queries, &pool, &table);
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
