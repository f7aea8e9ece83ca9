#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/metrics.h"
#include "common/metrics_names.h"
#include "common/stopwatch.h"

namespace nncell {
namespace bench {

BenchConfig ParseArgs(int argc, char** argv) {
  BenchConfig config;
  if (const char* env = std::getenv("NNCELL_BENCH_SCALE")) {
    config.scale = std::atof(env);
    if (config.scale <= 0) config.scale = 1.0;
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--scale=")) {
      config.scale = std::atof(v);
    } else if (const char* v = value("--queries=")) {
      config.queries = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--latency-ms=")) {
      config.page_latency_ms = std::atof(v);
    } else if (const char* v = value("--cpu-scale=")) {
      config.cpu_scale = std::atof(v);
    } else if (const char* v = value("--seed=")) {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--threads=")) {
      config.threads = std::strtoul(v, nullptr, 10);
    } else if (arg == "--warm") {
      config.cold_queries = false;
    } else if (arg == "--help") {
      std::printf(
          "flags: --scale=F --queries=N --latency-ms=F --cpu-scale=F "
          "--seed=N --threads=N --warm\n");
      std::exit(0);
    }
  }
  if (config.scale <= 0) config.scale = 1.0;
  if (config.queries == 0) config.queries = 1;
  return config;
}

size_t Scaled(size_t base, double scale, size_t min) {
  auto v = static_cast<size_t>(static_cast<double>(base) * scale);
  return v < min ? min : v;
}

Table::Table(std::vector<std::string> header, int width)
    : header_(std::move(header)), width_(width) {}

void Table::AddRow(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

void Table::Print() const {
  for (const auto& h : header_) std::printf("%-*s", width_, h.c_str());
  std::printf("\n");
  for (size_t i = 0; i < header_.size(); ++i) {
    for (int c = 0; c < width_ - 2; ++c) std::printf("-");
    std::printf("  ");
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    for (const auto& cell : row) std::printf("%-*s", width_, cell.c_str());
    std::printf("\n");
  }
  std::printf("\n");
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Int(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

NNCellSetup BuildNNCell(const PointSet& pts, NNCellOptions options,
                        const BenchConfig& config) {
  NNCellSetup setup;
  setup.file = std::make_unique<PageFile>(config.page_size);
  setup.pool = std::make_unique<BufferPool>(setup.file.get(),
                                            config.cache_pages);
  options.parallel.num_threads = config.threads;
  setup.index =
      std::make_unique<NNCellIndex>(setup.pool.get(), pts.dim(), options);
  // The paper figures measure the paper's method: the cell probe, even
  // where the index would plan a scan.
  setup.index->SetExactPlan(ExactPlan::kCellProbe);
  Stopwatch timer;
  Status st = setup.index->BulkBuild(pts);
  NNCELL_CHECK_MSG(st.ok(), st.ToString().c_str());
  setup.build_seconds = timer.ElapsedSeconds();
  return setup;
}

PointTreeSetup BuildPointTree(const PointSet& pts, bool use_xtree,
                              const BenchConfig& config) {
  PointTreeSetup setup;
  setup.file = std::make_unique<PageFile>(config.page_size);
  setup.pool = std::make_unique<BufferPool>(setup.file.get(),
                                            config.cache_pages);
  TreeOptions opts;
  opts.dim = pts.dim();
  if (use_xtree) {
    setup.tree = std::make_unique<XTree>(setup.pool.get(), opts);
  } else {
    setup.tree = std::make_unique<RStarTree>(setup.pool.get(), opts);
  }
  Stopwatch timer;
  for (size_t i = 0; i < pts.size(); ++i) {
    setup.tree->Insert(HyperRect::FromPoint(pts[i], pts.dim()), i);
  }
  setup.build_seconds = timer.ElapsedSeconds();
  return setup;
}

QueryCost MeasureNNCellQueries(const NNCellSetup& setup,
                               const PointSet& queries,
                               const BenchConfig& config) {
  QueryCost cost;
  uint64_t pages = 0;
  double cpu_s = 0.0;
  double candidates = 0.0;
  // Work counters come from the metrics registry as a before/after delta
  // over the whole run. The per-site cost while enabled is one relaxed
  // fetch_add, small against an LP-free point query; still, deltas are
  // taken outside the timed region and the previous enabled state is
  // restored afterwards so benchmarks compose.
  metrics::Registry& registry = metrics::Registry::Global();
  metrics::Counter* visits = registry.counter(metrics::kIndexNodeVisits);
  metrics::Counter* dists =
      registry.counter(metrics::kQueryDistanceComputations);
  const bool was_enabled = metrics::Registry::Enabled();
  metrics::Registry::SetEnabled(true);
  const uint64_t visits_before = visits->Value();
  const uint64_t dists_before = dists->Value();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (config.cold_queries) setup.pool->DropCache();
    setup.pool->ResetStats();
    Stopwatch timer;
    auto r = setup.index->Query(queries[i]);
    cpu_s += timer.ElapsedSeconds();
    NNCELL_CHECK(r.ok());
    pages += setup.pool->stats().physical_reads;
    candidates += static_cast<double>(r->candidates);
  }
  const uint64_t visit_delta = visits->Value() - visits_before;
  const uint64_t dist_delta = dists->Value() - dists_before;
  metrics::Registry::SetEnabled(was_enabled);
  double n = static_cast<double>(queries.size());
  cost.cpu_ms = cpu_s * 1e3 / n;
  cost.page_accesses = static_cast<double>(pages) / n;
  cost.total_ms = cost.cpu_ms * config.cpu_scale +
                  cost.page_accesses * config.page_latency_ms;
  cost.candidates = candidates / n;
  cost.node_visits = static_cast<double>(visit_delta) / n;
  cost.distance_calcs = static_cast<double>(dist_delta) / n;
  return cost;
}

QueryCost MeasurePointTreeNN(const PointTreeSetup& setup,
                             const PointSet& queries,
                             const BenchConfig& config) {
  QueryCost cost;
  uint64_t pages = 0;
  double cpu_s = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (config.cold_queries) setup.pool->DropCache();
    setup.pool->ResetStats();
    Stopwatch timer;
    auto r = setup.tree->NnBranchAndBound(queries[i]);
    cpu_s += timer.ElapsedSeconds();
    NNCELL_CHECK(r.has_value());
    pages += setup.pool->stats().physical_reads;
  }
  double n = static_cast<double>(queries.size());
  cost.cpu_ms = cpu_s * 1e3 / n;
  cost.page_accesses = static_cast<double>(pages) / n;
  cost.total_ms = cost.cpu_ms * config.cpu_scale +
                  cost.page_accesses * config.page_latency_ms;
  return cost;
}

ApproxAlgorithm RecommendedAlgorithm(size_t dim) {
  return dim <= 8 ? ApproxAlgorithm::kSphere : ApproxAlgorithm::kNNDirection;
}

}  // namespace bench
}  // namespace nncell
