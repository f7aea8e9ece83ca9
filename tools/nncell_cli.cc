// nncell_cli -- command-line front end for the NN-cell index.
//
//   nncell_cli build  <points.csv> <index.nncell|dir> [--algorithm=sphere]
//                     [--decompose=K] [--xtree=0|1] [--threads=N] [--durable]
//                     [--shards=K]
//   nncell_cli query  <index.nncell|dir> <queries.csv> [--k=1] [--threads=N]
//                     [--trace] [--epsilon=E] [--max-visits=N]
//   nncell_cli stats  <index.nncell|dir> [--json] [--probe-queries=N]
//                     [--lp-sample=N] [--seed=S] [--epsilon=E]
//                     [--max-visits=N]
//   nncell_cli checkpoint <dir>
//   nncell_cli recover    <dir> [--dim=N]
//   nncell_cli rebalance  <dir>
//
// An index argument that names a directory is opened as a durable index
// (snapshot + write-ahead log, docs/PERSISTENCE.md); `build --durable`
// creates one. A directory containing a `shard.manifest` is opened as a
// sharded index (docs/SHARDING.md); `build --durable --shards=K` creates
// one, and every command below accepts either kind. `checkpoint` folds
// the WAL(s) into fresh snapshots; `recover` opens the directory, replays
// the log(s), reports what recovery did, and exits nonzero on any
// corruption -- the operator entry points of the runbooks in
// docs/OPERATIONS.md. `rebalance` recomputes a sharded index's cuts from
// the live points and installs the next routing epoch.
//
// --threads=N runs the build's LP solves / the query batch on N worker
// threads (0 = one per hardware core). The built index is byte-identical
// for every thread count.
//
// `query --trace` prints, after each result line, the per-stage timeline
// of that query (index probe -> candidate distance scan -> fallback) as
// one JSON object; see docs/OPERATIONS.md.
//
// `query --epsilon=E` answers from the approximate tier with a certified
// (1+E)-approximate nearest neighbor; `--max-visits=N` caps the search at
// N leaf pages (docs/APPROXIMATE.md). Either flag switches the result
// lines to the approximate format (base line plus
// ` approx=<0|1> visits=<pages> bound=<dist>`); with both flags absent the
// output is byte-identical to the exact tier. `stats --json` accepts the
// same two flags to run the probe workload through the approximate tier;
// its "approx" object stays the constant {"enabled":0} when they are
// absent.
//
// `stats --json` emits one stable JSON object ({"index":...,"metrics":...})
// with the full metrics-registry snapshot after a deterministic probe
// workload: --probe-queries uniform NN queries (seeded by --seed) exercise
// the query/index/storage counters, and --lp-sample cell approximations are
// recomputed (and discarded) to exercise the LP counters. Every metric
// name is documented in docs/METRICS.md.
//
// CSV files contain one point per line, comma-separated coordinates in
// [0,1]. Lines starting with '#' are skipped. The build command prints
// progress and writes a self-contained binary index image; query prints
// one result line per query point.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/kernels/kernels.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "nncell/nncell_index.h"
#include "nncell/query_trace.h"
#include "shard/shard_format.h"
#include "shard/sharded_index.h"
#include "storage/buffer_pool.h"
#include "storage/fs_util.h"
#include "storage/page_file.h"

namespace {

using namespace nncell;

// An opened index plus whatever storage keeps it alive: durable indexes
// own their storage; file-image indexes borrow `file`/`pool` below.
// Exactly one of `index`/`sharded` is set.
struct OpenedIndex {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<NNCellIndex> index;
  std::unique_ptr<ShardedIndex> sharded;
};

// A directory with a shard manifest is a sharded index root, not a plain
// durable index directory.
bool IsShardedDir(const std::string& path) {
  return fs::IsDirectory(path) &&
         fs::PathExists(shard::JoinPath(path, shard::kShardManifestFileName));
}

// Opens `path` as a sharded root, a durable directory, or a single-file
// snapshot image.
StatusOr<OpenedIndex> OpenAnyIndex(const std::string& path) {
  OpenedIndex o;
  if (IsShardedDir(path)) {
    auto idx = ShardedIndex::Open(path, 0, NNCellOptions(),
                                  NNCellIndex::DurableOptions(),
                                  ShardedOptions());
    if (!idx.ok()) return idx.status();
    o.sharded = std::move(*idx);
    return o;
  }
  if (fs::IsDirectory(path)) {
    auto idx = NNCellIndex::Open(path, 0, NNCellOptions());
    if (!idx.ok()) return idx.status();
    o.index = std::move(*idx);
    return o;
  }
  o.file = std::make_unique<PageFile>(4096);
  o.pool = std::make_unique<BufferPool>(o.file.get(), 4096);
  auto idx = NNCellIndex::Load(path, o.file.get(), o.pool.get());
  if (!idx.ok()) return idx.status();
  o.index = std::move(*idx);
  return o;
}

// Opens `path` like OpenAnyIndex and runs `fn` on whichever index kind it
// holds -- the one place a subcommand forks on plain vs sharded.
template <typename Fn>
int WithAnyIndex(const std::string& path, Fn&& fn) {
  auto opened = OpenAnyIndex(path);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  if (opened->sharded) return fn(*opened->sharded);
  return fn(*opened->index);
}

StatusOr<PointSet> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::InvalidArgument("cannot open " + path);
  }
  std::string line;
  std::vector<std::vector<double>> rows;
  size_t dim = 0;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<double> row;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      char* end = nullptr;
      double v = std::strtod(cell.c_str(), &end);
      if (end == cell.c_str()) {
        return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                       ": not a number: " + cell);
      }
      row.push_back(v);
    }
    if (row.empty()) continue;
    if (dim == 0) dim = row.size();
    if (row.size() != dim) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": inconsistent dimension");
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return Status::InvalidArgument(path + ": no points");
  PointSet pts(dim);
  pts.Reserve(rows.size());
  for (const auto& row : rows) pts.Add(row);
  return pts;
}

const char* FlagValue(int argc, char** argv, const char* name) {
  size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

int Build(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: nncell_cli build <points.csv> <out.nncell>\n");
    return 2;
  }
  auto pts = ReadCsv(argv[2]);
  if (!pts.ok()) {
    std::fprintf(stderr, "%s\n", pts.status().ToString().c_str());
    return 1;
  }
  NNCellOptions options;
  if (const char* alg = FlagValue(argc, argv, "--algorithm")) {
    std::string a = alg;
    if (a == "correct") options.algorithm = ApproxAlgorithm::kCorrect;
    else if (a == "point") options.algorithm = ApproxAlgorithm::kPoint;
    else if (a == "sphere") options.algorithm = ApproxAlgorithm::kSphere;
    else if (a == "nn-direction") options.algorithm = ApproxAlgorithm::kNNDirection;
    else {
      std::fprintf(stderr, "unknown algorithm %s\n", alg);
      return 2;
    }
  }
  if (const char* k = FlagValue(argc, argv, "--decompose")) {
    options.decomposition.max_partitions = std::strtoul(k, nullptr, 10);
  }
  if (const char* x = FlagValue(argc, argv, "--xtree")) {
    options.use_xtree = std::atoi(x) != 0;
  }
  if (const char* t = FlagValue(argc, argv, "--threads")) {
    options.parallel.num_threads = std::strtoul(t, nullptr, 10);
  }

  size_t shards = 0;
  if (const char* s = FlagValue(argc, argv, "--shards")) {
    shards = std::strtoul(s, nullptr, 10);
    if (shards == 0) {
      std::fprintf(stderr, "--shards must be at least 1\n");
      return 2;
    }
    if (!HasFlag(argc, argv, "--durable")) {
      std::fprintf(stderr,
                   "--shards requires --durable: a sharded index is a "
                   "directory of per-shard snapshot+WAL dirs plus a router, "
                   "not a single-file image\n");
      return 2;
    }
  }

  if (shards > 0) {
    // Sharded durable build: partition along quantile-balanced cuts and
    // build every shard in parallel (docs/SHARDING.md).
    ShardedOptions sopts;
    sopts.num_shards = shards;
    auto idx = ShardedIndex::Open(std::string(argv[3]), pts->dim(), options,
                                  NNCellIndex::DurableOptions(), sopts);
    if (!idx.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   idx.status().ToString().c_str());
      return 1;
    }
    Stopwatch timer;
    Status st = (*idx)->BulkBuild(*pts);
    if (!st.ok()) {
      std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf(
        "built sharded index %s: %zu points, dim=%zu, algorithm=%s, "
        "%zu shards, %.2fs,\n"
        "  expected candidates per query %.2f\n",
        argv[3], (*idx)->size(), (*idx)->dim(),
        ApproxAlgorithmName((*idx)->options().algorithm), (*idx)->num_shards(),
        timer.ElapsedSeconds(), (*idx)->ExpectedCandidates());
    return 0;
  }

  if (HasFlag(argc, argv, "--durable")) {
    // Durable build: the output is a directory with a checksummed snapshot
    // and a write-ahead log; BulkBuild checkpoints on completion, and later
    // Insert/Delete through Open() are logged before they apply.
    auto idx = NNCellIndex::Open(std::string(argv[3]), pts->dim(), options);
    if (!idx.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   idx.status().ToString().c_str());
      return 1;
    }
    Stopwatch timer;
    Status st = (*idx)->BulkBuild(*pts);
    if (!st.ok()) {
      std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf(
        "built durable index %s: %zu points, dim=%zu, algorithm=%s, %.2fs,\n"
        "  %zu LP runs, expected candidates per query %.2f\n",
        argv[3], (*idx)->size(), (*idx)->dim(),
        ApproxAlgorithmName((*idx)->options().algorithm),
        timer.ElapsedSeconds(), (*idx)->build_stats().approx.lp_runs,
        (*idx)->ExpectedCandidates());
    return 0;
  }

  PageFile file(4096);
  BufferPool pool(&file, 4096);
  NNCellIndex index(&pool, pts->dim(), options);
  Stopwatch timer;
  Status st = index.BulkBuild(*pts);
  if (!st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  double secs = timer.ElapsedSeconds();
  st = index.Save(std::string(argv[3]));
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "built %s: %zu points, dim=%zu, algorithm=%s, %.2fs,\n"
      "  %zu LP runs, expected candidates per query %.2f\n",
      argv[3], index.size(), index.dim(),
      ApproxAlgorithmName(index.options().algorithm), secs,
      index.build_stats().approx.lp_runs, index.ExpectedCandidates());
  return 0;
}

// One result line: the exact-tier format, plus the certificate suffix
// when the query ran through the approximate tier. The suffix is only
// ever printed when `approx` is enabled, so exact-mode output stays
// byte-identical to what it was before the approximate tier existed.
void PrintNnLine(size_t i, const NNCellIndex::QueryResult& r,
                 const ApproxOptions& approx) {
  std::printf("query %zu: nn id=%llu dist=%.6f candidates=%zu", i,
              static_cast<unsigned long long>(r.id), r.dist, r.candidates);
  if (approx.enabled()) {
    std::printf(" approx=%d visits=%llu bound=%.6f",
                r.approx.approximate ? 1 : 0,
                static_cast<unsigned long long>(r.approx.leaf_visits),
                r.approx.bound);
  }
  std::printf("\n");
}

// Parses --epsilon / --max-visits into ApproxOptions; returns false (after
// printing the reason) on a malformed value.
bool ParseApproxFlags(int argc, char** argv, ApproxOptions* approx) {
  if (const char* e = FlagValue(argc, argv, "--epsilon")) {
    char* end = nullptr;
    approx->epsilon = std::strtod(e, &end);
    if (end == e || *end != '\0' || !(approx->epsilon >= 0.0)) {
      std::fprintf(stderr, "--epsilon must be a finite value >= 0\n");
      return false;
    }
  }
  if (const char* m = FlagValue(argc, argv, "--max-visits")) {
    char* end = nullptr;
    approx->max_leaf_visits = std::strtoull(m, &end, 10);
    if (end == m || *end != '\0') {
      std::fprintf(stderr, "--max-visits must be a non-negative integer\n");
      return false;
    }
  }
  return true;
}

// `query --trace`: per-stage timelines of the exact single-index pipeline.
// Traced queries run serially: the per-query buffer-pool deltas in the
// trace are only exact when queries do not overlap.
int RunTraced(const NNCellIndex& index, const PointSet& queries) {
  metrics::Registry::SetEnabled(true);
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryTrace trace;
    auto r = index.Query(queries[i], &trace);
    if (!r.ok()) {
      std::printf("query %zu: error %s\n", i, r.status().ToString().c_str());
      continue;
    }
    std::printf("query %zu: nn id=%llu dist=%.6f candidates=%zu\n", i,
                static_cast<unsigned long long>(r->id), r->dist,
                r->candidates);
    std::printf("trace %zu: %s\n", i, trace.ToJson().c_str());
  }
  return 0;
}
// Per-stage timelines are a single-index diagnostic; a sharded query is a
// merge of several of them. Point the operator at the shards.
int RunTraced(const ShardedIndex&, const PointSet&) {
  std::fprintf(stderr,
               "--trace is not supported on a sharded index; trace a "
               "single shard directory instead (docs/SHARDING.md)\n");
  return 2;
}

// `query` on either index kind: one body for both (the sharded index
// answers bit-identically to the plain one; docs/SHARDING.md).
template <typename Index>
int RunQuery(Index& index, int argc, char** argv) {
  auto csv = ReadCsv(argv[3]);
  if (!csv.ok()) {
    std::fprintf(stderr, "%s\n", csv.status().ToString().c_str());
    return 1;
  }
  const PointSet& queries = *csv;
  if (queries.dim() != index.dim()) {
    std::fprintf(stderr, "query dim %zu != index dim %zu\n", queries.dim(),
                 index.dim());
    return 1;
  }
  size_t k = 1;
  if (const char* kv = FlagValue(argc, argv, "--k")) {
    k = std::strtoul(kv, nullptr, 10);
  }
  size_t threads = 1;
  if (const char* t = FlagValue(argc, argv, "--threads")) {
    threads = std::strtoul(t, nullptr, 10);
    index.SetNumThreads(threads);
  }
  ApproxOptions approx;
  if (!ParseApproxFlags(argc, argv, &approx)) return 2;
  const bool trace_mode = HasFlag(argc, argv, "--trace");
  if (trace_mode && approx.enabled()) {
    // The trace instruments the exact cell-index pipeline; the approximate
    // tier bypasses it entirely (docs/APPROXIMATE.md).
    std::fprintf(stderr,
                 "--trace cannot be combined with --epsilon/--max-visits\n");
    return 2;
  }
  if (trace_mode && k == 1) return RunTraced(index, queries);
  if (k == 1 && (threads == 0 || threads > 1)) {
    // Batched answer path: results are identical to the serial loop below,
    // computed by concurrent readers.
    auto results = index.QueryBatch(queries, approx);
    if (!results.ok()) {
      std::fprintf(stderr, "%s\n", results.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < results->size(); ++i) {
      PrintNnLine(i, (*results)[i], approx);
    }
    return 0;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (k == 1) {
      auto r = index.Query(queries[i], approx);
      if (!r.ok()) {
        std::printf("query %zu: error %s\n", i, r.status().ToString().c_str());
        continue;
      }
      PrintNnLine(i, *r, approx);
    } else {
      auto r = index.KnnQuery(queries[i], k, approx);
      if (!r.ok()) {
        std::printf("query %zu: error %s\n", i, r.status().ToString().c_str());
        continue;
      }
      std::printf("query %zu:", i);
      for (const auto& hit : *r) {
        std::printf(" (%llu, %.6f)", static_cast<unsigned long long>(hit.id),
                    hit.dist);
      }
      if (approx.enabled() && !r->empty()) {
        const auto& cert = r->front().approx;
        std::printf(" approx=%d visits=%llu bound=%.6f",
                    cert.approximate ? 1 : 0,
                    static_cast<unsigned long long>(cert.leaf_visits),
                    cert.bound);
      }
      std::printf("\n");
    }
  }
  return 0;
}

int Query(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: nncell_cli query <index> <queries.csv>\n");
    return 2;
  }
  return WithAnyIndex(argv[2], [&](auto& index) {
    return RunQuery(index, argc, argv);
  });
}

// LP-effort probe for the stats workload: the sharded index has no
// aggregate recompute hook, so its LP counters reflect the build only.
void ProbeLpEffort(NNCellIndex& index, size_t lp_sample, uint64_t seed) {
  (void)index.MeasureApproxEffort(lp_sample, seed);
}
void ProbeLpEffort(ShardedIndex&, size_t, uint64_t) {}

// The per-shard lines of the text stats; a plain index has none.
void PrintShardLines(const NNCellIndex&) {}
void PrintShardLines(const ShardedIndex& sharded) {
  ShardedIndex::ShardStats s = sharded.Stats();
  std::printf("shards:             %zu (epoch %llu, route dim %u, "
              "%zu degraded)\n",
              sharded.num_shards(), static_cast<unsigned long long>(s.epoch),
              s.route_dim, sharded.degraded_shards());
  for (size_t i = 0; i < s.live.size(); ++i) {
    std::printf("  shard %-2zu          %llu live / %llu total, "
                "%llu probes%s\n",
                i, static_cast<unsigned long long>(s.live[i]),
                static_cast<unsigned long long>(s.total[i]),
                static_cast<unsigned long long>(s.probes[i]),
                s.healthy[i] ? "" : " [DEGRADED]");
  }
}

// Stats over either index kind. The sharded index only *adds* output (the
// shard lines, and the "shard" JSON object from ShardStatsJson exactly as
// the server builds it), so the unsharded text and JSON stay
// byte-identical to what they were before sharding existed.
template <typename Index>
int RunStats(Index& index, int argc, char** argv) {
  auto info = index.TreeInfo();
  // E/N: the share of the live points the cell probe is expected to
  // distance-check. Under kAuto the index scans instead once it reaches
  // 1 / NNCellIndex::kScanCoverage.
  const double expected_fraction =
      index.size() > 0
          ? index.ExpectedCandidates() / static_cast<double>(index.size())
          : 0.0;
  if (!HasFlag(argc, argv, "--json")) {
    std::printf("points:             %zu (dim %zu)\n", index.size(),
                index.dim());
    std::printf("algorithm:          %s\n",
                ApproxAlgorithmName(index.options().algorithm));
    std::printf("expected candidates:%.2f\n", index.ExpectedCandidates());
    std::printf("exact plan:         %s (E/N %.4f)\n", index.ExactPlanName(),
                expected_fraction);
    std::printf("tree height:        %zu\n", info.height);
    std::printf("tree nodes:         %zu (%zu leaves, %zu supernodes)\n",
                info.num_nodes, info.num_leaves, info.num_supernodes);
    std::printf("tree pages:         %zu (%zu bytes)\n", info.total_pages,
                info.total_pages * 4096);
    std::printf("validation:         %s\n",
                index.ValidateTree().empty() ? "OK"
                                             : index.ValidateTree().c_str());
    PrintShardLines(index);
    std::printf("(run with --json for the full metrics snapshot)\n");
    return 0;
  }

  // --json: run a deterministic probe workload with metrics enabled, then
  // dump {"index": <index facts>, "metrics": <registry snapshot>}.
  size_t probe_queries = 16;
  size_t lp_sample = 8;
  uint64_t seed = 0x5eed;
  if (const char* v = FlagValue(argc, argv, "--probe-queries")) {
    probe_queries = std::strtoul(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--lp-sample")) {
    lp_sample = std::strtoul(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--seed")) {
    seed = std::strtoull(v, nullptr, 10);
  }
  ApproxOptions approx;
  if (!ParseApproxFlags(argc, argv, &approx)) return 2;

  metrics::Registry& registry = metrics::Registry::Global();
  registry.ResetAll();
  metrics::Registry::SetEnabled(true);
  Rng rng(seed);
  std::vector<double> q(index.dim());
  // Aggregated certificate facts for the "approx" JSON object; stay zero
  // (and unreported) when the probe runs through the exact tier.
  uint64_t approx_approximate = 0;
  uint64_t approx_terminated_early = 0;
  uint64_t approx_truncated = 0;
  uint64_t approx_leaf_visits = 0;
  for (size_t t = 0; t < probe_queries; ++t) {
    for (auto& v : q) v = rng.NextDouble();
    auto r = index.Query(q.data(), approx);
    if (!r.ok()) {
      std::fprintf(stderr, "probe query failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    if (approx.enabled()) {
      approx_approximate += r->approx.approximate ? 1 : 0;
      approx_terminated_early += r->approx.terminated_early ? 1 : 0;
      approx_truncated += r->approx.truncated ? 1 : 0;
      approx_leaf_visits += r->approx.leaf_visits;
    }
  }
  // Recompute (and discard) a few cell approximations so the LP pipeline
  // counters reflect this index, not just zeros.
  ProbeLpEffort(index, lp_sample, seed);
  metrics::Registry::SetEnabled(false);

  char buf[512];
  std::string out = "{\"index\":{";
  std::snprintf(
      buf, sizeof(buf),
      "\"algorithm\":\"%s\",\"dim\":%zu,\"exact_plan\":\"%s\","
      "\"expected_candidates\":%.4f,\"expected_fraction\":%.6f,"
      "\"kernel_dispatch\":\"%s\",\"lp_sample\":%zu,\"points\":%zu,"
      "\"probe_queries\":%zu,\"tree_height\":%zu,\"tree_leaves\":%zu,"
      "\"tree_nodes\":%zu,\"tree_pages\":%zu,\"tree_supernodes\":%zu,"
      "\"validation\":\"%s\"",
      ApproxAlgorithmName(index.options().algorithm), index.dim(),
      index.ExactPlanName(), index.ExpectedCandidates(), expected_fraction,
      kernels::ActiveLevelName(), lp_sample,
      index.size(), probe_queries, info.height, info.num_leaves,
      info.num_nodes, info.total_pages, info.num_supernodes,
      index.ValidateTree().empty() ? "OK" : "FAILED");
  out += buf;
  out += "}";
  // The "approx" object is the constant {"enabled":0} unless the probe ran
  // through the approximate tier, so consumers of the exact-tier schema
  // see one stable token (docs/APPROXIMATE.md).
  if (approx.enabled()) {
    std::snprintf(
        buf, sizeof(buf),
        ",\"approx\":{\"enabled\":1,\"epsilon\":%.6f,\"max_leaf_visits\":%llu,"
        "\"queries\":%zu,\"approximate\":%llu,\"terminated_early\":%llu,"
        "\"truncated\":%llu,\"leaf_visits\":%llu}",
        approx.epsilon,
        static_cast<unsigned long long>(approx.max_leaf_visits), probe_queries,
        static_cast<unsigned long long>(approx_approximate),
        static_cast<unsigned long long>(approx_terminated_early),
        static_cast<unsigned long long>(approx_truncated),
        static_cast<unsigned long long>(approx_leaf_visits));
    out += buf;
  } else {
    out += ",\"approx\":{\"enabled\":0}";
  }
  const std::string shard = index.ShardStatsJson();
  if (!shard.empty()) {
    out += ",\"shard\":";
    out += shard;
  }
  out += ",\"metrics\":";
  out += registry.SnapshotJson();
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

int Stats(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: nncell_cli stats <index> [--json]"
                 " [--probe-queries=N] [--lp-sample=N] [--seed=S]"
                 " [--epsilon=E] [--max-visits=N]\n");
    return 2;
  }
  return WithAnyIndex(argv[2], [&](auto& index) {
    return RunStats(index, argc, argv);
  });
}

int Checkpoint(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: nncell_cli checkpoint <dir>\n");
    return 2;
  }
  const std::string dir = argv[2];
  if (!fs::IsDirectory(dir)) {
    std::fprintf(stderr, "%s is not a durable index directory\n", dir.c_str());
    return 2;
  }
  if (IsShardedDir(dir)) {
    ShardedIndex::RecoveryInfo sinfo;
    auto idx = ShardedIndex::Open(dir, 0, NNCellOptions(),
                                  NNCellIndex::DurableOptions(),
                                  ShardedOptions(), &sinfo);
    if (!idx.ok()) {
      std::fprintf(stderr, "%s\n", idx.status().ToString().c_str());
      return 1;
    }
    Status st = (*idx)->Checkpoint();
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf(
        "checkpointed %s: %zu live points across %zu shards, %llu router "
        "records folded into the router snapshot\n",
        dir.c_str(), (*idx)->size(), (*idx)->num_shards(),
        static_cast<unsigned long long>(sinfo.router_records_replayed));
    return 0;
  }
  NNCellIndex::RecoveryInfo info;
  auto idx = NNCellIndex::Open(dir, 0, NNCellOptions(),
                               NNCellIndex::DurableOptions(), &info);
  if (!idx.ok()) {
    std::fprintf(stderr, "%s\n", idx.status().ToString().c_str());
    return 1;
  }
  Status st = (*idx)->Checkpoint();
  if (!st.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "checkpointed %s: %zu live points, %llu wal records folded into the "
      "snapshot\n",
      dir.c_str(), (*idx)->size(),
      static_cast<unsigned long long>(info.wal_records_replayed));
  return 0;
}

// Sharded recovery report: what Open() finished, replayed and reconciled,
// plus one status line per shard. Exits nonzero when any shard is
// degraded or tree validation fails -- the operator entry point of the
// degraded-shard runbook (docs/SHARDING.md, docs/OPERATIONS.md).
int RecoverSharded(const std::string& dir) {
  ShardedIndex::RecoveryInfo info;
  auto idx = ShardedIndex::Open(dir, 0, NNCellOptions(),
                                NNCellIndex::DurableOptions(),
                                ShardedOptions(), &info);
  if (!idx.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 idx.status().ToString().c_str());
    return 1;
  }
  std::string tree_check = (*idx)->ValidateTree();
  std::printf("recovered sharded index %s:\n", dir.c_str());
  std::printf("  shards:            %zu (epoch %llu)\n", (*idx)->num_shards(),
              static_cast<unsigned long long>((*idx)->epoch()));
  std::printf("  rebalance:         %s\n",
              info.finalized_install  ? "finalized a committed install"
              : info.discarded_staging ? "discarded uncommitted staging"
                                       : "none in flight");
  std::printf("  router replayed:   %llu records (%llu already in snapshot)\n",
              static_cast<unsigned long long>(info.router_records_replayed),
              static_cast<unsigned long long>(info.router_records_skipped));
  std::printf("  reconciled:        %llu inserts, %llu deletes\n",
              static_cast<unsigned long long>(info.reconciled_inserts),
              static_cast<unsigned long long>(info.reconciled_deletes));
  for (size_t i = 0; i < info.shards.size(); ++i) {
    const auto& s = info.shards[i];
    if (s.status.ok()) {
      std::printf("  shard %-2zu           ok (%llu wal records replayed)\n", i,
                  static_cast<unsigned long long>(
                      s.info.wal_records_replayed));
    } else {
      std::printf("  shard %-2zu           DEGRADED: %s\n", i,
                  s.status.ToString().c_str());
    }
  }
  std::printf("  live points:       %zu (dim %zu)\n", (*idx)->size(),
              (*idx)->dim());
  std::printf("  tree validation:   %s\n",
              tree_check.empty() ? "OK" : tree_check.c_str());
  return ((*idx)->degraded() || !tree_check.empty()) ? 1 : 0;
}

int Recover(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: nncell_cli recover <dir> [--dim=N]\n");
    return 2;
  }
  const std::string dir = argv[2];
  if (!fs::IsDirectory(dir)) {
    std::fprintf(stderr, "%s is not a durable index directory\n", dir.c_str());
    return 2;
  }
  if (IsShardedDir(dir)) return RecoverSharded(dir);
  size_t dim = 0;
  if (const char* d = FlagValue(argc, argv, "--dim")) {
    dim = std::strtoul(d, nullptr, 10);
  }
  NNCellIndex::RecoveryInfo info;
  auto idx = NNCellIndex::Open(dir, dim, NNCellOptions(),
                               NNCellIndex::DurableOptions(), &info);
  if (!idx.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 idx.status().ToString().c_str());
    return 1;
  }
  std::string tree_check = (*idx)->ValidateTree();
  std::printf("recovered %s:\n", dir.c_str());
  std::printf("  snapshot:        %s\n",
              info.snapshot_loaded
                  ? ("loaded (covers wal lsn " +
                     std::to_string(info.snapshot_wal_lsn) + ")")
                        .c_str()
                  : (info.created ? "none (fresh index)" : "none"));
  std::printf("  wal replayed:    %llu records\n",
              static_cast<unsigned long long>(info.wal_records_replayed));
  std::printf("  wal skipped:     %llu records (already in snapshot)\n",
              static_cast<unsigned long long>(info.wal_records_skipped));
  std::printf("  wal torn tail:   %llu bytes truncated\n",
              static_cast<unsigned long long>(info.wal_torn_bytes));
  std::printf("  live points:     %zu (dim %zu)\n", (*idx)->size(),
              (*idx)->dim());
  std::printf("  tree validation: %s\n",
              tree_check.empty() ? "OK" : tree_check.c_str());
  return tree_check.empty() ? 0 : 1;
}

int Rebalance(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: nncell_cli rebalance <dir>\n");
    return 2;
  }
  const std::string dir = argv[2];
  if (!IsShardedDir(dir)) {
    std::fprintf(stderr, "%s is not a sharded index directory (no %s)\n",
                 dir.c_str(), shard::kShardManifestFileName);
    return 2;
  }
  // The rebalance rebuilds every shard's cells: one thread per core.
  NNCellOptions options;
  options.parallel.num_threads = 0;
  auto idx = ShardedIndex::Open(dir, 0, options,
                                NNCellIndex::DurableOptions(),
                                ShardedOptions());
  if (!idx.ok()) {
    std::fprintf(stderr, "%s\n", idx.status().ToString().c_str());
    return 1;
  }
  const uint64_t epoch_before = (*idx)->epoch();
  Stopwatch timer;
  Status st = (*idx)->Rebalance(/*force=*/true);
  if (!st.ok()) {
    std::fprintf(stderr, "rebalance failed: %s\n", st.ToString().c_str());
    return 1;
  }
  ShardedIndex::ShardStats s = (*idx)->Stats();
  std::printf("rebalanced %s: epoch %llu -> %llu, %zu shards, %zu live "
              "points, %.2fs\n",
              dir.c_str(), static_cast<unsigned long long>(epoch_before),
              static_cast<unsigned long long>((*idx)->epoch()),
              (*idx)->num_shards(), (*idx)->size(), timer.ElapsedSeconds());
  for (size_t i = 0; i < s.live.size(); ++i) {
    std::printf("  shard %-2zu %llu live points\n", i,
                static_cast<unsigned long long>(s.live[i]));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: nncell_cli"
                 " <build|query|stats|checkpoint|recover|rebalance> ...\n"
                 "  build <points.csv> <out.nncell|dir> [--algorithm=A]"
                 " [--decompose=K] [--xtree=0|1] [--threads=N] [--durable]"
                 " [--shards=K]\n"
                 "  query <index.nncell|dir> <queries.csv> [--k=N]"
                 " [--threads=N] [--trace] [--epsilon=E] [--max-visits=N]\n"
                 "  stats <index.nncell|dir> [--json] [--probe-queries=N]"
                 " [--lp-sample=N] [--seed=S] [--epsilon=E]"
                 " [--max-visits=N]\n"
                 "  checkpoint <dir>\n"
                 "  recover <dir> [--dim=N]\n"
                 "  rebalance <dir>\n");
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "build") return Build(argc, argv);
  if (cmd == "query") return Query(argc, argv);
  if (cmd == "stats") return Stats(argc, argv);
  if (cmd == "checkpoint") return Checkpoint(argc, argv);
  if (cmd == "recover") return Recover(argc, argv);
  if (cmd == "rebalance") return Rebalance(argc, argv);
  std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  return 2;
}
