// nncell_bench -- end-to-end serving benchmark (bench/e2e/README.md).
//
//   nncell_bench --workload=NAME|all --seed=S [--seconds=T] [--trace[=0|1]]
//                [--repeat=N] [--quick] [--out=DIR]
//
// One run of a workload:
//   1. generates the base points from --seed (src/data generators);
//   2. builds a fresh durable index with the shipped `nncell_cli build
//      --durable --threads=4 [--shards=4]` and starts the shipped
//      `nncell_server --threads=4`, timing "empty directory -> READY"
//      (setup_s) several times and keeping the last server;
//   3. warms up, then drives the workload for --seconds over the unix
//      socket with server::Client: per workload connection, one thread
//      sending its next request when the previous reply arrives;
//   4. drains the server with SIGTERM, reopens the index in-process and
//      runs CheckInvariants, and checks the answers against a brute-force
//      scalar oracle;
//   5. prints one JSON line {"correct","attempted","failed","metrics"} with
//      every end-to-end metric.
//
// --trace replaces steps 2-4 with the same workload served in-process by
// NNCellServer over a TimedBackend that records one span per index call
// and the registry counters each call moved, and prints the per-layer
// metrics instead. Both modes accept --out=DIR for the artifacts the
// README describes. Flags take `--name=value` or `--name value`.
//
// Exit status: 0 when every answer and the reopen check are correct, 1 on
// a wrong answer or a failed check or setup (the JSON line is still
// printed), 2 on bad flags or missing tools.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/kernels/kernels.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "nncell/query_trace.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/sharded_index.h"

#ifndef NNCELL_BENCH_BUILD_TYPE
#define NNCELL_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace nncell;
namespace fsys = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads and metrics. README.md gives the reason for every number here;
// BENCHMARK.json repeats the names, and the smoke test keeps the two equal.

struct Workload {
  const char* name;
  size_t dim;
  size_t points;       // GenerateUniform base points
  size_t shards;       // 0 = plain durable index
  bool zipf_queries;   // else uniform in space (GenerateQueries)
  size_t connections;  // one closed-loop client thread each
  uint64_t w_query, w_insert, w_delete;
  // Length of the windows the end-to-end statistics are taken over; 0 =
  // the whole timed phase (BetterDecile says why windows help).
  double window_s;
};

constexpr Workload kWorkloads[] = {
    {"read-d16", 16, 3000, 0, false, 4, 1, 0, 0, 0.5},
    {"read-d4-sharded", 4, 20000, 4, true, 4, 1, 0, 0, 0.5},
    {"write-d4", 4, 2000, 0, true, 1, 10, 72, 18, 0},
};

// Answers are verified by replaying each connection's own writes, which
// is the whole history only when a single connection writes.
constexpr bool AtMostOneWriter() {
  for (const Workload& w : kWorkloads) {
    if (w.w_insert + w.w_delete > 0 && w.connections != 1) return false;
  }
  return true;
}
static_assert(AtMostOneWriter());

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_ops_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"server_rss_mb", "MB"},
    {"server_cpu_us_per_op", "us"},
    {"disk_bytes_per_point", "B"},
};

constexpr MetricDef kPerLayer[] = {
    {"server.queue_wait_us_p50", "us"},
    {"server.queue_wait_us_p99", "us"},
    {"server.respond_us_p50", "us"},
    {"server.self_us_p50", "us"},
    {"server.batch_size_mean", "count"},
    {"server.backend_busy_frac", "frac"},
    {"shard.probes_per_query", "count"},
    {"shard.pruned_per_query", "count"},
    {"backend.query_us_per_query", "us"},
    {"nncell.query_us_p50", "us"},
    {"nncell.index_probe_us_p50", "us"},
    {"nncell.distance_scan_us_p50", "us"},
    {"nncell.candidates_per_query", "count"},
    {"nncell.distance_computations_per_query", "count"},
    {"nncell.fallback_frac", "frac"},
    {"nncell.expected_candidates", "count"},
    {"nncell.insert_us_p50", "us"},
    {"nncell.insert_us_p90", "us"},
    {"nncell.delete_us_p50", "us"},
    {"nncell.delete_us_p90", "us"},
    {"nncell.cells_recomputed_per_write", "count"},
    {"nncell.bulk_build_s", "s"},
    {"nncell.checkpoint_ms", "ms"},
    {"nncell.open_ms", "ms"},
    {"lp.runs_per_write", "count"},
    {"lp.iterations_per_run", "count"},
    {"lp.rows_per_run", "count"},
    {"lp.faces_skipped_frac", "frac"},
    {"lp.runs_per_built_point", "count"},
    {"lp.cell_us", "us"},
    {"index.node_visits_per_query", "count"},
    {"index.leaf_visits_per_query", "count"},
    {"index.node_visits_per_write", "count"},
    {"index.node_splits_per_write", "count"},
    {"wal.fsyncs_per_write", "count"},
    {"wal.bytes_per_write", "B"},
    {"storage.pool.logical_reads_per_query", "count"},
    {"storage.pool.miss_frac", "frac"},
    {"storage.snapshot_bytes", "B"},
    {"kernels.distance_bytes_per_query", "B"},
    {"client.query_p50_us", "us"},
    {"client.query_p99_us", "us"},
    {"client.write_p50_us", "us"},
    {"client.write_p90_us", "us"},
    {"traced.setup_s", "s"},
    {"traced.throughput_ops_s", "1/s"},
    {"traced.latency_p50_us", "us"},
    {"traced.latency_p99_us", "us"},
};

constexpr int kServerThreads = 4;
constexpr double kWarmupSeconds = 2.0;
constexpr size_t kSetupRepeats = 3;
constexpr size_t kReplayQueries = 2000;
constexpr size_t kLpSample = 200;
constexpr size_t kInvariantQueries = 100;
// Answers are all checked when the scalar oracle needs at most this many
// coordinate operations (about 2 s); otherwise a seeded sample of at least
// kMinVerified answers is.
constexpr double kVerifyBudget = 2e9;
constexpr size_t kMinVerified = 2000;

using Metrics = std::map<std::string, double>;

struct RunSpec {
  const Workload* w = nullptr;
  uint64_t seed = 1;
  size_t points = 0;
  double seconds = 20;
  double warmup = kWarmupSeconds;
  size_t setups = kSetupRepeats;
  size_t replay_queries = kReplayQueries;
  size_t lp_sample = kLpSample;
  // Share of the answer-verification budget this load phase may use.
  double verify_share = 1;
  bool trace = false;
  std::string out_dir;
  std::string bin_dir;
  std::string work_dir;
};

struct RunResult {
  bool correct = true;
  std::string error;  // first correctness failure
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

// Nearest-rank percentile, the loadgen convention; 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t i = static_cast<size_t>(p * static_cast<double>(v.size()));
  return v[std::min(i, v.size() - 1)];
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---------------------------------------------------------------------------
// Inputs: every point and query is a pure function of the seed.

// Gray et al. zipfian rank generator over [0, n), theta in [0, 1) -- the
// rule bench/loadgen.cc uses for its hot set.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n_; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    alpha_ = 1.0 / (1.0 - theta_);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const uint64_t r = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r >= n_ ? n_ - 1 : r;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

struct Inputs {
  explicit Inputs(const RunSpec& spec)
      : base(GenerateUniform(spec.points, spec.w->dim, spec.seed)),
        zipf(spec.points, 0.99) {}

  PointSet base;
  Zipf zipf;
};

// The next workload query: uniform in the data space (what GenerateQueries
// draws), or a zipf-ranked base point plus N(0, 0.01^2) jitter per
// coordinate.
void NextQuery(const Workload& w, const Inputs& in, Rng* rng, double* q) {
  if (!w.zipf_queries) {
    for (size_t d = 0; d < w.dim; ++d) q[d] = rng->NextDouble();
    return;
  }
  const double* p = in.base[in.zipf.Next(*rng)];
  for (size_t d = 0; d < w.dim; ++d) q[d] = p[d] + 0.01 * rng->NextGaussian();
}

// Identifies a query or insert by its coordinates, which is how the traced
// run matches index calls to client requests.
uint64_t PointKey(const double* p, size_t dim) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < dim; ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, p + i, sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Load: one thread and one blocking connection per client.

enum class OpType : uint8_t { kQuery, kInsert, kDelete };

struct OpRecord {
  int64_t sent_ns = 0;  // since the load epoch
  int64_t done_ns = 0;
  uint64_t key = 0;  // PointKey of the query/insert point, or the deleted id
  OpType type = OpType::kQuery;
  bool ok = false;
  bool timed = false;  // sent inside the timed phase
};

struct Answer {
  uint64_t seq = 0;  // position in the connection's op stream
  uint64_t id = 0;
  double dist = 0;
  std::vector<double> q;
  std::vector<double> point;
};

struct WriteRecord {
  uint64_t seq = 0;
  OpType type = OpType::kInsert;
  uint64_t id = 0;
  std::vector<double> point;  // inserts only
};

struct ConnLog {
  Status connect = Status::OK();
  std::vector<OpRecord> ops;
  std::vector<Answer> answers;  // reservoir sample of query answers
  uint64_t queries_seen = 0;
  std::vector<WriteRecord> writes;  // every acknowledged write
};

struct LoadPlan {
  const Workload* w = nullptr;
  const Inputs* in = nullptr;
  uint64_t seed = 0;
  std::string socket;
  Clock::time_point start, timed, end;
  size_t answer_cap = 0;  // per connection
  // Released once the end of the timed phase has been sampled; connections
  // stay open until then (see DriveLoad).
  std::latch* end_sampled = nullptr;
};

void DriveConnection(const LoadPlan& plan, size_t conn, ConnLog* log) {
  auto client = server::Client::ConnectUnix(plan.socket);
  if (!client.ok()) {
    log->connect = client.status();
    return;
  }
  const Workload& w = *plan.w;
  Rng rng(plan.seed * 0x9e3779b97f4a7c15ULL + 0x51 * (conn + 1));
  Rng sample_rng(plan.seed ^ (0xa5a5ULL << conn));
  // Op types are interleaved evenly by credit counters instead of drawn at
  // random, so every run issues the same share of writes.
  const double total_weight =
      static_cast<double>(w.w_query + w.w_insert + w.w_delete);
  const double insert_share = static_cast<double>(w.w_insert) / total_weight;
  const double delete_share = static_cast<double>(w.w_delete) / total_weight;
  double insert_credit = 0;
  double delete_credit = 0;
  std::vector<uint64_t> my_ids;
  std::vector<double> point(w.dim);

  for (uint64_t seq = 0; Clock::now() < plan.end; ++seq) {
    insert_credit += insert_share;
    delete_credit += delete_share;
    OpType type = OpType::kQuery;
    if (insert_credit >= 1) {
      insert_credit -= 1;
      type = OpType::kInsert;
    } else if (delete_credit >= 1 && !my_ids.empty()) {
      delete_credit -= 1;
      type = OpType::kDelete;
    }

    OpRecord rec;
    rec.type = type;
    if (type == OpType::kDelete) {
      rec.key = my_ids.back();
    } else if (type == OpType::kInsert) {
      for (double& v : point) v = rng.NextDouble();
      rec.key = PointKey(point.data(), w.dim);
    } else {
      NextQuery(w, *plan.in, &rng, point.data());
      rec.key = PointKey(point.data(), w.dim);
    }

    const Clock::time_point sent = Clock::now();
    rec.timed = sent >= plan.timed;
    if (type == OpType::kQuery) {
      auto r = client->Query(point);
      rec.ok = r.ok();
      if (r.ok()) {
        ++log->queries_seen;
        size_t slot = log->answers.size();
        if (slot >= plan.answer_cap) {
          slot = sample_rng.NextIndex(log->queries_seen);
        }
        if (slot < plan.answer_cap) {
          Answer a{seq, r->id, r->dist, point, std::move(r->point)};
          if (slot == log->answers.size()) {
            log->answers.push_back(std::move(a));
          } else {
            log->answers[slot] = std::move(a);
          }
        }
      }
    } else if (type == OpType::kInsert) {
      auto id = client->Insert(point);
      rec.ok = id.ok();
      if (id.ok()) {
        my_ids.push_back(*id);
        log->writes.push_back({seq, OpType::kInsert, *id, point});
      }
    } else {
      my_ids.pop_back();
      rec.ok = client->Delete(rec.key).ok();
      if (rec.ok) log->writes.push_back({seq, OpType::kDelete, rec.key, {}});
    }
    rec.sent_ns = Nanos(sent - plan.start);
    rec.done_ns = Nanos(Clock::now() - plan.start);
    log->ops.push_back(rec);
  }
  plan.end_sampled->wait();
}

struct LoadResult {
  std::vector<ConnLog> logs;
  Clock::time_point start;
  size_t windows = 1;
  // Clock readings as each window opened and as the timed phase ended
  // (windows + 1 values, since start).
  std::vector<int64_t> edge_ns;
};

// Runs warm-up + timed phase over every connection. The timed phase is
// cut into the workload's windows; `at_window(i)` runs on the calling
// thread as window i opens, and with i == windows as the phase ends.
LoadResult DriveLoad(const RunSpec& spec, const Inputs& in,
                     const std::string& socket,
                     const std::function<void(size_t)>& at_window) {
  const Workload& w = *spec.w;
  LoadResult out;
  out.logs.resize(w.connections);
  std::latch end_sampled(1);
  LoadPlan plan;
  plan.end_sampled = &end_sampled;
  plan.w = &w;
  plan.in = &in;
  plan.seed = spec.seed;
  plan.socket = socket;
  const double oracle_ops =
      static_cast<double>(spec.points) * static_cast<double>(w.dim);
  const double total_cap =
      spec.verify_share *
      std::max(static_cast<double>(kMinVerified), kVerifyBudget / oracle_ops);
  plan.answer_cap = static_cast<size_t>(
      std::ceil(total_cap / static_cast<double>(w.connections)));
  plan.start = Clock::now();
  plan.timed = plan.start + std::chrono::nanoseconds(
                                static_cast<int64_t>(spec.warmup * 1e9));
  plan.end = plan.timed + std::chrono::nanoseconds(
                              static_cast<int64_t>(spec.seconds * 1e9));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w.connections; ++c) {
    threads.emplace_back(DriveConnection, std::cref(plan), c, &out.logs[c]);
  }
  out.start = plan.start;
  out.windows =
      w.window_s > 0
          ? std::max<size_t>(1, static_cast<size_t>(spec.seconds / w.window_s +
                                                    0.5))
          : 1;
  const double window_s = spec.seconds / static_cast<double>(out.windows);
  // The last edge is sampled at plan.end, and connections close only after
  // it: the daemon's per-connection threads take their CPU time with them
  // when they exit.
  for (size_t i = 0; i <= out.windows; ++i) {
    std::this_thread::sleep_until(
        plan.timed + std::chrono::nanoseconds(static_cast<int64_t>(
                         static_cast<double>(i) * window_s * 1e9)));
    out.edge_ns.push_back(Nanos(Clock::now() - plan.start));
    at_window(i);
  }
  end_sampled.count_down();
  for (std::thread& t : threads) t.join();
  return out;
}

struct ClientSummary {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> query_us, write_us;
  // Per window: request latencies of every type (by send time),
  // completions (by reply time), wall seconds, and daemon CPU seconds
  // (untraced runs).
  std::vector<std::vector<double>> window_us;
  std::vector<double> window_done, window_s, window_cpu_s;
  Status connect = Status::OK();

  // Adds another load phase: its windows are appended, or all folded into
  // one window when `single_window`.
  void Add(const ClientSummary& o, bool single_window) {
    attempted += o.attempted;
    failed += o.failed;
    query_us.insert(query_us.end(), o.query_us.begin(), o.query_us.end());
    write_us.insert(write_us.end(), o.write_us.begin(), o.write_us.end());
    if (!o.connect.ok()) connect = o.connect;
    for (size_t i = 0; i < o.window_us.size(); ++i) {
      if (!single_window || window_us.empty()) {
        window_us.emplace_back();
        window_done.push_back(0);
        window_s.push_back(0);
        window_cpu_s.push_back(0);
      }
      window_us.back().insert(window_us.back().end(), o.window_us[i].begin(),
                              o.window_us[i].end());
      window_done.back() += o.window_done[i];
      window_s.back() += o.window_s[i];
      window_cpu_s.back() += o.window_cpu_s[i];
    }
  }
};

ClientSummary Summarize(const LoadResult& load) {
  ClientSummary s;
  const std::vector<int64_t>& edges = load.edge_ns;
  // Window index of a time; `windows` past the last edge.
  auto window_of = [&](int64_t ns) {
    const size_t i = std::upper_bound(edges.begin(), edges.end(), ns) -
                     edges.begin();
    return std::max<size_t>(i, 1) - 1;
  };
  s.window_done.assign(load.windows, 0);
  s.window_us.resize(load.windows);
  s.window_cpu_s.assign(load.windows, 0);
  for (const ConnLog& log : load.logs) {
    if (!log.connect.ok()) s.connect = log.connect;
    for (const OpRecord& op : log.ops) {
      if (!op.timed) continue;
      ++s.attempted;
      if (!op.ok) {
        ++s.failed;
        continue;
      }
      const size_t done_window = window_of(op.done_ns);
      if (done_window < load.windows) s.window_done[done_window] += 1;
      const double us = (op.done_ns - op.sent_ns) / 1e3;
      s.window_us[std::min(window_of(op.sent_ns), load.windows - 1)]
          .push_back(us);
      (op.type == OpType::kQuery ? s.query_us : s.write_us).push_back(us);
    }
  }
  for (size_t i = 0; i < load.windows; ++i) {
    s.window_s.push_back((edges[i + 1] - edges[i]) / 1e9);
  }
  return s;
}

// A per-window statistic reduced to the decile on its better side (the
// whole-phase value for a single window). Other tenants of the machine
// only ever slow a window down, and they come in bursts of seconds, so
// this tracks the program rather than its neighbours as long as a tenth of
// the windows run undisturbed.
template <class Fn>
double BetterDecile(size_t windows, bool higher_is_better, Fn per_window) {
  std::vector<double> v;
  for (size_t i = 0; i < windows; ++i) v.push_back(per_window(i));
  return Percentile(v, higher_is_better ? 0.9 : 0.1);
}

// Throughput and request latency as a client sees them; `prefix` names
// the traced run's copies.
void ClientEndToEnd(const ClientSummary& sum, const std::string& prefix,
                    Metrics* m) {
  const size_t nw = sum.window_us.size();
  (*m)[prefix + "throughput_ops_s"] = BetterDecile(nw, true, [&](size_t i) {
    return Ratio(sum.window_done[i], sum.window_s[i]);
  });
  (*m)[prefix + "latency_p50_us"] = BetterDecile(
      nw, false, [&](size_t i) { return Percentile(sum.window_us[i], 0.5); });
  (*m)[prefix + "latency_p99_us"] = BetterDecile(
      nw, false, [&](size_t i) { return Percentile(sum.window_us[i], 0.99); });
}

// ---------------------------------------------------------------------------
// Correctness: answers against a brute-force scalar oracle.

double Dist(const double* a, const double* b, size_t dim) {
  double d2 = 0;
  for (size_t i = 0; i < dim; ++i) d2 += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(d2);
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(b), 1e-300);
}

// The points an answer may name: the base points under ids 0..N-1 and
// every acknowledged insert under the id the server returned.
class PointTable {
 public:
  PointTable(const PointSet& base, const std::vector<ConnLog>& logs)
      : dim_(base.dim()), base_(base.size()), coords_(base.raw()) {
    for (size_t i = 0; i < base.size(); ++i) slot_[i] = i;
    for (const ConnLog& log : logs) {
      for (const WriteRecord& wr : log.writes) {
        if (wr.type != OpType::kInsert) continue;
        slot_[wr.id] = coords_.size() / dim_;
        coords_.insert(coords_.end(), wr.point.begin(), wr.point.end());
      }
    }
    Reset();
  }

  // Back to the state after setup: the base points alive, no insert.
  void Reset() {
    alive_.assign(coords_.size() / dim_, 0);
    std::fill(alive_.begin(), alive_.begin() + base_, 1);
  }
  void SetAlive(uint64_t id, bool alive) { alive_[slot_.at(id)] = alive; }

  // Coordinates stored under `id`, or nullptr for an id never handed out.
  const double* Find(uint64_t id) const {
    auto it = slot_.find(id);
    return it == slot_.end() ? nullptr : coords_.data() + it->second * dim_;
  }

  // Distance from q to the nearest alive point.
  double Nearest(const double* q) const {
    double best = std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < alive_.size(); ++s) {
      if (alive_[s]) best = std::min(best, Dist(q, &coords_[s * dim_], dim_));
    }
    return best;
  }

 private:
  size_t dim_;
  size_t base_;
  std::vector<double> coords_;
  std::vector<char> alive_;
  std::unordered_map<uint64_t, size_t> slot_;
};

// Checks a sampled answer: its point is the one stored under its id, lies
// at the reported distance, and no live point is nearer. Returns "" or a
// description.
std::string CheckAnswer(const Answer& a, const PointTable& table,
                        size_t dim) {
  const double* stored = table.Find(a.id);
  if (stored == nullptr) return "unknown id " + std::to_string(a.id);
  if (a.point.size() != dim ||
      !std::equal(a.point.begin(), a.point.end(), stored)) {
    return "id " + std::to_string(a.id) + " returned with other coordinates";
  }
  if (!Near(Dist(a.q.data(), stored, dim), a.dist)) {
    return "id " + std::to_string(a.id) + " is not at the reported distance";
  }
  if (!Near(a.dist, table.Nearest(a.q.data()))) {
    return "answer to query " + std::to_string(a.seq) +
           " is not the nearest live point";
  }
  return "";
}

// Verifies every sampled answer against the live set at the moment it was
// given, by replaying its connection's acknowledged writes in order (at
// most one connection writes, so that is the whole history).
std::string VerifyAnswers(const Workload& w, const Inputs& in,
                          const std::vector<ConnLog>& logs,
                          uint64_t* checked) {
  PointTable table(in.base, logs);
  *checked = 0;
  for (const ConnLog& log : logs) {
    table.Reset();
    std::vector<const Answer*> answers;
    for (const Answer& a : log.answers) answers.push_back(&a);
    std::sort(answers.begin(), answers.end(),
              [](const Answer* x, const Answer* y) { return x->seq < y->seq; });
    auto next_write = log.writes.begin();
    for (const Answer* a : answers) {
      for (; next_write != log.writes.end() && next_write->seq < a->seq;
           ++next_write) {
        table.SetAlive(next_write->id, next_write->type == OpType::kInsert);
      }
      std::string err = CheckAnswer(*a, table, w.dim);
      if (!err.empty()) return err;
      ++*checked;
    }
  }
  return "";
}

// Acknowledged inserts minus acknowledged deletes, over the whole run.
int64_t NetInserts(const std::vector<ConnLog>& logs) {
  int64_t net = 0;
  for (const ConnLog& log : logs) {
    for (const WriteRecord& wr : log.writes) {
      net += wr.type == OpType::kInsert ? 1 : -1;
    }
  }
  return net;
}

// Opens the drained index directory in-process, runs CheckInvariants and
// compares the live count with base + acknowledged writes.
Status CheckReopen(const std::string& dir, bool sharded, size_t expected) {
  size_t live = 0;
  Status st = Status::OK();
  if (sharded) {
    auto idx = ShardedIndex::Open(dir, 0, NNCellOptions(),
                                  NNCellIndex::DurableOptions(),
                                  ShardedOptions());
    if (!idx.ok()) return idx.status();
    st = (*idx)->CheckInvariants(kInvariantQueries);
    live = (*idx)->size();
  } else {
    auto idx = NNCellIndex::Open(dir, 0, NNCellOptions());
    if (!idx.ok()) return idx.status();
    st = (*idx)->CheckInvariants(kInvariantQueries);
    live = (*idx)->size();
  }
  if (!st.ok()) return st;
  if (live != expected) {
    return Status::Internal("reopened index holds " + std::to_string(live) +
                            " live points, expected " +
                            std::to_string(expected));
  }
  return Status::OK();
}

void Verify(const RunSpec& spec, const Inputs& in, const LoadResult& load,
            const std::string& dir, RunResult* res) {
  const Workload& w = *spec.w;
  const size_t expected = spec.points + NetInserts(load.logs);
  Status st = CheckReopen(dir, w.shards > 0, expected);
  if (!st.ok()) {
    res->correct = false;
    res->error = "reopen check: " + st.ToString();
    return;
  }
  uint64_t checked = 0;
  std::string err = VerifyAnswers(w, in, load.logs, &checked);
  if (!err.empty()) {
    res->correct = false;
    res->error = err;
  }
  std::fprintf(stderr, "nncell_bench: %s verified %llu answers, reopen ok\n",
               w.name, static_cast<unsigned long long>(checked));
}

// ---------------------------------------------------------------------------
// Child processes (the untraced run drives the shipped binaries).

StatusOr<pid_t> Spawn(const std::vector<std::string>& argv, int stdout_fd,
                      const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return Status::Internal("cannot open " + log_path);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::signal(SIGPIPE, SIG_DFL);
    ::dup2(stdout_fd >= 0 ? stdout_fd : log_fd, 1);
    ::dup2(log_fd, 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  if (pid < 0) return Status::Internal("fork failed");
  return pid;
}

Status WaitExit(pid_t pid, const std::string& what) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return Status::Internal("waitpid failed: " + what);
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal(what + " exited abnormally (status " +
                            std::to_string(status) + ")");
  }
  return Status::OK();
}

std::string Tail(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  return s.size() > 2000 ? s.substr(s.size() - 2000) : s;
}

// A running nncell_server. The destructor kills and reaps a server that
// was not stopped, so no exit path leaves a daemon behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  // Starts the daemon and waits for its READY line.
  Status Start(const std::vector<std::string>& argv, const std::string& log) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
    auto pid = Spawn(argv, fds[1], log);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (!pid.ok()) return pid.status();
    pid_ = *pid;
    return AwaitLine("READY", 120);
  }

  // SIGTERM drain; requires the DRAINED line with a successful checkpoint
  // and exit status 0.
  Status Stop() {
    if (::kill(pid_, SIGTERM) != 0) return Status::Internal("kill failed");
    std::string line;
    Status st = AwaitLine("DRAINED", 120, &line);
    const pid_t pid = pid_;
    pid_ = -1;
    ::close(out_fd_);
    out_fd_ = -1;
    buffer_.clear();
    if (!st.ok()) ::kill(pid, SIGKILL);
    Status exit_st = WaitExit(pid, "nncell_server");
    if (!st.ok()) return st;
    if (line.find("checkpoint=ok") == std::string::npos) {
      return Status::Internal("drain failed: " + line);
    }
    return exit_st;
  }

  pid_t pid() const { return pid_; }

 private:
  Status AwaitLine(const char* prefix, int timeout_s,
                   std::string* line = nullptr) {
    const auto deadline = Clock::now() + std::chrono::seconds(timeout_s);
    for (;;) {
      for (size_t nl; (nl = buffer_.find('\n')) != std::string::npos;) {
        std::string l = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        if (l.rfind(prefix, 0) == 0) {
          if (line != nullptr) *line = l;
          return Status::OK();
        }
      }
      const int64_t left_ms =
          Nanos(deadline - Clock::now()) / 1000000;
      if (left_ms <= 0) {
        return Status::Internal(std::string("no ") + prefix + " line");
      }
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left_ms)) < 0 && errno != EINTR) {
        return Status::Internal("poll failed");
      }
      char buf[4096];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n == 0) {
        return Status::Internal(std::string("server exited before ") +
                                prefix);
      }
      if (n > 0) buffer_.append(buf, static_cast<size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
};

// CPU time of a live process, in seconds: the sum of its threads'
// schedstat run times. Threads that exit take their time with them, so
// callers sample only while the daemon's thread set is fixed.
double ProcessCpuSeconds(pid_t pid) {
  double ns = 0;
  std::error_code ec;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : fsys::directory_iterator(tasks, ec)) {
    std::ifstream in(task.path() / "schedstat");
    double run_ns = 0;
    if (in >> run_ns) ns += run_ns;
  }
  return ns / 1e9;
}

// VmHWM (peak resident set) of a live process, in MB.
double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fsys::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

Status WriteCsv(const PointSet& pts, const std::string& path) {
  std::ofstream out(path);
  char num[32];
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t d = 0; d < pts.dim(); ++d) {
      // %.17g round-trips every double, so the index holds exactly the
      // points the oracle checks against.
      std::snprintf(num, sizeof(num), "%.17g", pts[i][d]);
      out << (d == 0 ? "" : ",") << num;
    }
    out << '\n';
  }
  out.close();
  return out ? Status::OK() : Status::Internal("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Untraced run: the shipped CLI and daemon, timed from outside.

RunResult RunUntraced(const RunSpec& spec) {
  const Workload& w = *spec.w;
  RunResult res;
  Inputs in(spec);
  const std::string log = "server.log";
  if (Status st = WriteCsv(in.base, "points.csv"); !st.ok()) {
    res.correct = false;
    res.error = st.ToString();
    return res;
  }
  const std::string threads = "--threads=" + std::to_string(kServerThreads);
  // Every setup's server serves an equal share of the timed phase, so a
  // run samples several daemon processes (each places its threads anew)
  // over a longer stretch of the machine's time.
  RunSpec phase = spec;
  phase.seconds = spec.seconds / static_cast<double>(spec.setups);
  phase.verify_share = 1.0 / static_cast<double>(spec.setups);
  ClientSummary sum;
  std::vector<double> setup_s, rss;
  double disk_bytes = 0;
  for (size_t r = 0; r < spec.setups; ++r) {
    const std::string dir = "index" + std::to_string(r);
    std::vector<std::string> build = {spec.bin_dir + "/nncell_cli", "build",
                                      "points.csv", dir, "--durable", threads};
    if (w.shards > 0) build.push_back("--shards=" + std::to_string(w.shards));
    ServerProcess server;
    const auto t0 = Clock::now();
    auto pid = Spawn(build, -1, "build.log");
    Status st = pid.ok() ? WaitExit(*pid, "nncell_cli build") : pid.status();
    if (st.ok()) {
      st = server.Start({spec.bin_dir + "/nncell_server", dir,
                         "--socket=srv.sock", threads},
                        log);
    }
    setup_s.push_back(Nanos(Clock::now() - t0) / 1e9);
    if (!st.ok()) {
      res.correct = false;
      res.error = "setup: " + st.ToString() + "\n" + Tail("build.log") +
                  Tail(log);
      return res;
    }
    disk_bytes = static_cast<double>(DirBytes(dir));

    std::vector<double> cpu;  // daemon CPU seconds at every window edge
    LoadResult load = DriveLoad(phase, in, "srv.sock", [&](size_t) {
      cpu.push_back(ProcessCpuSeconds(server.pid()));
    });
    rss.push_back(ProcessPeakRssMb(server.pid()));
    ClientSummary part = Summarize(load);
    for (size_t i = 0; i < load.windows; ++i) {
      part.window_cpu_s[i] = cpu[i + 1] - cpu[i];
    }
    if (st = server.Stop(); !st.ok()) {
      res.correct = false;
      res.error = "drain: " + st.ToString() + "\n" + Tail(log);
      return res;
    }
    if (!part.connect.ok()) {
      res.correct = false;
      res.error = "connect: " + part.connect.ToString();
      return res;
    }
    Verify(phase, in, load, dir, &res);
    fsys::remove_all(dir);
    sum.Add(part, w.window_s == 0);
  }
  res.attempted = sum.attempted;
  res.failed = sum.failed;

  Metrics& m = res.metrics;
  m["setup_s"] = Percentile(setup_s, 0.5);
  ClientEndToEnd(sum, "", &m);
  m["server_rss_mb"] = Percentile(rss, 0.5);
  m["server_cpu_us_per_op"] =
      BetterDecile(sum.window_us.size(), false, [&](size_t i) {
        return Ratio(sum.window_cpu_s[i] * 1e6, sum.window_done[i]);
      });
  m["disk_bytes_per_point"] = disk_bytes / static_cast<double>(spec.points);
  std::fprintf(stderr,
               "nncell_bench: %s seed=%llu ops=%llu queries=%zu writes=%zu "
               "write_p50_us=%.1f setups_s=[",
               w.name, static_cast<unsigned long long>(spec.seed),
               static_cast<unsigned long long>(sum.attempted),
               sum.query_us.size(), sum.write_us.size(),
               Percentile(sum.write_us, 0.5));
  for (double s : setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, " ]\n");
  return res;
}

// ---------------------------------------------------------------------------
// Traced run: the same workload served in-process, one span per index call.

enum class SpanKind : uint8_t { kQuery, kInsert, kDelete, kCheckpoint };
constexpr size_t kSpanKinds = 4;
constexpr const char* kSpanNames[kSpanKinds] = {
    "backend.query_batch", "backend.insert", "backend.delete",
    "backend.checkpoint"};

// Registry counters read around every index call. The dispatcher is the
// only thread that calls the index (query batches fan out to the index's
// pool and join before returning), so a call's deltas are its own work.
enum Ctr : size_t {
  kNodeVisits,
  kLeafVisits,
  kNodeSplits,
  kPoolReads,
  kPoolMisses,
  kWalFsyncs,
  kWalBytes,
  kLpRuns,
  kLpIterations,
  kLpRows,
  kLpSkipped,
  kCandidates,
  kDistances,
  kFallbacks,
  kShardProbes,
  kShardPruned,
  kSnapshotBytes,
  kNumCtrs
};
constexpr const char* kCtrNames[kNumCtrs] = {
    metrics::kIndexNodeVisits,    metrics::kIndexLeafVisits,
    metrics::kIndexNodeSplits,    metrics::kPoolLogicalReads,
    metrics::kPoolMisses,         metrics::kWalFsyncs,
    metrics::kWalBytesAppended,   metrics::kLpRuns,
    metrics::kLpIterations,       metrics::kLpConstraintRows,
    metrics::kLpFacesSkipped,     metrics::kQueryCandidates,
    metrics::kQueryDistanceComputations, metrics::kQueryFallbacks,
    metrics::kShardQueryProbes,   metrics::kShardQueryPruned,
    metrics::kSnapshotSaveBytes};

using Counts = std::array<double, kNumCtrs>;

Counts ReadCounters() {
  Counts c{};
  const metrics::Registry& reg = metrics::Registry::Global();
  for (size_t i = 0; i < kNumCtrs; ++i) {
    c[i] = static_cast<double>(reg.counter(kCtrNames[i])->Value());
  }
  return c;
}

Counts Delta(const Counts& after, const Counts& before) {
  Counts d{};
  for (size_t i = 0; i < kNumCtrs; ++i) d[i] = after[i] - before[i];
  return d;
}

struct BackendSpan {
  SpanKind kind;
  uint32_t first_key;  // its keys in TimedBackend::keys()
  uint32_t num_keys;
  int64_t start_ns;
  int64_t end_ns;
};

// What the calls of one kind did inside the timed window.
struct KindTotals {
  double calls = 0;
  double items = 0;
  double busy_us = 0;
  double cells_recomputed = 0;
  Counts counts{};
  std::vector<double> call_us;  // writes only
};

size_t CellsRecomputed(const NNCellIndex& index) {
  return index.build_stats().cells_recomputed;
}
size_t CellsRecomputed(const ShardedIndex&) { return 0; }

// Forwards to a plain or sharded index and records a span per call.
template <class Index>
class TimedBackend final : public server::IndexBackend {
 public:
  TimedBackend(Index* index, Clock::time_point epoch)
      : index_(index), epoch_(epoch) {}

  size_t dim() const override { return index_->dim(); }
  bool durable() const override { return index_->durable(); }
  StatusOr<std::vector<NNCellIndex::QueryResult>> QueryBatch(
      const PointSet& queries, const ApproxOptions& approx) const override {
    const size_t first = keys_.size();
    for (size_t i = 0; i < queries.size(); ++i) {
      keys_.push_back(PointKey(queries[i], queries.dim()));
    }
    return Timed(SpanKind::kQuery, first,
                 [&] { return index_->QueryBatch(queries, approx); });
  }
  StatusOr<uint64_t> Insert(const std::vector<double>& point) override {
    const size_t first = keys_.size();
    keys_.push_back(PointKey(point.data(), point.size()));
    return Timed(SpanKind::kInsert, first,
                 [&] { return index_->Insert(point); });
  }
  Status Delete(uint64_t id) override {
    const size_t first = keys_.size();
    keys_.push_back(id);
    return Timed(SpanKind::kDelete, first, [&] { return index_->Delete(id); });
  }
  Status Checkpoint() override {
    return Timed(SpanKind::kCheckpoint, keys_.size(),
                 [&] { return index_->Checkpoint(); });
  }

  void SetTiming(bool on) { timing_.store(on); }
  const std::vector<BackendSpan>& spans() const { return spans_; }
  const std::vector<uint64_t>& keys() const { return keys_; }
  const KindTotals& totals(SpanKind k) const {
    return totals_[static_cast<size_t>(k)];
  }

 private:
  template <class Fn>
  auto Timed(SpanKind kind, size_t first_key, Fn&& fn) const {
    const size_t num_keys = keys_.size() - first_key;
    const Counts before = ReadCounters();
    const size_t cells_before = CellsRecomputed(*index_);
    const auto start = Clock::now();
    auto result = fn();
    const auto end = Clock::now();
    if (timing_.load()) {
      KindTotals& t = totals_[static_cast<size_t>(kind)];
      const double us = Nanos(end - start) / 1e3;
      t.calls += 1;
      t.items += static_cast<double>(std::max<size_t>(num_keys, 1));
      t.busy_us += us;
      if (kind != SpanKind::kQuery) t.call_us.push_back(us);
      t.cells_recomputed +=
          static_cast<double>(CellsRecomputed(*index_) - cells_before);
      const Counts d = Delta(ReadCounters(), before);
      for (size_t i = 0; i < kNumCtrs; ++i) t.counts[i] += d[i];
    }
    spans_.push_back({kind, static_cast<uint32_t>(first_key),
                      static_cast<uint32_t>(num_keys), Nanos(start - epoch_),
                      Nanos(end - epoch_)});
    return result;
  }

  Index* const index_;
  const Clock::time_point epoch_;
  std::atomic<bool> timing_{false};
  // Written only by the dispatcher thread, read after the server stopped.
  mutable std::vector<BackendSpan> spans_;
  mutable std::vector<uint64_t> keys_;
  mutable std::array<KindTotals, kSpanKinds> totals_;
};

// The per-request decomposition of a traced run.
struct RequestSplit {
  std::vector<double> wait_us, respond_us, self_us;
  uint64_t unmatched = 0;
  double max_sum_error = 0;  // |wait + backend + respond - client| / client
  // The span that served each request, in ConnLog order; kNoSpan if none.
  std::vector<uint32_t> span_of_op;
};
constexpr uint32_t kNoSpan = UINT32_MAX;

// Matches each timed client request to the backend span that served it:
// same kind and key, inside the request's send..reply window. The
// dispatcher makes one call at a time, so spans are ordered by start.
RequestSplit SplitRequests(const LoadResult& load,
                           const std::vector<BackendSpan>& spans,
                           const std::vector<uint64_t>& keys,
                           int64_t epoch_offset_ns) {
  RequestSplit out;
  for (const ConnLog& log : load.logs) {
    for (const OpRecord& op : log.ops) {
      out.span_of_op.push_back(kNoSpan);
      if (!op.timed || !op.ok) continue;
      const SpanKind kind = op.type == OpType::kQuery    ? SpanKind::kQuery
                            : op.type == OpType::kInsert ? SpanKind::kInsert
                                                         : SpanKind::kDelete;
      const int64_t sent = op.sent_ns + epoch_offset_ns;
      const int64_t done = op.done_ns + epoch_offset_ns;
      auto it = std::lower_bound(
          spans.begin(), spans.end(), sent,
          [](const BackendSpan& s, int64_t t) { return s.start_ns < t; });
      for (; it != spans.end() && it->start_ns < done; ++it) {
        const auto first = keys.begin() + it->first_key;
        if (it->kind == kind && it->end_ns <= done &&
            std::find(first, first + it->num_keys, op.key) !=
                first + it->num_keys) {
          break;
        }
      }
      if (it == spans.end() || it->start_ns >= done) {
        ++out.unmatched;
        continue;
      }
      const double client = (done - sent) / 1e3;
      const double wait = (it->start_ns - sent) / 1e3;
      const double backend = (it->end_ns - it->start_ns) / 1e3;
      const double respond = (done - it->end_ns) / 1e3;
      out.wait_us.push_back(wait);
      out.respond_us.push_back(respond);
      out.self_us.push_back(client - backend);
      out.max_sum_error =
          std::max(out.max_sum_error,
                   Ratio(std::fabs(wait + backend + respond - client), client));
      out.span_of_op.back() = static_cast<uint32_t>(it - spans.begin());
    }
  }
  return out;
}

// Setup, load and post-run probes for one index type. `Index` is
// NNCellIndex or ShardedIndex.
template <class Index>
StatusOr<std::unique_ptr<Index>> OpenIndex(const std::string& dir, size_t dim,
                                           NNCellOptions options,
                                           size_t shards);

template <>
StatusOr<std::unique_ptr<NNCellIndex>> OpenIndex<NNCellIndex>(
    const std::string& dir, size_t dim, NNCellOptions options, size_t) {
  return NNCellIndex::Open(dir, dim, std::move(options));
}

template <>
StatusOr<std::unique_ptr<ShardedIndex>> OpenIndex<ShardedIndex>(
    const std::string& dir, size_t dim, NNCellOptions options, size_t shards) {
  ShardedOptions sopts;
  sopts.num_shards = shards;
  return ShardedIndex::Open(dir, dim, std::move(options),
                            NNCellIndex::DurableOptions(), sopts);
}

struct StageSample {
  std::vector<double> query_us, probe_us, scan_us;
};

StatusOr<NNCellIndex::QueryResult> TracedQuery(const NNCellIndex& index,
                                               const double* q,
                                               QueryTrace* trace) {
  return index.Query(q, trace);
}
// ShardedIndex has no traced overload: its replay times whole queries only.
StatusOr<NNCellIndex::QueryResult> TracedQuery(const ShardedIndex& index,
                                               const double* q,
                                               QueryTrace* trace) {
  trace->Clear();
  return index.Query(q);
}

// Serial replay of workload queries, for the per-query stage split.
template <class Index>
StageSample Replay(const Index& index, const RunSpec& spec, const Inputs& in) {
  StageSample out;
  Rng rng(spec.seed ^ 0x7e91a4ULL);
  std::vector<double> q(spec.w->dim);
  QueryTrace trace;
  for (size_t i = 0; i < spec.replay_queries; ++i) {
    NextQuery(*spec.w, in, &rng, q.data());
    const auto t0 = Clock::now();
    auto r = TracedQuery(index, q.data(), &trace);
    const double us = Nanos(Clock::now() - t0) / 1e3;
    if (!r.ok()) continue;
    out.query_us.push_back(us);
    for (const QueryTrace::Stage& s : trace.stages) {
      if (s.name == "index_probe") out.probe_us.push_back(s.micros);
      if (s.name == "distance_scan") out.scan_us.push_back(s.micros);
    }
  }
  return out;
}

double LpCellMicros(const NNCellIndex& index, size_t sample) {
  const auto t0 = Clock::now();
  index.MeasureApproxEffort(sample);
  return Nanos(Clock::now() - t0) / 1e3 / static_cast<double>(sample);
}
double LpCellMicros(const ShardedIndex&, size_t) { return 0; }

void WriteSpans(const std::string& path, const LoadResult& load,
                const std::vector<BackendSpan>& spans,
                const RequestSplit& split, int64_t epoch_offset_ns) {
  std::ofstream out(path);
  // Requests grouped by serving span: served[first[s] .. first[s + 1]).
  std::vector<uint32_t> first(spans.size() + 1, 0);
  for (uint32_t s : split.span_of_op) {
    if (s != kNoSpan) ++first[s + 1];
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<uint32_t> served(first.back());
  std::vector<uint32_t> fill(first.begin(), first.end() - 1);
  for (uint32_t op = 0; op < split.span_of_op.size(); ++op) {
    const uint32_t s = split.span_of_op[op];
    if (s != kNoSpan) served[fill[s]++] = op;
  }
  size_t op_index = 0;
  static const char* kOpNames[] = {"query", "insert", "delete"};
  for (const ConnLog& log : load.logs) {
    for (const OpRecord& op : log.ops) {
      out << "{\"span\":\"client.request\",\"req\":" << op_index++
          << ",\"kind\":\"" << kOpNames[static_cast<int>(op.type)]
          << "\",\"timed\":" << op.timed << ",\"ok\":" << op.ok
          << ",\"start_us\":" << Num((op.sent_ns + epoch_offset_ns) / 1e3)
          << ",\"end_us\":" << Num((op.done_ns + epoch_offset_ns) / 1e3)
          << "}\n";
    }
  }
  for (size_t s = 0; s < spans.size(); ++s) {
    out << "{\"span\":\"" << kSpanNames[static_cast<int>(spans[s].kind)]
        << "\",\"start_us\":" << Num(spans[s].start_ns / 1e3)
        << ",\"end_us\":" << Num(spans[s].end_ns / 1e3) << ",\"reqs\":[";
    for (uint32_t i = first[s]; i < first[s + 1]; ++i) {
      out << (i == first[s] ? "" : ",") << served[i];
    }
    out << "]}\n";
  }
}

template <class Index>
RunResult RunTracedWith(const RunSpec& spec) {
  const Workload& w = *spec.w;
  RunResult res;
  Inputs in(spec);
  metrics::Registry::SetEnabled(true);
  metrics::Registry::Global().ResetAll();
  const std::string dir = "index";
  Metrics& m = res.metrics;

  // Setup, step by step: create + bulk build (the CLI's work, which
  // checkpoints on completion), an explicit checkpoint, then the daemon's
  // reopen.
  const auto t_setup = Clock::now();
  Counts build_counts{};
  {
    NNCellOptions build_options;
    build_options.parallel.num_threads = kServerThreads;
    auto idx = OpenIndex<Index>(dir, w.dim, build_options, w.shards);
    if (!idx.ok()) {
      res.correct = false;
      res.error = "create: " + idx.status().ToString();
      return res;
    }
    const Counts c0 = ReadCounters();
    const auto t0 = Clock::now();
    Status st = (*idx)->BulkBuild(in.base);
    const auto t1 = Clock::now();
    const Counts c1 = ReadCounters();
    if (st.ok()) st = (*idx)->Checkpoint();
    const auto t2 = Clock::now();
    if (!st.ok()) {
      res.correct = false;
      res.error = "build: " + st.ToString();
      return res;
    }
    build_counts = Delta(c1, c0);
    m["nncell.bulk_build_s"] = Nanos(t1 - t0) / 1e9;
    m["nncell.checkpoint_ms"] = Nanos(t2 - t1) / 1e6;
    m["storage.snapshot_bytes"] = Delta(ReadCounters(), c1)[kSnapshotBytes];
  }
  const auto t_open = Clock::now();
  auto opened = OpenIndex<Index>(dir, 0, NNCellOptions(), 1);
  if (!opened.ok()) {
    res.correct = false;
    res.error = "open: " + opened.status().ToString();
    return res;
  }
  std::unique_ptr<Index> index = std::move(*opened);
  index->SetNumThreads(kServerThreads);
  m["nncell.open_ms"] = Nanos(Clock::now() - t_open) / 1e6;

  const Clock::time_point epoch = Clock::now();
  TimedBackend<Index> backend(index.get(), epoch);
  server::ServerOptions sopt;
  sopt.socket_path = "srv.sock";
  server::NNCellServer srv(&backend, sopt);
  if (Status st = srv.Start(); !st.ok()) {
    res.correct = false;
    res.error = "server start: " + st.ToString();
    return res;
  }
  m["traced.setup_s"] = Nanos(Clock::now() - t_setup) / 1e9;

  LoadResult load = DriveLoad(spec, in, "srv.sock", [&](size_t i) {
    if (i == 0) backend.SetTiming(true);
  });
  backend.SetTiming(false);
  Status stop = srv.Stop();
  ClientSummary sum = Summarize(load);
  res.attempted = sum.attempted;
  res.failed = sum.failed;
  if (!stop.ok() || !sum.connect.ok()) {
    res.correct = false;
    res.error = "serve: " + (stop.ok() ? sum.connect : stop).ToString();
    return res;
  }

  const int64_t offset = Nanos(load.start - epoch);
  RequestSplit split =
      SplitRequests(load, backend.spans(), backend.keys(), offset);
  const KindTotals& q = backend.totals(SpanKind::kQuery);
  const KindTotals& ins = backend.totals(SpanKind::kInsert);
  const KindTotals& del = backend.totals(SpanKind::kDelete);
  const double writes = ins.calls + del.calls;
  Counts wc{};
  for (size_t i = 0; i < kNumCtrs; ++i) wc[i] = ins.counts[i] + del.counts[i];
  const double wall_us = (load.edge_ns.back() - load.edge_ns.front()) / 1e3;

  m["server.queue_wait_us_p50"] = Percentile(split.wait_us, 0.50);
  m["server.queue_wait_us_p99"] = Percentile(split.wait_us, 0.99);
  m["server.respond_us_p50"] = Percentile(split.respond_us, 0.50);
  m["server.self_us_p50"] = Percentile(split.self_us, 0.50);
  m["server.batch_size_mean"] = Ratio(q.items, q.calls);
  m["server.backend_busy_frac"] =
      Ratio(q.busy_us + ins.busy_us + del.busy_us, wall_us);
  m["shard.probes_per_query"] = Ratio(q.counts[kShardProbes], q.items);
  m["shard.pruned_per_query"] = Ratio(q.counts[kShardPruned], q.items);
  m["backend.query_us_per_query"] = Ratio(q.busy_us, q.items);
  m["nncell.candidates_per_query"] = Ratio(q.counts[kCandidates], q.items);
  m["nncell.distance_computations_per_query"] =
      Ratio(q.counts[kDistances], q.items);
  m["nncell.fallback_frac"] = Ratio(q.counts[kFallbacks], q.items);
  m["nncell.expected_candidates"] = index->ExpectedCandidates();
  m["nncell.insert_us_p50"] = Percentile(ins.call_us, 0.50);
  m["nncell.insert_us_p90"] = Percentile(ins.call_us, 0.90);
  m["nncell.delete_us_p50"] = Percentile(del.call_us, 0.50);
  m["nncell.delete_us_p90"] = Percentile(del.call_us, 0.90);
  m["nncell.cells_recomputed_per_write"] =
      Ratio(ins.cells_recomputed + del.cells_recomputed, writes);
  m["lp.runs_per_write"] = Ratio(wc[kLpRuns], writes);
  const double lp_runs = build_counts[kLpRuns] + wc[kLpRuns];
  m["lp.iterations_per_run"] =
      Ratio(build_counts[kLpIterations] + wc[kLpIterations], lp_runs);
  m["lp.rows_per_run"] = Ratio(build_counts[kLpRows] + wc[kLpRows], lp_runs);
  const double skipped = build_counts[kLpSkipped] + wc[kLpSkipped];
  m["lp.faces_skipped_frac"] = Ratio(skipped, skipped + lp_runs);
  m["lp.runs_per_built_point"] =
      Ratio(build_counts[kLpRuns], static_cast<double>(spec.points));
  m["index.node_visits_per_query"] = Ratio(q.counts[kNodeVisits], q.items);
  m["index.leaf_visits_per_query"] = Ratio(q.counts[kLeafVisits], q.items);
  m["index.node_visits_per_write"] = Ratio(wc[kNodeVisits], writes);
  m["index.node_splits_per_write"] = Ratio(wc[kNodeSplits], writes);
  m["wal.fsyncs_per_write"] = Ratio(wc[kWalFsyncs], writes);
  m["wal.bytes_per_write"] = Ratio(wc[kWalBytes], writes);
  m["storage.pool.logical_reads_per_query"] =
      Ratio(q.counts[kPoolReads], q.items);
  m["storage.pool.miss_frac"] =
      Ratio(q.counts[kPoolMisses] + wc[kPoolMisses],
            q.counts[kPoolReads] + wc[kPoolReads]);
  m["kernels.distance_bytes_per_query"] =
      Ratio(q.counts[kDistances], q.items) * static_cast<double>(w.dim) * 8;
  m["client.query_p50_us"] = Percentile(sum.query_us, 0.50);
  m["client.query_p99_us"] = Percentile(sum.query_us, 0.99);
  m["client.write_p50_us"] = Percentile(sum.write_us, 0.50);
  m["client.write_p90_us"] = Percentile(sum.write_us, 0.90);
  ClientEndToEnd(sum, "traced.", &m);

  const StageSample stages = Replay(*index, spec, in);
  m["nncell.query_us_p50"] = Percentile(stages.query_us, 0.50);
  m["nncell.index_probe_us_p50"] = Percentile(stages.probe_us, 0.50);
  m["nncell.distance_scan_us_p50"] = Percentile(stages.scan_us, 0.50);
  m["lp.cell_us"] = LpCellMicros(*index, spec.lp_sample);

  index.reset();
  Verify(spec, in, load, dir, &res);
  if (split.unmatched > 0 || split.max_sum_error > 0.05) {
    res.correct = false;
    res.error = "trace: " + std::to_string(split.unmatched) +
                " requests without a backend span, max sum error " +
                Num(split.max_sum_error);
  }

  if (!spec.out_dir.empty()) {
    const std::string base = spec.out_dir + "/" + w.name;
    WriteSpans(base + ".spans.jsonl", load, backend.spans(), split, offset);
    std::ofstream lf(base + ".layers.json");
    lf << "{\"workload\":\"" << w.name << "\",\"seed\":" << spec.seed
       << ",\"metrics\":{";
    bool first = true;
    for (const MetricDef& d : kPerLayer) {
      lf << (first ? "" : ",") << "\"" << d.name << "\":{\"value\":"
         << Num(m[d.name]) << ",\"unit\":\"" << d.unit << "\"}";
      first = false;
    }
    lf << "},\"self_times\":{\"requests\":" << split.wait_us.size()
       << ",\"unmatched\":" << split.unmatched
       << ",\"max_sum_error_frac\":" << Num(split.max_sum_error)
       << ",\"queue_wait_us_p50\":" << Num(Percentile(split.wait_us, 0.5))
       << ",\"respond_us_p50\":" << Num(Percentile(split.respond_us, 0.5))
       << ",\"server_self_us_p50\":" << Num(Percentile(split.self_us, 0.5))
       << "},\"tracing_overhead\":";
    // The untraced run of the same workload and seed, when --out holds it:
    // the traced run's own client numbers against it are the overhead.
    std::ifstream e2e(base + ".e2e.json");
    std::string line;
    std::getline(e2e, line);
    std::string overhead;
    for (const char* key :
         {"throughput_ops_s", "latency_p50_us", "latency_p99_us"}) {
      const std::string pat = std::string("\"") + key + "\": {\"value\": ";
      const size_t at = line.find(pat);
      if (at == std::string::npos) break;
      const double untraced =
          std::strtod(line.c_str() + at + pat.size(), nullptr);
      const double traced = m[std::string("traced.") + key];
      overhead += std::string(overhead.empty() ? "{" : ",") + "\"" + key +
                  "\":{\"untraced\":" + Num(untraced) + ",\"traced\":" +
                  Num(traced) + ",\"gap_frac\":" +
                  Num(Ratio(traced - untraced, untraced)) + "}";
    }
    lf << (overhead.empty() ? "null" : overhead + "}");
    lf << "}\n";
  }
  return res;
}

// ---------------------------------------------------------------------------
// Command line.

// The metrics a run reports: per layer when traced, else end to end.
std::span<const MetricDef> Reported(bool trace) {
  if (trace) return kPerLayer;
  return kEndToEnd;
}

std::string ResultJson(const RunResult& r, bool trace) {
  std::string s = std::string("{\"correct\": ") +
                  (r.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : Reported(trace)) {
    auto it = r.metrics.find(d.name);
    s += std::string(first ? "" : ", ") + "\"" + d.name + "\": {\"value\": " +
         Num(it == r.metrics.end() ? 0.0 : it->second) + ", \"unit\": \"" +
         d.unit + "\"}";
    first = false;
  }
  return s + "}}";
}

std::string ConfigJson(const RunSpec& spec) {
  const Workload& w = *spec.w;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"seconds\":%.3f,"
      "\"warmup_s\":%.3f,\"setups\":%zu,\"points\":%zu,\"dim\":%zu,"
      "\"shards\":%zu,\"connections\":%zu,\"mix\":\"%llu:%llu:"
      "%llu\",\"nproc\":%u,\"kernel_dispatch\":\"%s\",\"build_type\":\"%s\","
      "\"daemon_flags\":\"--threads=%d\"}",
      w.name, static_cast<unsigned long long>(spec.seed), spec.trace ? 1 : 0,
      spec.seconds, spec.warmup, spec.setups, spec.points, w.dim, w.shards,
      w.connections, static_cast<unsigned long long>(w.w_query),
      static_cast<unsigned long long>(w.w_insert),
      static_cast<unsigned long long>(w.w_delete),
      std::thread::hardware_concurrency(), kernels::ActiveLevelName(),
      NNCELL_BENCH_BUILD_TYPE, kServerThreads);
  return buf;
}

// One run in a fresh directory under spec.work_dir, removed afterwards.
RunResult RunOnce(const RunSpec& spec) {
  const std::string run_dir = spec.work_dir + "/" + spec.w->name + "-s" +
                              std::to_string(spec.seed) + "-p" +
                              std::to_string(::getpid());
  fsys::remove_all(run_dir);
  fsys::create_directories(run_dir);
  const fsys::path cwd = fsys::current_path();
  // Relative paths keep the socket path short however deep the checkout.
  fsys::current_path(run_dir);
  std::fprintf(stderr, "nncell_bench: config %s\n", ConfigJson(spec).c_str());
  RunResult r = spec.trace
                    ? (spec.w->shards > 0 ? RunTracedWith<ShardedIndex>(spec)
                                          : RunTracedWith<NNCellIndex>(spec))
                    : RunUntraced(spec);
  fsys::current_path(cwd);
  fsys::remove_all(run_dir);
  if (!r.correct) {
    std::fprintf(stderr, "nncell_bench: %s INCORRECT: %s\n", spec.w->name,
                 r.error.c_str());
  }
  if (!spec.out_dir.empty() && !spec.trace) {
    std::ofstream(spec.out_dir + "/" + spec.w->name + ".e2e.json")
        << ResultJson(r, false) << "\n";
  }
  return r;
}

// Quartiles as Python's statistics.quantiles(values, n=4) computes them
// (the default "exclusive" method), so spreads printed here match the
// acceptance rule in README.md.
std::array<double, 3> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const int64_t n = static_cast<int64_t>(v.size());
  if (n < 2) {
    const double x = n == 0 ? 0.0 : v[0];
    return {x, x, x};
  }
  std::array<double, 3> out{};
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j = std::clamp<int64_t>(i * (n + 1) / 4, 1, n - 1);
    const int64_t delta = i * (n + 1) - j * 4;
    out[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                  v[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return out;
}

// Accepts --name=value and --name value; a flag followed by another flag
// (or by nothing) has the empty value.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) {
        bad_ = a;
        continue;
      }
      const size_t eq = a.find('=');
      if (eq != std::string::npos) {
        values_[a.substr(2, eq - 2)] = a.substr(eq + 1);
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[a.substr(2)] = argv[++i];
      } else {
        values_[a.substr(2)] = "";
      }
    }
  }
  const std::string* Get(const std::string& name) {
    auto it = values_.find(name);
    if (it == values_.end()) return nullptr;
    known_.push_back(name);
    return &it->second;
  }
  // The first argument no Get() asked for, or "".
  std::string Unknown() const {
    if (!bad_.empty()) return bad_;
    for (const auto& [name, value] : values_) {
      if (std::find(known_.begin(), known_.end(), name) == known_.end()) {
        return "--" + name;
      }
    }
    return "";
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> known_;
  std::string bad_;
};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "nncell_bench: %s\nusage: nncell_bench --workload=NAME|all "
               "--seed=S [--seconds=T] [--trace[=0|1]] [--repeat=N] "
               "[--quick] [--out=DIR]\nworkloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  Flags flags(argc, argv);
  const std::string* workload = flags.Get("workload");
  const std::string* seed = flags.Get("seed");
  const std::string* seconds = flags.Get("seconds");
  const std::string* trace = flags.Get("trace");
  const std::string* repeat = flags.Get("repeat");
  const std::string* out = flags.Get("out");
  const bool quick = flags.Get("quick") != nullptr;
  if (!flags.Unknown().empty()) return Usage("unknown argument " + flags.Unknown());
  if (workload == nullptr || seed == nullptr) {
    return Usage("--workload and --seed are required");
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (*workload == "all" || *workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return Usage("unknown workload " + *workload);

  RunSpec base;
  base.seed = std::strtoull(seed->c_str(), nullptr, 10);
  base.trace = trace != nullptr && (trace->empty() || *trace != "0");
  if (seconds != nullptr) base.seconds = std::strtod(seconds->c_str(), nullptr);
  if (quick) {
    base.seconds = std::min(base.seconds, 2.0);
    base.warmup = 0.5;
    base.setups = 1;
    base.replay_queries = 200;
    base.lp_sample = 20;
  }
  const long runs = repeat != nullptr ? std::strtol(repeat->c_str(), nullptr, 10) : 1;
  if (!(base.seconds > 0) || runs < 1) return Usage("bad --seconds or --repeat");

  // The shipped binaries sit next to this one (CMakeLists.txt).
  const fsys::path exe = fsys::read_symlink("/proc/self/exe");
  base.bin_dir = (exe.parent_path() / "nncell_tools").string();
  base.work_dir = (exe.parent_path() / "runs").string();
  for (const char* tool : {"nncell_cli", "nncell_server"}) {
    if (!fsys::exists(base.bin_dir + "/" + tool)) {
      return Usage(std::string("missing ") + base.bin_dir + "/" + tool);
    }
  }
  if (out != nullptr) {
    fsys::create_directories(*out);
    base.out_dir = fsys::absolute(*out).string();
  }

  bool all_correct = true;
  for (const Workload* w : selected) {
    RunSpec spec = base;
    spec.w = w;
    spec.points = quick ? std::min<size_t>(w->points, 2000) : w->points;
    std::map<std::string, std::vector<double>> samples;
    RunResult last;
    for (long r = 0; r < runs; ++r) {
      spec.seed = base.seed + static_cast<uint64_t>(r);
      last = RunOnce(spec);
      all_correct = all_correct && last.correct && last.failed == 0;
      for (const auto& [name, v] : last.metrics) samples[name].push_back(v);
      if (runs > 1) std::fprintf(stderr, "%s\n", ResultJson(last, spec.trace).c_str());
    }
    if (runs > 1) {
      // Calibration summary: median, quartiles and spread per metric.
      std::string s = "{\"workload\":\"" + std::string(w->name) +
                      "\",\"runs\":" + std::to_string(runs) +
                      ",\"first_seed\":" + std::to_string(base.seed) +
                      ",\"config\":" + ConfigJson(spec) + ",\"metrics\":{";
      bool first = true;
      for (const MetricDef& d : Reported(spec.trace)) {
        const auto qs = Quartiles(samples[d.name]);
        s += std::string(first ? "" : ",") + "\"" + d.name +
             "\":{\"median\":" + Num(qs[1]) + ",\"q1\":" + Num(qs[0]) +
             ",\"q3\":" + Num(qs[2]) +
             ",\"spread\":" + Num(Ratio(qs[2] - qs[0], qs[1])) +
             ",\"unit\":\"" + d.unit + "\"}";
        first = false;
      }
      std::printf("%s}}\n", s.c_str());
    } else {
      std::printf("%s\n", ResultJson(last, spec.trace).c_str());
    }
    std::fflush(stdout);
  }
  return all_correct ? 0 : 1;
}
