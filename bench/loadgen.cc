// loadgen -- closed- and open-loop load generator for nncell_server.
//
//   loadgen --socket=PATH [--tcp-port=N] [--connections=N] [--ops=N]
//           [--qps=R] [--mix=Q:I:D] [--preload=N] [--zipf=THETA]
//           [--seed=S] [--label=STR] [--shards=K] [--epsilon=E]
//           [--max-visits=N] [--dump-preload=PATH] [--oracle-snapshot=PATH]
//
// Drives the wire protocol of docs/SERVING.md over N concurrent
// connections and prints one JSON object with per-type counts, the
// conservation counters seen from the client side, latency percentiles
// (p50/p90/p99/p999) and throughput.
//
//  * closed loop (default): every connection keeps exactly one request in
//    flight; total throughput at a high connection count approximates the
//    saturation rate.
//  * open loop (--qps=R): requests are scheduled at the target aggregate
//    rate and latency is measured from the *scheduled* send time, so
//    server-side queueing shows up in the percentiles instead of being
//    hidden by coordinated omission.
//
// The op mix is --mix=query:insert:delete weights. Query points are drawn
// around the --preload points with zipfian rank skew (--zipf=0 uniform;
// theta must be < 1), so a hot set exists like in a real serving workload.
// Deletes only target ids the same connection inserted earlier, which
// keeps every run valid regardless of interleaving.
//
// Determinism: with --connections=1 the request stream and every response
// are a pure function of the flags, and `checksum` (a hash over the
// integer fields of query responses: result id and candidate count) is
// byte-stable across runs -- `tools/bench_gate.py serve` gates on it. Floating
// point fields deliberately stay out of the checksum.
//
// Approximate tier (docs/APPROXIMATE.md): --epsilon / --max-visits send
// every query through the certified approximate path (the approx request
// block of docs/SERVING.md) and add an "approx" object to the results
// JSON; without those flags the request stream and the output schema are
// byte-identical to what they were before the tier existed.
// --dump-preload writes the preloaded points as CSV, and
// --oracle-snapshot=PATH reads such a CSV back as the ground truth for
// per-query recall sampling: a query counts as a recall hit when its
// returned distance is <= the oracle's sequential-scan NN distance over
// the snapshot (within 1e-9 relative slack; mid-run inserts can only
// shrink the returned distance, never invalidate the rule).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/approx.h"
#include "common/rng.h"
#include "server/client.h"
#include "server/protocol.h"

namespace {

using namespace nncell;
using server::Client;
using Clock = std::chrono::steady_clock;

struct Config {
  std::string socket_path;
  int tcp_port = 0;
  size_t connections = 1;
  size_t ops = 1000;  // total across all connections
  double qps = 0;     // 0 = closed loop
  uint64_t weight_query = 90;
  uint64_t weight_insert = 8;
  uint64_t weight_delete = 2;
  size_t preload = 256;
  size_t dim = 4;  // dimension of preload/insert points
  double zipf_theta = 0.99;
  uint64_t seed = 42;
  std::string label = "loadgen";
  // Shard count of the server under test. Sharding is entirely server-side
  // (the wire protocol is identical); this is recorded in the output's
  // config object so sharded bench runs are self-describing
  // (`tools/bench_gate.py shard` sweeps it).
  size_t shards = 0;
  // Approximate-tier knobs; default-constructed (disabled) keeps the
  // request stream and the output schema byte-identical to the exact tier.
  ApproxOptions approx;
  // Write the preload points to this CSV path (empty = don't).
  std::string dump_preload;
  // Recall ground truth: a CSV of points (typically a --dump-preload file
  // from an identically seeded run) scanned sequentially per query.
  std::string oracle_snapshot;
};

// Gray et al. zipfian rank generator over [0, n); theta in [0, 1).
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n_; ++i) zetan_ += 1.0 / std::pow(i, theta_);
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

struct WorkerStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;   // RETRY_LATER / SHUTTING_DOWN
  uint64_t errors = 0;     // transport faults and ERROR responses
  uint64_t queries = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t checksum = 0;     // integer-field hash of query responses
  // Hash over result ids alone. Candidate counts legitimately differ
  // between shard counts (a scatter-gather query sums the probed shards'
  // candidate sets), ids never do -- `tools/bench_gate.py shard` gates on this
  // being identical across its whole K sweep.
  uint64_t id_checksum = 0;
  // Approximate-tier certificate aggregates (only touched when the approx
  // flags are set) and recall samples (only when an oracle is loaded).
  uint64_t approx_approximate = 0;
  uint64_t approx_terminated_early = 0;
  uint64_t approx_truncated = 0;
  uint64_t approx_leaf_visits = 0;
  uint64_t recall_samples = 0;
  uint64_t recall_hits = 0;
  std::vector<uint64_t> lat_us;
};

// Sequential-scan NN distance over the oracle snapshot -- the same ground
// truth bench_recall uses, computed per sampled query.
double OracleNnDist(const std::vector<std::vector<double>>& oracle,
                    const std::vector<double>& q) {
  double best = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& p : oracle) {
    double d2 = 0;
    for (size_t i = 0; i < q.size(); ++i) {
      const double diff = p[i] - q[i];
      d2 += diff * diff;
    }
    best = std::min(best, d2);
  }
  return std::sqrt(best);
}

StatusOr<Client> Connect(const Config& cfg) {
  if (!cfg.socket_path.empty()) return Client::ConnectUnix(cfg.socket_path);
  return Client::ConnectTcp(cfg.tcp_port);
}

void Worker(const Config& cfg, size_t worker_id, size_t ops,
            const std::vector<std::vector<double>>* preload_points,
            const std::vector<std::vector<double>>* oracle_points,
            Clock::time_point t0, WorkerStats* stats) {
  auto client = Connect(cfg);
  if (!client.ok()) {
    stats->errors += ops;
    return;
  }
  Rng rng(cfg.seed + 0x9e37 * (worker_id + 1));
  const size_t dim =
      preload_points->empty() ? cfg.dim : (*preload_points)[0].size();
  Zipf zipf(preload_points->empty() ? 1 : preload_points->size(),
            cfg.zipf_theta);
  std::vector<uint64_t> my_ids;  // ids this connection inserted
  const uint64_t total_weight =
      cfg.weight_query + cfg.weight_insert + cfg.weight_delete;
  const double interval_s =
      cfg.qps > 0 ? cfg.connections / cfg.qps : 0;
  stats->lat_us.reserve(ops);

  for (size_t k = 0; k < ops; ++k) {
    Clock::time_point scheduled = Clock::now();
    if (cfg.qps > 0) {
      scheduled =
          t0 + std::chrono::nanoseconds(static_cast<uint64_t>(
                   (worker_id * interval_s / cfg.connections + k * interval_s) *
                   1e9));
      std::this_thread::sleep_until(scheduled);
    }

    uint64_t pick = rng.NextU64() % total_weight;
    Status st = Status::OK();
    ++stats->sent;
    if (pick >= cfg.weight_query &&
        pick < cfg.weight_query + cfg.weight_insert) {
      // insert
      ++stats->inserts;
      std::vector<double> p(dim);
      for (double& v : p) v = rng.NextDouble();
      auto id = client->Insert(p);
      st = id.status();
      if (id.ok()) my_ids.push_back(*id);
    } else if (pick >= cfg.weight_query + cfg.weight_insert &&
               !my_ids.empty()) {
      // delete one of our own inserts
      ++stats->deletes;
      uint64_t id = my_ids.back();
      my_ids.pop_back();
      st = client->Delete(id);
    } else {
      // query: a zipf-ranked preload point plus gaussian jitter
      ++stats->queries;
      std::vector<double> q(dim);
      if (preload_points->empty()) {
        for (double& v : q) v = rng.NextDouble();
      } else {
        const std::vector<double>& base =
            (*preload_points)[zipf.Next(rng)];
        for (size_t d = 0; d < q.size(); ++d) {
          q[d] = base[d] + 0.01 * rng.NextGaussian();
        }
      }
      auto r = cfg.approx.enabled() ? client->Query(q, cfg.approx)
                                    : client->Query(q);
      st = r.status();
      if (r.ok()) {
        stats->checksum = stats->checksum * 0x9e3779b97f4a7c15ULL +
                          (r->id + 1) * 31 + r->candidates;
        stats->id_checksum =
            stats->id_checksum * 0x9e3779b97f4a7c15ULL + (r->id + 1);
        if (cfg.approx.enabled() && r->has_certificate) {
          stats->approx_approximate += r->certificate.approximate ? 1 : 0;
          stats->approx_terminated_early +=
              r->certificate.terminated_early ? 1 : 0;
          stats->approx_truncated += r->certificate.truncated ? 1 : 0;
          stats->approx_leaf_visits += r->certificate.leaf_visits;
        }
        if (!oracle_points->empty()) {
          const double oracle_dist = OracleNnDist(*oracle_points, q);
          ++stats->recall_samples;
          if (r->dist <= oracle_dist * (1.0 + 1e-9)) ++stats->recall_hits;
        }
      }
    }

    const auto now = Clock::now();
    if (st.ok()) {
      ++stats->ok;
      stats->lat_us.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                scheduled)
              .count()));
    } else if (st.code() == StatusCode::kResourceExhausted ||
               st.code() == StatusCode::kFailedPrecondition) {
      ++stats->rejected;
    } else {
      ++stats->errors;
    }
  }
}

uint64_t Percentile(std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
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

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (const char* v = FlagValue(argc, argv, "--socket")) cfg.socket_path = v;
  if (const char* v = FlagValue(argc, argv, "--tcp-port")) {
    cfg.tcp_port = std::atoi(v);
  }
  if (const char* v = FlagValue(argc, argv, "--connections")) {
    cfg.connections = std::strtoul(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--ops")) {
    cfg.ops = std::strtoul(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--qps")) {
    cfg.qps = std::strtod(v, nullptr);
  }
  if (const char* v = FlagValue(argc, argv, "--mix")) {
    unsigned long long q = 0, ins = 0, del = 0;
    if (std::sscanf(v, "%llu:%llu:%llu", &q, &ins, &del) != 3) {
      std::fprintf(stderr, "loadgen: bad --mix, want Q:I:D\n");
      return 2;
    }
    cfg.weight_query = q;
    cfg.weight_insert = ins;
    cfg.weight_delete = del;
  }
  if (const char* v = FlagValue(argc, argv, "--preload")) {
    cfg.preload = std::strtoul(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--dim")) {
    cfg.dim = std::strtoul(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--zipf")) {
    cfg.zipf_theta = std::strtod(v, nullptr);
  }
  if (const char* v = FlagValue(argc, argv, "--seed")) {
    cfg.seed = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--label")) cfg.label = v;
  if (const char* v = FlagValue(argc, argv, "--shards")) {
    cfg.shards = std::strtoul(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--epsilon")) {
    cfg.approx.epsilon = std::strtod(v, nullptr);
    if (!(cfg.approx.epsilon >= 0.0)) {
      std::fprintf(stderr, "loadgen: --epsilon must be >= 0\n");
      return 2;
    }
  }
  if (const char* v = FlagValue(argc, argv, "--max-visits")) {
    cfg.approx.max_leaf_visits = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--dump-preload")) {
    cfg.dump_preload = v;
  }
  if (const char* v = FlagValue(argc, argv, "--oracle-snapshot")) {
    cfg.oracle_snapshot = v;
  }
  bool stats_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) stats_only = true;
  }
  if (cfg.socket_path.empty() && cfg.tcp_port == 0) {
    std::fprintf(stderr,
                 "usage: loadgen --socket=PATH [--tcp-port=N]"
                 " [--connections=N] [--ops=N] [--qps=R] [--mix=Q:I:D]"
                 " [--preload=N] [--dim=N] [--zipf=THETA] [--seed=S]"
                 " [--label=STR] [--shards=K] [--epsilon=E] [--max-visits=N]"
                 " [--dump-preload=PATH] [--oracle-snapshot=PATH]"
                 " [--stats]\n");
    return 2;
  }
  if (stats_only) {
    // One STATS_JSON round trip, body to stdout: lets shell harnesses
    // observe a live server's conservation counters over the wire.
    auto client = Connect(cfg);
    if (!client.ok()) {
      std::fprintf(stderr, "loadgen: connect failed: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    auto stats = client->StatsJson();
    if (!stats.ok()) {
      std::fprintf(stderr, "loadgen: stats failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", stats->c_str());
    return 0;
  }
  if (cfg.connections == 0 || cfg.zipf_theta < 0 || cfg.zipf_theta >= 1) {
    std::fprintf(stderr, "loadgen: need connections >= 1, 0 <= zipf < 1\n");
    return 2;
  }
  if (cfg.weight_query + cfg.weight_insert + cfg.weight_delete == 0) {
    std::fprintf(stderr, "loadgen: --mix weights must not all be zero\n");
    return 2;
  }

  // Preload through the server on one connection: the index dimension is
  // dimension comes from --dim (must match the server's index); the
  // preload points double as the zipf-skewed query targets.
  std::vector<std::vector<double>> preload_points;
  {
    auto client = Connect(cfg);
    if (!client.ok()) {
      std::fprintf(stderr, "loadgen: connect failed: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    Status st = client->Ping();
    if (!st.ok()) {
      std::fprintf(stderr, "loadgen: ping failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    Rng rng(cfg.seed);
    for (size_t i = 0; i < cfg.preload; ++i) {
      std::vector<double> p(cfg.dim);
      for (double& v : p) v = rng.NextDouble();
      auto id = client->Insert(p);
      if (!id.ok()) {
        std::fprintf(stderr, "loadgen: preload insert failed: %s\n",
                     id.status().ToString().c_str());
        return 1;
      }
      preload_points.push_back(std::move(p));
    }
  }

  if (!cfg.dump_preload.empty()) {
    std::ofstream out(cfg.dump_preload);
    if (!out.is_open()) {
      std::fprintf(stderr, "loadgen: cannot write %s\n",
                   cfg.dump_preload.c_str());
      return 1;
    }
    out << "# loadgen preload snapshot: " << preload_points.size()
        << " points, seed " << cfg.seed << "\n";
    char num[64];
    for (const std::vector<double>& p : preload_points) {
      for (size_t d = 0; d < p.size(); ++d) {
        // %.17g round-trips a double exactly, so the oracle scan sees the
        // same coordinates the server was preloaded with.
        std::snprintf(num, sizeof(num), "%.17g", p[d]);
        out << (d == 0 ? "" : ",") << num;
      }
      out << "\n";
    }
  }

  std::vector<std::vector<double>> oracle_points;
  if (!cfg.oracle_snapshot.empty()) {
    std::ifstream in(cfg.oracle_snapshot);
    if (!in.is_open()) {
      std::fprintf(stderr, "loadgen: cannot open %s\n",
                   cfg.oracle_snapshot.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::vector<double> p;
      std::stringstream ss(line);
      std::string field;
      while (std::getline(ss, field, ',')) {
        p.push_back(std::strtod(field.c_str(), nullptr));
      }
      if (p.size() != cfg.dim) {
        std::fprintf(stderr, "loadgen: oracle snapshot dim %zu != --dim %zu\n",
                     p.size(), cfg.dim);
        return 1;
      }
      oracle_points.push_back(std::move(p));
    }
    if (oracle_points.empty()) {
      std::fprintf(stderr, "loadgen: oracle snapshot %s has no points\n",
                   cfg.oracle_snapshot.c_str());
      return 1;
    }
  }

  std::vector<WorkerStats> stats(cfg.connections);
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  for (size_t w = 0; w < cfg.connections; ++w) {
    const size_t ops = cfg.ops / cfg.connections +
                       (w < cfg.ops % cfg.connections ? 1 : 0);
    threads.emplace_back(Worker, cfg, w, ops, &preload_points,
                         &oracle_points, t0, &stats[w]);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          Clock::now() - t0)
          .count();

  WorkerStats total;
  std::vector<uint64_t> lat;
  for (const WorkerStats& s : stats) {
    total.sent += s.sent;
    total.ok += s.ok;
    total.rejected += s.rejected;
    total.errors += s.errors;
    total.queries += s.queries;
    total.inserts += s.inserts;
    total.deletes += s.deletes;
    // XOR-fold per-connection checksums: commutative, so the aggregate is
    // independent of thread completion order.
    total.checksum ^= s.checksum;
    total.id_checksum ^= s.id_checksum;
    total.approx_approximate += s.approx_approximate;
    total.approx_terminated_early += s.approx_terminated_early;
    total.approx_truncated += s.approx_truncated;
    total.approx_leaf_visits += s.approx_leaf_visits;
    total.recall_samples += s.recall_samples;
    total.recall_hits += s.recall_hits;
    lat.insert(lat.end(), s.lat_us.begin(), s.lat_us.end());
  }
  std::sort(lat.begin(), lat.end());

  // The "approx" results object only exists when an approximate-tier or
  // recall flag was given, so default runs emit the pre-existing schema
  // byte-for-byte (`tools/bench_gate.py serve` diffs against it).
  std::string approx_json;
  if (cfg.approx.enabled() || !oracle_points.empty()) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "\"approx\":{\"approximate\":%llu,\"epsilon\":%.6f,"
        "\"leaf_visits\":%llu,\"max_leaf_visits\":%llu,\"recall\":%.6f,"
        "\"recall_hits\":%llu,\"recall_samples\":%llu,"
        "\"terminated_early\":%llu,\"truncated\":%llu},",
        static_cast<unsigned long long>(total.approx_approximate),
        cfg.approx.epsilon,
        static_cast<unsigned long long>(total.approx_leaf_visits),
        static_cast<unsigned long long>(cfg.approx.max_leaf_visits),
        total.recall_samples == 0
            ? 1.0
            : static_cast<double>(total.recall_hits) /
                  static_cast<double>(total.recall_samples),
        static_cast<unsigned long long>(total.recall_hits),
        static_cast<unsigned long long>(total.recall_samples),
        static_cast<unsigned long long>(total.approx_terminated_early),
        static_cast<unsigned long long>(total.approx_truncated));
    approx_json = buf;
  }

  std::printf(
      "{\"label\":\"%s\",\"config\":{\"connections\":%zu,\"mix\":\"%llu:%llu:"
      "%llu\",\"ops\":%zu,\"preload\":%zu,\"qps\":%.1f,\"seed\":%llu,"
      "\"shards\":%zu,\"zipf\":%.3f},"
      "\"results\":{%s\"checksum\":%llu,\"deletes\":%llu,\"elapsed_s\":%.3f,"
      "\"errors\":%llu,\"id_checksum\":%llu,\"inserts\":%llu,"
      "\"latency_us\":{\"p50\":%llu,"
      "\"p90\":%llu,\"p99\":%llu,\"p999\":%llu,\"max\":%llu},\"ok\":%llu,"
      "\"queries\":%llu,\"rejected\":%llu,\"sent\":%llu,"
      "\"throughput_ops_s\":%.1f}}\n",
      cfg.label.c_str(), cfg.connections,
      static_cast<unsigned long long>(cfg.weight_query),
      static_cast<unsigned long long>(cfg.weight_insert),
      static_cast<unsigned long long>(cfg.weight_delete), cfg.ops,
      cfg.preload, cfg.qps, static_cast<unsigned long long>(cfg.seed),
      cfg.shards, cfg.zipf_theta, approx_json.c_str(),
      static_cast<unsigned long long>(total.checksum),
      static_cast<unsigned long long>(total.deletes), elapsed_s,
      static_cast<unsigned long long>(total.errors),
      static_cast<unsigned long long>(total.id_checksum),
      static_cast<unsigned long long>(total.inserts),
      static_cast<unsigned long long>(Percentile(lat, 0.50)),
      static_cast<unsigned long long>(Percentile(lat, 0.90)),
      static_cast<unsigned long long>(Percentile(lat, 0.99)),
      static_cast<unsigned long long>(Percentile(lat, 0.999)),
      static_cast<unsigned long long>(lat.empty() ? 0 : lat.back()),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.queries),
      static_cast<unsigned long long>(total.rejected),
      static_cast<unsigned long long>(total.sent),
      elapsed_s > 0 ? static_cast<double>(total.ok) / elapsed_s : 0.0);
  return total.errors == 0 ? 0 : 1;
}
