// nncell_server -- always-on query service over a durable NN-cell index.
//
//   nncell_server <index-dir> --socket=PATH [--tcp-port=N] [--dim=N]
//                 [--threads=N] [--max-queue=N] [--max-batch=N]
//                 [--metrics=0|1] [--shards=K]
//
// Opens (or creates, with --dim) the durable index directory, serves the
// binary wire protocol of docs/SERVING.md on a unix-domain socket and/or
// 127.0.0.1 TCP, and runs until SIGINT or SIGTERM. A directory holding a
// shard.manifest is served as a sharded index (docs/SHARDING.md);
// --shards=K with --dim creates a fresh K-shard index, and STATS_JSON
// then carries a "shard" object with the routing epoch and per-shard
// breakdown. The signal triggers a
// graceful drain: stop accepting, answer everything already admitted, fold
// the WAL into a fresh snapshot (Checkpoint), then exit 0. A second signal
// during the drain is ignored; kill -9 is what crash recovery is for
// (docs/PERSISTENCE.md).
//
// Prints one READY line to stdout once the listeners are bound -- scripts
// wait for it before connecting -- and one DRAINED line with the
// conservation counters after the drain.

#include <signal.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "nncell/nncell_index.h"
#include "server/server.h"
#include "shard/shard_format.h"
#include "shard/sharded_index.h"
#include "storage/fs_util.h"

namespace {

using namespace nncell;

const char* FlagValue(int argc, char** argv, const char* name) {
  size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

// Parses a decimal integer in [lo, hi]; false on anything else.
bool ParseInRange(const char* v, size_t lo, size_t hi, size_t* out) {
  if (*v == '\0' || std::strspn(v, "0123456789") != std::strlen(v)) {
    return false;
  }
  errno = 0;
  const unsigned long long x = std::strtoull(v, nullptr, 10);
  if (errno == ERANGE || x < lo || x > hi) return false;
  *out = static_cast<size_t>(x);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* const usage =
      "usage: nncell_server <index-dir> --socket=PATH"
      " [--tcp-port=N] [--dim=N] [--threads=N]"
      " [--max-queue=N] [--max-batch=N] [--metrics=0|1]"
      " [--shards=K]\n";
  if (argc < 2) {
    std::fprintf(stderr, "%s", usage);
    return 2;
  }
  const std::string dir = argv[1];
  server::ServerOptions sopt;
  if (const char* v = FlagValue(argc, argv, "--socket")) sopt.socket_path = v;
  size_t tcp_port = 0;  // 0: no TCP listener
  size_t dim = 0;       // 0: open an existing index
  // Query-batch pool width for either index kind; 0 (the default) is one
  // thread per hardware core, 1 runs every batch on the dispatcher.
  size_t threads = 0;
  size_t metrics_on = 1;
  size_t shards = 0;  // 0: sharded only when the directory has a manifest
  // Every numeric flag is validated before anything is opened or created:
  // a typo must not leave a fresh index directory behind or quietly fall
  // back to a default.
  const struct {
    const char* flag;
    size_t lo, hi;
    size_t* field;
    const char* want;
  } numeric[] = {
      {"--tcp-port", 1, 65535, &tcp_port, "a port in 1..65535"},
      {"--max-queue", 1, SIZE_MAX, &sopt.max_queue, "a positive integer"},
      {"--max-batch", 1, SIZE_MAX, &sopt.max_batch, "a positive integer"},
      {"--dim", 1, SIZE_MAX, &dim, "a positive integer"},
      {"--threads", 0, SIZE_MAX, &threads, "a non-negative integer"},
      {"--metrics", 0, 1, &metrics_on, "0 or 1"},
      {"--shards", 1, SIZE_MAX, &shards, "a positive integer"},
  };
  for (const auto& f : numeric) {
    const char* v = FlagValue(argc, argv, f.flag);
    if (v != nullptr && !ParseInRange(v, f.lo, f.hi, f.field)) {
      std::fprintf(stderr, "nncell_server: %s must be %s\n%s", f.flag, f.want,
                   usage);
      return 2;
    }
  }
  sopt.tcp_port = static_cast<int>(tcp_port);
  if (sopt.socket_path.empty() && sopt.tcp_port == 0) {
    std::fprintf(stderr, "nncell_server: need --socket and/or --tcp-port\n");
    return 2;
  }
  if (!fs::IsDirectory(dir) && dim == 0) {
    std::fprintf(stderr,
                 "nncell_server: %s does not exist; pass --dim=N to create "
                 "a fresh index\n",
                 dir.c_str());
    return 2;
  }

  // Block the shutdown signals before any thread exists so every server
  // thread inherits the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  if (pthread_sigmask(SIG_BLOCK, &sigs, nullptr) != 0) {
    std::fprintf(stderr, "nncell_server: pthread_sigmask failed\n");
    return 1;
  }

  // A shard.manifest in the directory (or an explicit --shards when
  // creating fresh) selects the sharded index; either way the wire
  // protocol and drain behavior are identical.
  const bool sharded =
      shards > 0 ||
      fs::PathExists(shard::JoinPath(dir, shard::kShardManifestFileName));

  std::unique_ptr<server::IndexBackend> index;
  size_t recovered_points = 0;
  size_t num_shards = 0;
  uint64_t wal_replayed = 0;
  if (sharded) {
    ShardedOptions shopt;
    shopt.num_shards = shards > 0 ? shards : 1;
    ShardedIndex::RecoveryInfo info;
    auto idx = ShardedIndex::Open(dir, dim, NNCellOptions(),
                                  NNCellIndex::DurableOptions(), shopt, &info);
    if (!idx.ok()) {
      std::fprintf(stderr, "nncell_server: open %s failed: %s\n", dir.c_str(),
                   idx.status().ToString().c_str());
      return 1;
    }
    if ((*idx)->degraded()) {
      // Serving would silently answer from a subset of the data; make the
      // operator run the recovery runbook (docs/SHARDING.md) instead.
      std::fprintf(stderr,
                   "nncell_server: %zu of %zu shards failed to open; "
                   "run `nncell_cli recover %s` and restore the damaged "
                   "shard(s) before serving\n",
                   (*idx)->degraded_shards(), (*idx)->num_shards(),
                   dir.c_str());
      return 1;
    }
    wal_replayed = info.router_records_replayed;
    (*idx)->SetNumThreads(threads);
    recovered_points = (*idx)->size();
    num_shards = (*idx)->num_shards();
    index = std::move(*idx);
  } else {
    NNCellIndex::RecoveryInfo info;
    auto idx = NNCellIndex::Open(dir, dim, NNCellOptions(),
                                 NNCellIndex::DurableOptions(), &info);
    if (!idx.ok()) {
      std::fprintf(stderr, "nncell_server: open %s failed: %s\n", dir.c_str(),
                   idx.status().ToString().c_str());
      return 1;
    }
    wal_replayed = info.wal_records_replayed;
    (*idx)->SetNumThreads(threads);
    recovered_points = (*idx)->size();
    index = std::move(*idx);
  }
  metrics::Registry::SetEnabled(metrics_on != 0);

  // Recovered state is read before Start(): once the dispatcher runs, the
  // index belongs to it and main must not touch it until Stop().
  const size_t recovered_dim = index->dim();
  server::NNCellServer srv(index.get(), sopt);
  Status st = srv.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "nncell_server: start failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf(
      "READY dir=%s points=%zu dim=%zu shards=%zu wal_replayed=%llu "
      "socket=%s tcp_port=%d\n",
      dir.c_str(), recovered_points, recovered_dim, num_shards,
      static_cast<unsigned long long>(wal_replayed),
      sopt.socket_path.empty() ? "-" : sopt.socket_path.c_str(),
      sopt.tcp_port);
  std::fflush(stdout);

  int sig = 0;
  (void)sigwait(&sigs, &sig);
  std::fprintf(stderr, "nncell_server: got %s, draining\n",
               sig == SIGINT ? "SIGINT" : "SIGTERM");
  st = srv.Stop();
  std::printf(
      "DRAINED accepted=%llu completed=%llu rejected=%llu malformed=%llu "
      "checkpoint=%s\n",
      static_cast<unsigned long long>(srv.accepted()),
      static_cast<unsigned long long>(srv.completed()),
      static_cast<unsigned long long>(srv.rejected()),
      static_cast<unsigned long long>(srv.malformed()),
      st.ok() ? "ok" : st.ToString().c_str());
  std::fflush(stdout);
  return st.ok() ? 0 : 1;
}
