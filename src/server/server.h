#ifndef NNCELL_SERVER_SERVER_H_
#define NNCELL_SERVER_SERVER_H_

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "nncell/index_backend.h"
#include "server/frame.h"

namespace nncell {
namespace server {

struct ServerOptions {
  // Unix-domain socket path; empty disables the unix listener.
  std::string socket_path;
  // TCP port on 127.0.0.1; 0 disables the TCP listener. At least one
  // listener must be configured.
  int tcp_port = 0;
  // Admission-queue capacity: the max number of parsed requests waiting
  // for the dispatcher. A frame arriving at a full queue is answered with
  // RETRY_LATER immediately (explicit backpressure, never a silent stall).
  size_t max_queue = 256;
  // Micro-batch cap: the dispatcher coalesces up to this many consecutive
  // queued QUERY requests into one IndexBackend::QueryBatch call.
  size_t max_batch = 32;
};

// The serving interface lives with the index classes that implement it
// (NNCellIndex and ShardedIndex); this name is kept for server callers.
using nncell::IndexBackend;

// A long-running query service wrapping one index: concurrent
// connections (one reader thread each) feed a bounded admission queue,
// and a single dispatcher thread executes requests in global arrival
// order, coalescing runs of consecutive QUERY requests into
// IndexBackend::QueryBatch calls (adaptive micro-batching: the batch is
// whatever is already queued, capped at max_batch -- it grows under load
// and degenerates to 1 when idle, adding no latency).
//
// The single dispatcher is the concurrency design, not a limitation:
// index mutations (INSERT/DELETE/CHECKPOINT) require exclusion from
// concurrent queries, admitted requests are answered in per-connection
// admission order, and intra-query parallelism is the index's own thread
// pool (NNCellIndex::SetNumThreads; a QueryBatch fans out across it only
// when the batch's work pays for waking the workers). Reader threads
// never touch the index; they parse frames and enqueue. So the server
// makes at most one IndexBackend call at a time, from the dispatcher: a
// backend may rely on that (bench/e2e's traced harness does).
// One deliberate ordering exception: RETRY_LATER rejections are written
// by the reader the moment admission fails, so under backpressure they
// can overtake OK responses still queued for the dispatcher -- pipelining
// clients must match responses by request id, not arrival order.
//
// Shutdown (Stop, typically triggered by SIGINT/SIGTERM in the daemon) is
// a graceful drain: stop accepting connections, shut the read side of
// every connection, join the readers, let the dispatcher answer every
// queued request, then close write sides and -- for a durable index --
// fold the WAL into a fresh snapshot via Checkpoint().
class NNCellServer {
 public:
  // Borrows `backend` (an NNCellIndex or a ShardedIndex); the caller
  // keeps it alive and does not touch it between Start() and Stop().
  // Requires options.max_queue > 0 and options.max_batch > 0.
  NNCellServer(IndexBackend* backend, ServerOptions options);
  ~NNCellServer();

  NNCellServer(const NNCellServer&) = delete;
  NNCellServer& operator=(const NNCellServer&) = delete;

  // Binds the configured listeners and starts the listener/dispatcher
  // threads. Returns immediately; the server runs until Stop().
  Status Start();

  // Graceful drain as described above. Idempotent; blocks until every
  // accepted request is answered and all threads joined. Returns the
  // checkpoint status (OK for non-durable indexes).
  Status Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Conservation counters (also exported as server.* registry metrics and
  // in the STATS_JSON "server" object). At any quiescent point
  // accepted == completed + rejected.
  uint64_t accepted() const { return accepted_.load(); }
  uint64_t completed() const { return completed_.load(); }
  uint64_t rejected() const { return rejected_.load(); }
  uint64_t malformed() const { return malformed_.load(); }

  // The STATS_JSON response body; schema-stable:
  // {"server":{...fixed keys...},"metrics":{...full registry snapshot...}},
  // with a "shard" object between the two when the backend is sharded
  // (docs/SERVING.md, docs/SHARDING.md).
  std::string StatsJson() const;

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    Mutex write_mu;  // serializes reader (rejects) and dispatcher writes
    bool write_open NNCELL_GUARDED_BY(write_mu) = true;

    Connection() = default;
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;
    // The last shared_ptr reference (map entry or queued WorkItem) closes
    // the fd; a deliberately dropped connection reaches the peer as EOF.
    ~Connection() {
      if (fd >= 0) ::close(fd);
    }
  };

  struct WorkItem {
    std::shared_ptr<Connection> conn;
    uint8_t type = 0;
    uint64_t request_id = 0;
    std::string payload;
    std::chrono::steady_clock::time_point enqueued;
  };

  void ListenerLoop(int listen_fd);
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void DispatcherLoop();

  // Parses and admits one frame; returns false when the connection must
  // close (clean EOF, unrecoverable framing fault, or I/O error).
  bool HandleOneFrame(const std::shared_ptr<Connection>& conn);

  // Executes one non-query item (INSERT/DELETE/PING/STATS/CHECKPOINT).
  void ExecuteItem(const WorkItem& item);
  // Executes a run of consecutive QUERY/QUERY_BATCH items as one batch.
  void ExecuteQueryRun(std::vector<WorkItem>& run);

  void Respond(const WorkItem& item, uint8_t resp_type,
               const std::string& payload);
  void RespondStatus(const std::shared_ptr<Connection>& conn, uint8_t type,
                     uint64_t request_id, uint8_t status,
                     const std::string& message);
  void WriteFrame(const std::shared_ptr<Connection>& conn, uint8_t type,
                  uint64_t request_id, const std::string& payload);

  void RecordLatency(const WorkItem& item);

  // Bumps one conservation counter and its registry twin.
  void Count(std::atomic<uint64_t>& counter, metrics::Counter* metric);

  IndexBackend* backend_;
  const ServerOptions options_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  std::vector<int> listen_fds_;
  int wake_pipe_[2] = {-1, -1};  // unblocks the listener's poll on Stop

  std::vector<std::thread> listener_threads_;
  std::thread dispatcher_thread_;

  mutable Mutex conns_mu_;
  std::map<uint64_t, std::shared_ptr<Connection>> conns_
      NNCELL_GUARDED_BY(conns_mu_);
  // Live reader threads, keyed by connection id. An exiting reader moves
  // its own handle into finished_reader_threads_, which the listener
  // reaps (joins) on the next accept -- under connection churn the thread
  // table stays bounded by the number of *open* connections instead of
  // growing for the life of the server. Stop() joins both sets.
  std::map<uint64_t, std::thread> reader_threads_
      NNCELL_GUARDED_BY(conns_mu_);
  std::vector<std::thread> finished_reader_threads_
      NNCELL_GUARDED_BY(conns_mu_);
  uint64_t next_conn_id_ NNCELL_GUARDED_BY(conns_mu_) = 0;

  mutable Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<WorkItem> queue_ NNCELL_GUARDED_BY(queue_mu_);
  bool readers_done_ NNCELL_GUARDED_BY(queue_mu_) = false;

  // Conservation counters; atomics (not registry metrics) so the
  // accepted == completed + rejected contract holds even with metrics
  // collection disabled.
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> malformed_{0};

  // Cached registry handles (see common/metrics_names.h).
  metrics::Counter* m_conn_opened_;
  metrics::Counter* m_conn_closed_;
  metrics::Counter* m_accepted_;
  metrics::Counter* m_completed_;
  metrics::Counter* m_rejected_;
  metrics::Counter* m_malformed_;
  metrics::Counter* m_batches_;
  metrics::Histogram* m_batch_size_;
  metrics::Gauge* m_queue_depth_;
  metrics::Histogram* m_latency_query_;
  metrics::Histogram* m_latency_write_;
};

}  // namespace server
}  // namespace nncell

#endif  // NNCELL_SERVER_SERVER_H_
