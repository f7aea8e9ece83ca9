#ifndef NNCELL_SHARD_SHARDED_INDEX_H_
#define NNCELL_SHARD_SHARDED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/point_set.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "nncell/index_backend.h"
#include "nncell/nncell_index.h"
#include "shard/shard_manifest.h"
#include "storage/wal.h"

namespace nncell {

// Policy knobs of the sharded index that are not part of the persisted
// manifest (the manifest records what the data *is*; these say how the
// index behaves around it).
struct ShardedOptions {
  // Shard count when creating a fresh index (ignored when a manifest
  // exists). Clamped to [1, shard::kMaxShards].
  size_t num_shards = 1;

  // Online rebalance policy: after an insert, when the index holds at
  // least `min_rebalance_points` live points and the fullest shard
  // exceeds `max_skew` times the mean shard size, the insert triggers a
  // rebalance before returning. Rebalance() can always be called
  // explicitly regardless of these thresholds.
  bool auto_rebalance = true;
  double max_skew = 4.0;
  size_t min_rebalance_points = 256;
  // When non-zero, a rebalance also re-chooses the shard count as
  // ceil(live / target_points_per_shard) (splits and merges under growth
  // and shrinkage); zero keeps the shard count fixed.
  size_t target_points_per_shard = 0;
};

// A horizontal partition of the NN-cell index: K independent NNCellIndex
// shards, each owning the half-open slab of metric space recorded in the
// shard manifest, plus a router that maps global ids to (shard, local id)
// pairs. Queries scatter to the owning shard and every shard whose slab
// can still cross the best-distance boundary (the paper's pruning
// argument survives partitioning: a cut only adds boundary shards to the
// probe set), and results merge bit-identically to a single unsharded
// index. See docs/SHARDING.md for the format, the pruning invariant and
// the rebalance state machine.
//
// Thread safety mirrors NNCellIndex: any number of concurrent readers
// (Query / QueryBatch / KnnQuery / RangeSearch / accessors), mutations
// externally exclusive. Internally an epoch lock (shared for queries,
// exclusive for mutations and rebalance) makes the rebalance install
// atomic with respect to in-flight queries: queries drain, the new epoch
// installs, queries resume on the new shard set. Implements IndexBackend,
// so a query server can front it directly.
class ShardedIndex final : public IndexBackend {
 public:
  struct ShardRecovery {
    Status status;  // per-shard open result; !ok() => shard is degraded
    NNCellIndex::RecoveryInfo info;
  };

  // What Open() found and did, for operators and the recovery tests.
  struct RecoveryInfo {
    bool created = false;             // fresh directory, nothing recovered
    bool finalized_install = false;   // finished a committed rebalance
    bool discarded_staging = false;   // dropped an uncommitted rebalance
    uint64_t router_records_replayed = 0;
    uint64_t router_records_skipped = 0;
    // Shard-ahead-of-router reconciliation (the crash window between a
    // shard's WAL append and the router-log append): points found in a
    // shard with no router entry get the next global ids; router entries
    // still alive for points a shard replayed as deleted are tombstoned.
    uint64_t reconciled_inserts = 0;
    uint64_t reconciled_deletes = 0;
    std::vector<ShardRecovery> shards;
  };

  // In-memory sharded index (no durability, like the NNCellIndex
  // constructor). Shards share no storage; each gets its own page file
  // and buffer pool.
  static StatusOr<std::unique_ptr<ShardedIndex>> Create(size_t dim,
                                                        NNCellOptions options,
                                                        ShardedOptions sopts);

  // Opens (or creates) a durable sharded index rooted at `dir`: finishes
  // or discards an interrupted rebalance, loads and validates the
  // manifest (an unrecognized manifest version is an InvalidArgument
  // error, never a guess), opens every shard's NNCellIndex, replays the
  // router log over the router snapshot and reconciles it against the
  // shards. A shard that fails to open degrades the index (its status is
  // reported per shard and Insert/Delete touching it fail) instead of
  // destroying it; queries answer from the healthy shards.
  // The per-shard WAL group_sync is forced to 1: the shard-then-router
  // write order that recovery reconciliation relies on needs every
  // acknowledged shard op durable.
  static StatusOr<std::unique_ptr<ShardedIndex>> Open(
      const std::string& dir, size_t dim, NNCellOptions options,
      NNCellIndex::DurableOptions dopts, ShardedOptions sopts,
      RecoveryInfo* info = nullptr);

  ~ShardedIndex() override;
  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  size_t dim() const override { return manifest_.dim; }
  size_t num_shards() const { return manifest_.shard_count; }
  uint64_t epoch() const { return manifest_.epoch; }
  const NNCellOptions& options() const { return options_; }
  const ShardedOptions& sharded_options() const { return sopts_; }
  bool durable() const override { return !dir_.empty(); }
  size_t size() const override;  // live points across healthy shards

  bool degraded() const { return degraded_count_ > 0; }
  size_t degraded_shards() const { return degraded_count_; }
  // OK for a healthy shard, the open failure for a degraded one.
  Status ShardStatus(size_t i) const;

  bool IsAlive(uint64_t global_id) const;

  // Scatter-gather nearest neighbor: probes the owning shard first, then
  // every shard whose slab can still hold a point at (or tied with) the
  // best distance, nearest slab first. The returned id/dist/point are
  // bit-identical to an unsharded index over the same inserts;
  // `candidates` sums the probed shards' candidate sets.
  //
  // Approximate query tier (docs/APPROXIMATE.md): with approx.enabled()
  // every probed shard runs its certified / bounded-effort traversal with
  // the same knobs, and the merged answer carries an aggregate certificate
  // (leaf visits summed, flags OR'd, bound = min over probed shards'
  // bounds and pruned shards' slab distances). The (1+epsilon) guarantee
  // survives the merge: a pruned slab provably cannot beat the returned
  // best, and the winning shard's own certificate covers its slab. The
  // leaf-visit budget applies per probed shard, not globally. Default
  // options take the exact path, bit-identically.
  StatusOr<QueryResult> Query(const double* q,
                              const ApproxOptions& approx = {}) const;
  StatusOr<std::vector<QueryResult>> QueryBatch(
      const PointSet& queries, const ApproxOptions& approx = {}) const override;
  StatusOr<std::vector<QueryResult>> KnnQuery(
      const double* q, size_t k, const ApproxOptions& approx = {}) const;
  StatusOr<std::vector<QueryResult>> RangeSearch(const double* q,
                                                 double radius) const;

  // Routes to the owning shard, inserts there (WAL first), then journals
  // the (global id, shard) assignment in the router log. Returns the
  // global id. May trigger an online rebalance per ShardedOptions; the
  // insert itself is acknowledged either way.
  StatusOr<uint64_t> Insert(const std::vector<double>& point) override;
  Status Delete(uint64_t global_id) override;

  // Static build: partitions the (deduplicated) input along
  // quantile-balanced cuts, builds every shard in parallel over the
  // thread pool, then installs the router map. All or nothing on a bad
  // batch: the whole batch is checked (CheckBatch) before any shard
  // changes. Requires an empty index (else FailedPrecondition); add points
  // to a live index with Insert.
  Status BulkBuild(const PointSet& pts);

  // Checkpoints every healthy shard (in parallel), then folds the router
  // log into a fresh router snapshot.
  Status Checkpoint() override;

  // Recomputes quantile-balanced cuts (and, with target_points_per_shard,
  // the shard count) from the live points and rebuilds the shards under
  // the new routing; durable indexes stage the new epoch and install it
  // atomically (docs/SHARDING.md, "Rebalance epoch state machine").
  // No-op (OK) when the index is balanced and `force` is false. Fails
  // FailedPrecondition while any shard is degraded.
  Status Rebalance(bool force = true);

  // Per-shard observability for `nncell_cli stats --json` and the
  // server's STATS_JSON (the metrics registry carries the aggregates;
  // these are the per-shard breakdowns).
  struct ShardStats {
    uint64_t epoch = 0;
    std::vector<uint64_t> live;        // live points per shard
    std::vector<uint64_t> total;       // registered incl. tombstones
    std::vector<uint64_t> probes;      // queries that probed the shard
    std::vector<const char*> plans;    // exact plan ("" when degraded)
    std::vector<bool> healthy;
    std::vector<double> cuts;
    uint32_t route_dim = 0;
  };
  ShardStats Stats() const;

  // Stats() rendered as one stable JSON object (sorted keys):
  // {"count":K,"cuts":[...],"degraded":D,"epoch":E,"route_dim":R,
  //  "shards":[{"exact_plan":p,"healthy":b,"live":n,"probes":n,
  //  "total":n},...]}.
  // The "shard" member of `nncell_cli stats --json` and the server's
  // STATS_JSON response.
  std::string ShardStatsJson() const override;

  // Aggregates over the healthy shards (test / CLI support).
  RTreeCore::TreeInfo TreeInfo() const;
  std::string ValidateTree() const;
  double ExpectedCandidates() const override;  // sum over the shards
  // Every healthy shard's plan, or "mixed" when they differ.
  const char* ExactPlanName() const override;

  // Deep self-check: every shard's own invariants, the router map
  // (bijective onto shard points, aliveness agrees, locals dense and
  // ascending in global id), and the routing invariant (every live
  // point's metric route coordinate lies in its shard's slab).
  Status CheckInvariants(size_t sample_queries = 100,
                         uint64_t seed = 0x5eed) const;

  // Width of the cross-shard / cross-query pool: NNCellOptions::parallel
  // at Create / Open, then the last SetNumThreads (0 = one thread per
  // hardware core); 1 = serial. Not thread-safe: call SetNumThreads only
  // while no other thread uses the index.
  void SetNumThreads(size_t num_threads);
  size_t num_threads() const;

  // The costliest shard's NNCellIndex::QueryCost(): what QueryBatch
  // weighs against NNCellIndex::kFanOutWork per query.
  double QueryCost() const;

 private:
  struct Shard {
    // In-memory mode storage (durable shards own theirs internally).
    std::unique_ptr<PageFile> file;
    std::unique_ptr<BufferPool> pool;
    std::unique_ptr<NNCellIndex> index;
    Status status = Status::OK();  // !ok() => degraded, index == nullptr
    std::vector<uint64_t> local_to_global;
  };

  // Points cut into the slabs of a manifest, with the router map that
  // cut makes: what BulkBuild and a rebalance build and install.
  struct Partition {
    shard::ShardManifest manifest;            // with the quantile cuts
    std::vector<PointSet> points;             // per shard, ascending gid
    std::vector<std::vector<uint64_t>> gids;  // per shard: local -> global
    std::vector<shard::RouterEntry> router;   // global -> (shard, local)
  };
  // Puts an empty shard `s` of the next epoch in place.
  using ShardFactory = std::function<Status(size_t s, Shard* shard)>;

  // Clamps sopts.num_shards to [1, shard::kMaxShards] and sizes the pool
  // from options.parallel (the shards themselves then run serial).
  ShardedIndex(NNCellOptions options, ShardedOptions sopts, std::string dir);

  // A fresh index's manifest (Create, and Open of an empty directory):
  // sopts_.num_shards equal-width slabs of metric coordinate 0, the route
  // dimension of every index this build creates.
  void InitManifest(size_t dim);
  // After Create, Open and a rebalance set shards_ and manifest_: zeroes
  // the per-shard probe counts, publishes the shard.count / shard.epoch
  // gauges.
  void InstallEpoch();

  // The metric-space routing coordinate of an original-space point.
  double RouteCoord(const double* original) const;
  // The shard count a rebalance picks for `live` points:
  // ceil(live / target_points_per_shard) in [1, shard::kMaxShards], or
  // the current count when target_points_per_shard is 0.
  size_t ShardCountFor(size_t live) const;

  // Cuts `pts` (global ids `gids`, ascending) into m.shard_count
  // quantile-balanced slabs (m's cuts stay when `pts` is empty), and maps
  // every global id below `n_global` to its new (shard, local) pair, or to
  // none when `gids` leaves it out.
  Partition Cut(shard::ShardManifest m, const PointSet& pts,
                const std::vector<uint64_t>& gids, size_t n_global) const;
  // Bulk-builds part.points[s] into (*shards)[s] for every shard, across
  // the pool; `make`, when given, first puts each empty shard in place.
  Status BuildShards(const Partition& part, std::vector<Shard>* shards,
                     const ShardFactory& make) const;
  // Makes `part` the routing in force: its manifest, its router map and
  // each of `shards` local -> global ids.
  void InstallPartition(Partition* part, std::vector<Shard>* shards);

  void MakeMemoryShard(Shard* s) const;
  Status OpenDurableShard(size_t i, Shard* s,
                          NNCellIndex::RecoveryInfo* info) const;
  // Router recovery: snapshot + log replay + shard reconciliation.
  Status RecoverRouter(RecoveryInfo* info);
  // (Re)opens the router log past `covered_lsn` into router_wal_.
  Status OpenRouterLog(uint64_t covered_lsn, WriteAheadLog::RecoverResult* rr);
  // Writes router_ as the router snapshot covering the router log's last
  // record, then truncates the log.
  Status FoldRouterLog();

  // What every scatter-gather query starts from: the live count, the
  // query in metric space, and the non-empty healthy shards in probe
  // order (nearest slab first; the owner's slab distance is 0).
  // FailedPrecondition when the index is empty.
  struct Probe {
    size_t idx;
    double slab_d2;
  };
  struct ProbePlan {
    size_t live = 0;
    std::vector<double> qm;
    std::vector<Probe> order;
  };
  StatusOr<ProbePlan> PlanProbes(const double* q) const;

  // The scatter-gather loop every query kind runs (docs/SHARDING.md,
  // "Scatter-gather and the pruning invariant"): probes the shards of
  // `plan` in order through `query` until a slab lies beyond `limit_d2`
  // or beyond the k-th best squared distance so far, and keeps the k best
  // answers by (squared metric distance, global id). Results carry global
  // ids and, with approx.enabled(), the merged certificate.
  struct Gathered {
    std::vector<QueryResult> results;
    size_t candidates = 0;       // summed over every probed shard's answers
    bool used_fallback = false;  // OR'd over them
  };
  using ShardQuery =
      std::function<StatusOr<std::vector<QueryResult>>(const NNCellIndex&)>;
  StatusOr<Gathered> Gather(const double* q, const ProbePlan& plan, size_t k,
                            double limit_d2, const ApproxOptions& approx,
                            const ShardQuery& query) const;

  StatusOr<QueryResult> QueryLocked(const double* q,
                                    const ApproxOptions& approx) const;
  double QueryCostLocked() const;

  bool ShouldAutoRebalance() const;
  Status RebalanceLocked(bool force);

  NNCellOptions options_;       // shards run with parallel.num_threads = 1
  ShardedOptions sopts_;
  const std::string dir_;       // empty: in-memory
  NNCellIndex::DurableOptions dopts_;
  shard::ShardManifest manifest_;
  std::vector<Shard> shards_;
  size_t degraded_count_ = 0;
  std::vector<shard::RouterEntry> router_;  // indexed by global id
  std::unique_ptr<WriteAheadLog> router_wal_;

  // Cross-query/ mutation epoch lock (see class comment). std::shared_mutex
  // directly: the annotated Mutex wrapper is exclusive-only.
  mutable std::shared_mutex epoch_mu_;

  // Fan-out across queries of a batch; shards themselves run serial.
  std::unique_ptr<ThreadPool> thread_pool_;

  // Per-shard probe counts for Stats(); incremented under the shared
  // epoch lock, swapped under the exclusive lock on rebalance.
  mutable std::vector<std::unique_ptr<std::atomic<uint64_t>>> probe_counts_;

  // Cached registry handles (metrics_names.h shard.* section).
  metrics::Gauge* m_count_;
  metrics::Gauge* m_epoch_;
  metrics::Histogram* m_fanout_;
  metrics::Counter* m_probes_;
  metrics::Counter* m_pruned_;
  metrics::Counter* m_rebalances_;
  metrics::Counter* m_moved_;
  metrics::Counter* m_degraded_;
};

}  // namespace nncell

#endif  // NNCELL_SHARD_SHARDED_INDEX_H_
