#include "shard/sharded_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/distance.h"
#include "common/rng.h"
#include "shard/shard_format.h"
#include "storage/fs_util.h"
#include "storage/page_file.h"

namespace nncell {

namespace {

// Scatter-gather pruning slack: a shard is probed unless its slab's
// squared metric distance exceeds best_d2 * kPruneSlack + kPruneSlackAbs.
// The margin absorbs the (sub-ulp) rounding daylight between a point's
// kernel-computed squared distance and the exact slab bound, so pruning
// can only ever skip shards that provably cannot improve or tie the best
// -- extra probes are allowed, missed winners are not (docs/SHARDING.md,
// "Scatter-gather pruning invariant").
constexpr double kPruneSlack = 1.0 + 1e-9;
constexpr double kPruneSlackAbs = 1e-300;

constexpr double kInf = std::numeric_limits<double>::infinity();

// In-memory shards: private page file + pool per shard (the durable path
// sizes storage via DurableOptions instead).
constexpr size_t kMemoryShardPageSize = 4096;
constexpr size_t kMemoryShardPoolPages = 1024;

// Folds one probed shard's certificate into the merged one: flags OR'd,
// leaf visits summed, bound = min (`into->bound` starts at +infinity).
void MergeCertificate(const ApproxCertificate& from, ApproxCertificate* into) {
  into->approximate = into->approximate || from.approximate;
  into->terminated_early = into->terminated_early || from.terminated_early;
  into->truncated = into->truncated || from.truncated;
  into->leaf_visits += from.leaf_visits;
  into->bound = std::min(into->bound, from.bound);
}

}  // namespace

ShardedIndex::ShardedIndex(NNCellOptions options, ShardedOptions sopts,
                           std::string dir)
    : options_(std::move(options)), sopts_(sopts), dir_(std::move(dir)) {
  sopts_.num_shards = std::max<size_t>(
      1, std::min<size_t>(sopts_.num_shards, shard::kMaxShards));
  // Shards run serial internally; this layer owns the cross-shard /
  // cross-query parallelism, with the caller's thread count.
  SetNumThreads(options_.parallel.num_threads);
  options_.parallel.num_threads = 1;
  auto& reg = metrics::Registry::Global();
  m_count_ = reg.gauge(metrics::kShardCount);
  m_epoch_ = reg.gauge(metrics::kShardEpoch);
  m_fanout_ = reg.histogram(metrics::kShardQueryFanout);
  m_probes_ = reg.counter(metrics::kShardQueryProbes);
  m_pruned_ = reg.counter(metrics::kShardQueryPruned);
  m_rebalances_ = reg.counter(metrics::kShardRebalanceEvents);
  m_moved_ = reg.counter(metrics::kShardRebalanceMovedPoints);
  m_degraded_ = reg.counter(metrics::kShardRecoveryDegraded);
}

ShardedIndex::~ShardedIndex() = default;

void ShardedIndex::InitManifest(size_t dim) {
  const size_t k = sopts_.num_shards;
  manifest_.shard_count = static_cast<uint32_t>(k);
  manifest_.route_dim = 0;
  manifest_.dim = static_cast<uint32_t>(dim);
  const double hi = MetricSpaceBox(dim, options_.weights).hi()[0];
  for (size_t j = 1; j < k; ++j) {
    manifest_.cuts.push_back(hi * static_cast<double>(j) /
                             static_cast<double>(k));
  }
}

void ShardedIndex::InstallEpoch() {
  probe_counts_.resize(shards_.size());
  for (auto& p : probe_counts_) {
    p = std::make_unique<std::atomic<uint64_t>>(0);
  }
  if (metrics::Registry::Enabled()) {
    m_count_->Set(static_cast<int64_t>(shards_.size()));
    m_epoch_->Set(static_cast<int64_t>(manifest_.epoch));
  }
}

double ShardedIndex::RouteCoord(const double* original) const {
  return ToMetricCoord(original[manifest_.route_dim], manifest_.route_dim,
                       options_.weights);
}

size_t ShardedIndex::ShardCountFor(size_t live) const {
  const size_t target = sopts_.target_points_per_shard;
  if (target == 0) return manifest_.shard_count;
  return std::max<size_t>(
      1, std::min<size_t>((live + target - 1) / target, shard::kMaxShards));
}

void ShardedIndex::MakeMemoryShard(Shard* s) const {
  s->file = std::make_unique<PageFile>(kMemoryShardPageSize);
  s->pool = std::make_unique<BufferPool>(s->file.get(), kMemoryShardPoolPages);
  s->index =
      std::make_unique<NNCellIndex>(s->pool.get(), manifest_.dim, options_);
  s->status = Status::OK();
}

Status ShardedIndex::OpenDurableShard(size_t i, Shard* s,
                                      NNCellIndex::RecoveryInfo* info) const {
  StatusOr<std::unique_ptr<NNCellIndex>> idx = NNCellIndex::Open(
      shard::JoinPath(dir_, shard::ShardDirName(i)), manifest_.dim, options_,
      dopts_, info);
  if (!idx.ok()) {
    s->status = idx.status();
    s->index.reset();
    return idx.status();
  }
  s->index = std::move(*idx);
  s->status = Status::OK();
  return Status::OK();
}

StatusOr<std::unique_ptr<ShardedIndex>> ShardedIndex::Create(
    size_t dim, NNCellOptions options, ShardedOptions sopts) {
  if (dim == 0) return Status::InvalidArgument("dimension must be positive");
  std::unique_ptr<ShardedIndex> idx(
      // nncell-lint: allow(naked-new) private constructor; the unique_ptr on this statement owns it
      new ShardedIndex(std::move(options), sopts, ""));
  idx->InitManifest(dim);
  idx->shards_.resize(idx->manifest_.shard_count);
  for (Shard& s : idx->shards_) idx->MakeMemoryShard(&s);
  idx->InstallEpoch();
  return idx;
}

StatusOr<std::unique_ptr<ShardedIndex>> ShardedIndex::Open(
    const std::string& dir, size_t dim, NNCellOptions options,
    NNCellIndex::DurableOptions dopts, ShardedOptions sopts,
    RecoveryInfo* info) {
  NNCELL_RETURN_IF_ERROR(fs::EnsureDirectory(dir));
  RecoveryInfo local;
  RecoveryInfo* ri = info != nullptr ? info : &local;
  *ri = RecoveryInfo();

  // Finish a committed rebalance / discard an uncommitted one first: the
  // steady-state files are only authoritative afterwards.
  NNCELL_RETURN_IF_ERROR(
      shard::FinalizeInstallIfPresent(dir, &ri->finalized_install));
  NNCELL_RETURN_IF_ERROR(
      shard::DiscardStagingIfPresent(dir, &ri->discarded_staging));

  std::unique_ptr<ShardedIndex> idx(
      // nncell-lint: allow(naked-new) private constructor; the unique_ptr on this statement owns it
      new ShardedIndex(std::move(options), sopts, dir));
  // The shard-then-router write order recovery relies on needs every
  // acknowledged shard operation durable before its router record.
  dopts.wal_group_sync = 1;
  idx->dopts_ = dopts;

  const std::string manifest_path =
      shard::JoinPath(dir, shard::kShardManifestFileName);
  StatusOr<shard::ShardManifest> m = shard::LoadManifest(manifest_path);
  if (m.ok()) {
    if (dim != 0 && dim != m->dim) {
      return Status::InvalidArgument(
          "dimension mismatch: manifest has dim " + std::to_string(m->dim) +
          ", caller asked for " + std::to_string(dim));
    }
    idx->manifest_ = std::move(*m);
  } else if (m.status().code() == StatusCode::kNotFound) {
    if (fs::PathExists(shard::JoinPath(dir, shard::ShardDirName(0)))) {
      return Status::Internal(dir +
                              ": shard directories without a shard manifest");
    }
    if (dim == 0) {
      return Status::InvalidArgument(
          "cannot create a sharded index without a dimension");
    }
    idx->InitManifest(dim);
    NNCELL_RETURN_IF_ERROR(
        shard::WriteManifest(manifest_path, idx->manifest_));
    ri->created = true;
  } else {
    return m.status();
  }

  // Open every shard; a failure degrades that shard, not the index.
  idx->shards_.resize(idx->manifest_.shard_count);
  ri->shards.resize(idx->manifest_.shard_count);
  for (size_t i = 0; i < idx->shards_.size(); ++i) {
    Status st =
        idx->OpenDurableShard(i, &idx->shards_[i], &ri->shards[i].info);
    ri->shards[i].status = st;
    if (!st.ok()) {
      ++idx->degraded_count_;
      NNCELL_METRIC_COUNT(idx->m_degraded_, 1);
    }
  }

  NNCELL_RETURN_IF_ERROR(idx->RecoverRouter(ri));
  idx->InstallEpoch();
  return idx;
}

Status ShardedIndex::OpenRouterLog(uint64_t covered_lsn,
                                   WriteAheadLog::RecoverResult* rr) {
  StatusOr<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(
      shard::JoinPath(dir_, shard::kRouterLogFileName), covered_lsn,
      /*group_sync=*/1, /*strict_header=*/false, rr);
  if (!wal.ok()) return wal.status();
  router_wal_ = std::move(*wal);
  return Status::OK();
}

Status ShardedIndex::RecoverRouter(RecoveryInfo* info) {
  const std::string snap_path =
      shard::JoinPath(dir_, shard::kRouterSnapshotFileName);
  shard::RouterSnapshot snap;
  StatusOr<shard::RouterSnapshot> loaded =
      shard::LoadRouterSnapshot(snap_path);
  if (loaded.ok()) {
    snap = std::move(*loaded);
  } else if (loaded.status().code() != StatusCode::kNotFound) {
    return loaded.status();
  }
  router_ = std::move(snap.entries);

  WriteAheadLog::RecoverResult rr;
  NNCELL_RETURN_IF_ERROR(OpenRouterLog(snap.covered_lsn, &rr));
  // Per-shard registration counts (locals are dense in registration
  // order), seeded from the snapshot entries.
  std::vector<uint64_t> shard_total(manifest_.shard_count, 0);
  for (const shard::RouterEntry& e : router_) {
    if (e.shard == shard::kRouterShardNone) continue;
    if (e.shard >= manifest_.shard_count) {
      return Status::Internal("router snapshot maps a global id to shard " +
                              std::to_string(e.shard) + " of " +
                              std::to_string(manifest_.shard_count));
    }
    ++shard_total[e.shard];
  }

  for (const WriteAheadLog::Record& rec : rr.records) {
    if (rec.lsn <= snap.covered_lsn) {
      ++info->router_records_skipped;
      continue;
    }
    StatusOr<shard::RouterLogOp> op = shard::DecodeRouterOp(rec.payload);
    if (!op.ok()) return op.status();
    if (op->op == shard::kRouterOpInsert) {
      if (op->global_id != router_.size() ||
          op->shard >= manifest_.shard_count) {
        return Status::Internal(
            "router log: inconsistent insert record (global " +
            std::to_string(op->global_id) + ", shard " +
            std::to_string(op->shard) + ")");
      }
      router_.push_back(
          {op->shard, shard_total[op->shard]++, /*alive=*/true});
    } else {
      if (op->global_id >= router_.size() ||
          !router_[op->global_id].alive) {
        return Status::Internal("router log: delete of a dead global id " +
                                std::to_string(op->global_id));
      }
      router_[op->global_id].alive = false;
    }
    ++info->router_records_replayed;
  }

  // Reconcile against the shards: with the shard-then-router write order
  // (and group_sync forced to 1) a healthy shard can only ever be *ahead*
  // of the router -- by unregistered trailing points (insert crash
  // window) or by tombstones the router still thinks alive (delete crash
  // window). A shard behind the router is corruption and degrades it.
  auto degrade = [&](size_t s, const std::string& why) {
    shards_[s].status = Status::Internal(why);
    shards_[s].index.reset();
    if (info->shards.size() > s) info->shards[s].status = shards_[s].status;
    ++degraded_count_;
    NNCELL_METRIC_COUNT(m_degraded_, 1);
  };
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].index == nullptr) continue;
    const size_t actual = shards_[s].index->points().size();
    const size_t expected = shard_total[s];
    if (actual < expected) {
      degrade(s, "shard " + std::to_string(s) + " holds " +
                     std::to_string(actual) + " points but the router maps " +
                     std::to_string(expected));
      continue;
    }
    for (size_t l = expected; l < actual; ++l) {
      router_.push_back({static_cast<uint32_t>(s), l,
                         shards_[s].index->IsAlive(l)});
      ++info->reconciled_inserts;
    }
  }

  // Rebuild the local -> global maps and reconcile aliveness.
  std::vector<uint64_t> next_local(manifest_.shard_count, 0);
  for (uint64_t g = 0; g < router_.size(); ++g) {
    shard::RouterEntry& e = router_[g];
    if (e.shard == shard::kRouterShardNone) continue;
    Shard& sh = shards_[e.shard];
    if (sh.index == nullptr) continue;  // degraded: map kept as recorded
    if (e.local != next_local[e.shard]++) {
      degrade(e.shard, "shard " + std::to_string(e.shard) +
                           ": router locals are not dense in global order");
      continue;
    }
    if (e.alive && !sh.index->IsAlive(e.local)) {
      e.alive = false;  // delete applied to the shard, router record lost
      ++info->reconciled_deletes;
    } else if (!e.alive && sh.index->IsAlive(e.local)) {
      degrade(e.shard, "shard " + std::to_string(e.shard) + ": local id " +
                           std::to_string(e.local) +
                           " alive but tombstoned in the router");
      continue;
    }
    sh.local_to_global.push_back(g);
  }
  return Status::OK();
}

size_t ShardedIndex::size() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  size_t n = 0;
  for (const Shard& s : shards_) {
    if (s.index != nullptr) n += s.index->size();
  }
  return n;
}

Status ShardedIndex::ShardStatus(size_t i) const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  if (i >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(i));
  }
  return shards_[i].status;
}

bool ShardedIndex::IsAlive(uint64_t global_id) const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  return global_id < router_.size() && router_[global_id].alive;
}

StatusOr<NNCellIndex::QueryResult> ShardedIndex::Query(
    const double* q, const ApproxOptions& approx) const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  return QueryLocked(q, approx);
}

StatusOr<ShardedIndex::ProbePlan> ShardedIndex::PlanProbes(
    const double* q) const {
  ProbePlan plan;
  for (const Shard& s : shards_) {
    if (s.index != nullptr) plan.live += s.index->size();
  }
  if (plan.live == 0) return Status::FailedPrecondition("index is empty");
  plan.qm = ToMetricSpace(q, manifest_.dim, options_.weights);
  const double qc = plan.qm[manifest_.route_dim];

  // Nearest slab first, so once a slab cannot beat or tie the best,
  // neither can any later one.
  plan.order.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].index == nullptr || shards_[i].index->size() == 0) continue;
    plan.order.push_back({i, manifest_.SlabMinDistSq(i, qc)});
  }
  std::stable_sort(plan.order.begin(), plan.order.end(),
                   [](const Probe& a, const Probe& b) {
                     return a.slab_d2 < b.slab_d2;
                   });
  return plan;
}

StatusOr<ShardedIndex::Gathered> ShardedIndex::Gather(
    const double* q, const ProbePlan& plan, size_t k, double limit_d2,
    const ApproxOptions& approx, const ShardQuery& query) const {
  NNCELL_RETURN_IF_ERROR(CheckFinite(q, manifest_.dim));
  Gathered out;
  if (k == 0) return out;

  // Answers keyed exactly like the unsharded sort: (squared distance,
  // global id) ascending.
  struct Keyed {
    double d2;
    uint64_t gid;
    QueryResult res;
  };
  std::vector<Keyed> merged;
  size_t probed = 0;
  ApproxCertificate cert;
  cert.bound = kInf;
  for (size_t oi = 0; oi < plan.order.size(); ++oi) {
    const Probe& pr = plan.order[oi];
    double bound_d2 = limit_d2;
    if (merged.size() >= k) bound_d2 = std::min(bound_d2, merged[k - 1].d2);
    if (pr.slab_d2 > bound_d2 * kPruneSlack + kPruneSlackAbs) {
      NNCELL_METRIC_COUNT(m_pruned_, plan.order.size() - oi);
      // Every unprobed shard's points are at least its slab distance away,
      // and later slabs are no closer than this one.
      cert.bound = std::min(cert.bound, std::sqrt(pr.slab_d2));
      break;
    }
    const Shard& sh = shards_[pr.idx];
    StatusOr<std::vector<QueryResult>> r = query(*sh.index);
    if (!r.ok()) return r.status();
    ++probed;
    // nncell-lint: allow(relaxed-atomics) monotonic stats counter; readers only ever see a point-in-time sum, no ordering with shard state
    probe_counts_[pr.idx]->fetch_add(1, std::memory_order_relaxed);
    if (!r->empty()) MergeCertificate(r->front().approx, &cert);
    for (QueryResult& res : *r) {
      out.candidates += res.candidates;
      out.used_fallback = out.used_fallback || res.used_fallback;
      // Exact merge key: the pair-kernel squared distance (bit-equal to
      // the shard's internal ranking) plus the global id, exactly the
      // unsharded scan's comparison.
      Keyed m;
      m.d2 = L2DistSq(sh.index->points()[res.id], plan.qm.data(),
                      manifest_.dim);
      m.gid = sh.local_to_global[res.id];
      res.id = m.gid;
      m.res = std::move(res);
      merged.push_back(std::move(m));
    }
    std::sort(merged.begin(), merged.end(), [](const Keyed& a, const Keyed& b) {
      return a.d2 < b.d2 || (a.d2 == b.d2 && a.gid < b.gid);
    });
    if (merged.size() > k) merged.resize(k);
  }
  NNCELL_METRIC_RECORD(m_fanout_, probed);
  NNCELL_METRIC_COUNT(m_probes_, probed);
  out.results.reserve(merged.size());
  for (Keyed& m : merged) {
    if (approx.enabled()) m.res.approx = cert;
    out.results.push_back(std::move(m.res));
  }
  return out;
}

StatusOr<NNCellIndex::QueryResult> ShardedIndex::QueryLocked(
    const double* q, const ApproxOptions& approx) const {
  StatusOr<ProbePlan> plan = PlanProbes(q);
  if (!plan.ok()) return plan.status();
  StatusOr<Gathered> g = Gather(
      q, *plan, 1, kInf, approx,
      [&](const NNCellIndex& s) -> StatusOr<std::vector<QueryResult>> {
        StatusOr<QueryResult> r = s.Query(q, approx);
        if (!r.ok()) return r.status();
        std::vector<QueryResult> one;
        one.push_back(std::move(*r));
        return one;
      });
  if (!g.ok()) return g.status();
  NNCELL_CHECK(!g->results.empty());
  QueryResult best = std::move(g->results.front());
  best.candidates = g->candidates;
  best.used_fallback = g->used_fallback;
  return best;
}

StatusOr<std::vector<NNCellIndex::QueryResult>> ShardedIndex::QueryBatch(
    const PointSet& queries, const ApproxOptions& approx) const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  if (queries.dim() != manifest_.dim) {
    return Status::InvalidArgument("dimension mismatch");
  }
  return ParallelMap<NNCellIndex::QueryResult>(
      BatchPool(thread_pool_.get(), queries.size(), QueryCostLocked()),
      queries.size(),
      [&](size_t i) { return QueryLocked(queries[i], approx); });
}

double ShardedIndex::QueryCost() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  return QueryCostLocked();
}

double ShardedIndex::QueryCostLocked() const {
  double cost = 0.0;
  for (const Shard& s : shards_) {
    if (s.index != nullptr) cost = std::max(cost, s.index->QueryCost());
  }
  return cost;
}

StatusOr<std::vector<NNCellIndex::QueryResult>> ShardedIndex::KnnQuery(
    const double* q, size_t k, const ApproxOptions& approx) const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  StatusOr<ProbePlan> plan = PlanProbes(q);
  if (!plan.ok()) return plan.status();
  k = std::min(k, plan->live);  // what every probed shard is asked for
  StatusOr<Gathered> g =
      Gather(q, *plan, k, kInf, approx,
             [&](const NNCellIndex& s) { return s.KnnQuery(q, k, approx); });
  if (!g.ok()) return g.status();
  return std::move(g->results);
}

StatusOr<std::vector<NNCellIndex::QueryResult>> ShardedIndex::RangeSearch(
    const double* q, double radius) const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  StatusOr<ProbePlan> plan = PlanProbes(q);
  if (!plan.ok()) return plan.status();
  if (radius < 0.0) return Status::InvalidArgument("negative radius");
  if (!std::isfinite(radius)) {
    return Status::InvalidArgument("non-finite radius");
  }
  StatusOr<Gathered> g =
      Gather(q, *plan, std::numeric_limits<size_t>::max(), radius * radius,
             ApproxOptions{},
             [&](const NNCellIndex& s) { return s.RangeSearch(q, radius); });
  if (!g.ok()) return g.status();
  return std::move(g->results);
}

StatusOr<uint64_t> ShardedIndex::Insert(const std::vector<double>& point) {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  if (point.size() != manifest_.dim) {
    return Status::InvalidArgument("dimension mismatch");
  }
  NNCELL_RETURN_IF_ERROR(CheckFinite(point.data(), manifest_.dim));
  const size_t s = manifest_.Route(RouteCoord(point.data()));
  Shard& sh = shards_[s];
  if (sh.index == nullptr) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(s) +
        " is unavailable: " + sh.status.message());
  }
  StatusOr<uint64_t> local = sh.index->Insert(point);
  if (!local.ok()) return local.status();
  NNCELL_CHECK(*local == sh.local_to_global.size());
  const uint64_t gid = router_.size();
  Status log_st = Status::OK();
  if (router_wal_ != nullptr) {
    // Shard-then-router order: the shard op is durable (its WAL synced)
    // before the router record exists, so recovery's reconciliation only
    // ever sees the shard ahead.
    log_st = router_wal_->Append(
        shard::EncodeRouterInsert(gid, static_cast<uint32_t>(s)));
  }
  router_.push_back({static_cast<uint32_t>(s), *local, /*alive=*/true});
  sh.local_to_global.push_back(gid);
  if (!log_st.ok()) {
    // The shard applied the point but the router record is not durable:
    // the insert is in doubt (recovery re-derives this exact global id
    // from the shard), so surface the log failure to the caller.
    return log_st;
  }
  if (ShouldAutoRebalance()) {
    // Best effort: a failed rebalance leaves the current epoch intact
    // and the acknowledged insert is unaffected.
    (void)RebalanceLocked(/*force=*/false);
  }
  return gid;
}

Status ShardedIndex::Delete(uint64_t global_id) {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  if (global_id >= router_.size() || !router_[global_id].alive) {
    return Status::NotFound("no live point with this id");
  }
  const shard::RouterEntry e = router_[global_id];
  Shard& sh = shards_[e.shard];
  if (sh.index == nullptr) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(e.shard) +
        " is unavailable: " + sh.status.message());
  }
  NNCELL_RETURN_IF_ERROR(sh.index->Delete(e.local));
  router_[global_id].alive = false;
  if (router_wal_ != nullptr) {
    NNCELL_RETURN_IF_ERROR(
        router_wal_->Append(shard::EncodeRouterDelete(global_id)));
  }
  return Status::OK();
}

ShardedIndex::Partition ShardedIndex::Cut(shard::ShardManifest m,
                                          const PointSet& pts,
                                          const std::vector<uint64_t>& gids,
                                          size_t n_global) const {
  const size_t k = m.shard_count;
  if (pts.size() > 0) {
    // Quantile-balanced cuts over the metric route coordinates.
    std::vector<double> coords;
    coords.reserve(pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
      coords.push_back(RouteCoord(pts[i]));
    }
    std::sort(coords.begin(), coords.end());
    m.cuts.clear();
    for (size_t j = 1; j < k; ++j) {
      m.cuts.push_back(coords[j * coords.size() / k]);
    }
  }
  Partition part;
  part.points.assign(k, PointSet(m.dim));
  part.gids.resize(k);
  part.router.assign(n_global, {shard::kRouterShardNone, 0, false});
  for (size_t i = 0; i < pts.size(); ++i) {
    const size_t s = m.Route(RouteCoord(pts[i]));
    part.router[gids[i]] = {static_cast<uint32_t>(s), part.gids[s].size(),
                            /*alive=*/true};
    part.points[s].Add(pts[i]);
    part.gids[s].push_back(gids[i]);
  }
  part.manifest = std::move(m);
  return part;
}

Status ShardedIndex::BuildShards(const Partition& part,
                                 std::vector<Shard>* shards,
                                 const ShardFactory& make) const {
  return ParallelTry(thread_pool_.get(), shards->size(), [&](size_t s) {
    Shard& sh = (*shards)[s];
    if (make) NNCELL_RETURN_IF_ERROR(make(s, &sh));
    if (part.points[s].size() == 0) return Status::OK();
    return sh.index->BulkBuild(part.points[s]);
  });
}

void ShardedIndex::InstallPartition(Partition* part,
                                    std::vector<Shard>* shards) {
  manifest_ = std::move(part->manifest);
  router_ = std::move(part->router);
  for (size_t s = 0; s < shards->size(); ++s) {
    (*shards)[s].local_to_global = std::move(part->gids[s]);
  }
}

Status ShardedIndex::BulkBuild(const PointSet& pts) {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  NNCELL_RETURN_IF_ERROR(CheckBatch(pts, manifest_.dim, options_.weights));
  if (!router_.empty()) {
    return Status::FailedPrecondition(
        "sharded BulkBuild requires an empty index");
  }
  if (degraded_count_ > 0) {
    return Status::FailedPrecondition("index has degraded shards");
  }

  // Deduplicate exactly like the unsharded build (duplicates are skipped,
  // first occurrence wins), so global ids match the oracle's.
  PointSet unique(manifest_.dim);
  std::vector<uint64_t> gids;
  for (size_t i : FirstOccurrences(pts)) {
    gids.push_back(unique.size());
    unique.Add(pts[i]);
  }
  Partition part = Cut(manifest_, unique, gids, gids.size());
  // The manifest must describe the data before any shard holds it: a
  // crash after shard builds but before a manifest write would leave
  // points routed by cuts the manifest does not record.
  manifest_ = part.manifest;
  if (durable() && !gids.empty()) {
    NNCELL_RETURN_IF_ERROR(shard::WriteManifest(
        shard::JoinPath(dir_, shard::kShardManifestFileName), manifest_));
  }
  NNCELL_RETURN_IF_ERROR(BuildShards(part, &shards_, nullptr));
  InstallPartition(&part, &shards_);
  return durable() ? FoldRouterLog() : Status::OK();
}

Status ShardedIndex::Checkpoint() {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  if (!durable()) {
    return Status::FailedPrecondition(
        "Checkpoint() requires a durable index (use ShardedIndex::Open)");
  }
  NNCELL_RETURN_IF_ERROR(
      ParallelTry(thread_pool_.get(), shards_.size(), [&](size_t s) {
        const Shard& sh = shards_[s];
        if (sh.index == nullptr || !sh.index->durable()) return Status::OK();
        return sh.index->Checkpoint();
      }));
  return FoldRouterLog();
}

Status ShardedIndex::FoldRouterLog() {
  shard::RouterSnapshot snap;
  snap.covered_lsn = router_wal_->last_lsn();
  snap.entries = router_;
  NNCELL_RETURN_IF_ERROR(shard::WriteRouterSnapshot(
      shard::JoinPath(dir_, shard::kRouterSnapshotFileName), snap));
  return router_wal_->Truncate(snap.covered_lsn);
}

bool ShardedIndex::ShouldAutoRebalance() const {
  if (!sopts_.auto_rebalance || degraded_count_ > 0) return false;
  size_t live = 0;
  size_t max_live = 0;
  for (const Shard& s : shards_) {
    const size_t l = s.index->size();
    live += l;
    max_live = std::max(max_live, l);
  }
  if (live < sopts_.min_rebalance_points) return false;
  if (ShardCountFor(live) != shards_.size()) return true;
  const double mean =
      static_cast<double>(live) / static_cast<double>(shards_.size());
  return static_cast<double>(max_live) > sopts_.max_skew * mean;
}

Status ShardedIndex::Rebalance(bool force) {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  return RebalanceLocked(force);
}

Status ShardedIndex::RebalanceLocked(bool force) {
  if (degraded_count_ > 0) {
    return Status::FailedPrecondition(
        "cannot rebalance: " + std::to_string(degraded_count_) +
        " shard(s) degraded (repair or restore them first)");
  }
  if (!force && !ShouldAutoRebalance()) return Status::OK();

  // Gather the live points (ascending global id, so every new shard's
  // locals stay ascending in global id) in original coordinates.
  std::vector<uint64_t> live_gids;
  PointSet live_pts(manifest_.dim);
  for (uint64_t g = 0; g < router_.size(); ++g) {
    const shard::RouterEntry& e = router_[g];
    if (!e.alive || e.shard == shard::kRouterShardNone) continue;
    live_gids.push_back(g);
    live_pts.Add(shards_[e.shard].index->OriginalPoint(e.local));
  }
  if (live_gids.empty()) return Status::OK();

  shard::ShardManifest next = manifest_;
  next.shard_count = static_cast<uint32_t>(ShardCountFor(live_gids.size()));
  next.epoch = manifest_.epoch + 1;
  Partition part = Cut(std::move(next), live_pts, live_gids, router_.size());

  NNCELL_RETURN_IF_ERROR(shard::CheckSite("shard.rebalance.stage"));

  std::vector<Shard> next_shards(part.manifest.shard_count);
  if (durable()) {
    NNCELL_RETURN_IF_ERROR(shard::DiscardStagingIfPresent(dir_, nullptr));
    const std::string staging =
        shard::JoinPath(dir_, shard::kRebalanceStagingDirName);
    NNCELL_RETURN_IF_ERROR(fs::EnsureDirectory(staging));
    NNCELL_RETURN_IF_ERROR(
        BuildShards(part, &next_shards, [&](size_t s, Shard* sh) {
          NNCellIndex::RecoveryInfo ri;
          StatusOr<std::unique_ptr<NNCellIndex>> idx = NNCellIndex::Open(
              shard::JoinPath(staging, shard::ShardDirName(s)),
              manifest_.dim, options_, dopts_, &ri);
          if (!idx.ok()) return idx.status();
          sh->index = std::move(*idx);
          return Status::OK();
        }));
    // Close the staged shards before the directory is renamed under them.
    for (Shard& sh : next_shards) sh.index.reset();
    NNCELL_RETURN_IF_ERROR(router_wal_->Sync());
    // Staged router snapshot with the *new* mapping.
    shard::RouterSnapshot snap;
    snap.covered_lsn = router_wal_->last_lsn();
    snap.entries = part.router;
    NNCELL_RETURN_IF_ERROR(shard::WriteRouterSnapshot(
        shard::JoinPath(staging, shard::kRouterSnapshotFileName), snap));
    NNCELL_RETURN_IF_ERROR(shard::WriteManifest(
        shard::JoinPath(staging, shard::kShardManifestFileName),
        part.manifest));

    // Commit + finalize: one atomic rename makes the new epoch durable.
    NNCELL_RETURN_IF_ERROR(shard::CommitStagedInstall(dir_));
    NNCELL_RETURN_IF_ERROR(shard::FinalizeInstallIfPresent(dir_, nullptr));

    // Reopen the installed shards and the recreated router log.
    for (size_t s = 0; s < next_shards.size(); ++s) {
      NNCellIndex::RecoveryInfo ri;
      Status st = OpenDurableShard(s, &next_shards[s], &ri);
      if (!st.ok()) {
        return Status::Internal("rebalance: reopening installed shard " +
                                std::to_string(s) + ": " + st.message());
      }
    }
    router_wal_.reset();
    WriteAheadLog::RecoverResult rr;
    NNCELL_RETURN_IF_ERROR(OpenRouterLog(snap.covered_lsn, &rr));
  } else {
    NNCELL_RETURN_IF_ERROR(BuildShards(part, &next_shards, [&](size_t,
                                                               Shard* sh) {
      MakeMemoryShard(sh);
      return Status::OK();
    }));
  }

  // Install the new epoch in memory.
  InstallPartition(&part, &next_shards);
  shards_ = std::move(next_shards);
  InstallEpoch();
  NNCELL_METRIC_COUNT(m_rebalances_, 1);
  NNCELL_METRIC_COUNT(m_moved_, live_gids.size());
  return Status::OK();
}

ShardedIndex::ShardStats ShardedIndex::Stats() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  ShardStats st;
  st.epoch = manifest_.epoch;
  st.route_dim = manifest_.route_dim;
  st.cuts = manifest_.cuts;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = shards_[i];
    st.healthy.push_back(s.index != nullptr);
    st.live.push_back(s.index != nullptr ? s.index->size() : 0);
    st.plans.push_back(s.index != nullptr ? s.index->ExactPlanName() : "");
    st.total.push_back(s.index != nullptr ? s.index->points().size() : 0);
    st.probes.push_back(
        // nncell-lint: allow(relaxed-atomics) stats snapshot of a monotonic counter; staleness is acceptable, no ordering needed
        probe_counts_[i]->load(std::memory_order_relaxed));
  }
  return st;
}

std::string ShardedIndex::ShardStatsJson() const {
  ShardStats s = Stats();
  char buf[64];
  std::string out = "{\"count\":" + std::to_string(s.live.size());
  out += ",\"cuts\":[";
  for (size_t i = 0; i < s.cuts.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", s.cuts[i]);
    out += buf;
  }
  out += "],\"degraded\":" + std::to_string(degraded_shards());
  out += ",\"epoch\":" + std::to_string(s.epoch);
  out += ",\"route_dim\":" + std::to_string(s.route_dim);
  out += ",\"shards\":[";
  for (size_t i = 0; i < s.live.size(); ++i) {
    if (i) out += ",";
    out += "{\"exact_plan\":\"";
    out += s.plans[i];
    out += "\",\"healthy\":";
    out += s.healthy[i] ? "true" : "false";
    out += ",\"live\":" + std::to_string(s.live[i]);
    out += ",\"probes\":" + std::to_string(s.probes[i]);
    out += ",\"total\":" + std::to_string(s.total[i]);
    out += "}";
  }
  out += "]}";
  return out;
}

RTreeCore::TreeInfo ShardedIndex::TreeInfo() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  RTreeCore::TreeInfo agg;
  for (const Shard& s : shards_) {
    if (s.index == nullptr) continue;
    RTreeCore::TreeInfo t = s.index->TreeInfo();
    agg.height = std::max(agg.height, t.height);
    agg.size += t.size;
    agg.num_nodes += t.num_nodes;
    agg.num_leaves += t.num_leaves;
    agg.num_supernodes += t.num_supernodes;
    agg.total_pages += t.total_pages;
  }
  return agg;
}

std::string ShardedIndex::ValidateTree() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  std::string out;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].index == nullptr) continue;
    std::string err = shards_[i].index->ValidateTree();
    if (!err.empty()) {
      out += "shard " + std::to_string(i) + ": " + err + "\n";
    }
  }
  return out;
}

double ShardedIndex::ExpectedCandidates() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  double sum = 0.0;
  for (const Shard& s : shards_) {
    if (s.index != nullptr && s.index->size() > 0) {
      sum += s.index->ExpectedCandidates();
    }
  }
  return sum;
}

const char* ShardedIndex::ExactPlanName() const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  const char* plan = "";
  for (const Shard& s : shards_) {
    if (s.index == nullptr) continue;
    const char* shard_plan = s.index->ExactPlanName();
    if (*plan != '\0' && std::strcmp(plan, shard_plan) != 0) return "mixed";
    plan = shard_plan;
  }
  return plan;
}

Status ShardedIndex::CheckInvariants(size_t sample_queries,
                                     uint64_t seed) const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  const size_t per_shard =
      shards_.empty() ? 0 : sample_queries / shards_.size() + 1;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].index == nullptr) continue;
    Status st = shards_[i].index->CheckInvariants(per_shard, seed + i);
    if (!st.ok()) {
      return Status::Internal("shard " + std::to_string(i) + ": " +
                              st.message());
    }
  }

  // Router map checks: dense ascending locals, aliveness agreement, and
  // the routing invariant (each live point's metric route coordinate lies
  // in its shard's slab).
  std::vector<uint64_t> next_local(shards_.size(), 0);
  size_t router_live = 0;
  for (uint64_t g = 0; g < router_.size(); ++g) {
    const shard::RouterEntry& e = router_[g];
    if (e.shard == shard::kRouterShardNone) {
      if (e.alive) return Status::Internal("live entry without a shard");
      continue;
    }
    if (e.shard >= shards_.size()) {
      return Status::Internal("router entry maps to a missing shard");
    }
    const Shard& sh = shards_[e.shard];
    if (sh.index == nullptr) continue;
    if (e.local != next_local[e.shard]++) {
      return Status::Internal("router locals not dense in global order");
    }
    if (sh.local_to_global.size() <= e.local ||
        sh.local_to_global[e.local] != g) {
      return Status::Internal("local_to_global disagrees with the router");
    }
    if (e.alive != sh.index->IsAlive(e.local)) {
      return Status::Internal("router aliveness disagrees with shard " +
                              std::to_string(e.shard));
    }
    if (e.alive) {
      ++router_live;
      const double c = sh.index->points()[e.local][manifest_.route_dim];
      if (e.shard > 0 && c < manifest_.cuts[e.shard - 1]) {
        return Status::Internal("live point below its shard's slab");
      }
      if (e.shard + 1 < shards_.size() && !(c < manifest_.cuts[e.shard])) {
        return Status::Internal("live point above its shard's slab");
      }
    }
  }
  size_t shard_live = 0;
  for (const Shard& s : shards_) {
    if (s.index != nullptr) shard_live += s.index->size();
  }
  if (degraded_count_ == 0 && router_live != shard_live) {
    return Status::Internal("router live count disagrees with the shards");
  }

  // Sampled cross-shard differential: scatter-gather vs. a brute-force
  // scan over every healthy shard with the same (d2, global id) key.
  if (shard_live > 0) {
    uint64_t rng = seed ^ 0x5eedf00dULL;
    const size_t n = std::min<size_t>(sample_queries, 25);
    for (size_t t = 0; t < n; ++t) {
      std::vector<double> q(manifest_.dim);
      for (double& v : q) {
        v = static_cast<double>(Rng::SplitMix64(&rng) >> 11) * 0x1.0p-53;
      }
      const std::vector<double> qm =
          ToMetricSpace(q.data(), manifest_.dim, options_.weights);
      double best_d2 = std::numeric_limits<double>::infinity();
      uint64_t best_gid = 0;
      bool have = false;
      for (size_t s = 0; s < shards_.size(); ++s) {
        const Shard& sh = shards_[s];
        if (sh.index == nullptr) continue;
        for (size_t l = 0; l < sh.index->points().size(); ++l) {
          if (!sh.index->IsAlive(l)) continue;
          const double d2 =
              L2DistSq(sh.index->points()[l], qm.data(), manifest_.dim);
          const uint64_t gid = sh.local_to_global[l];
          if (!have || d2 < best_d2 || (d2 == best_d2 && gid < best_gid)) {
            have = true;
            best_d2 = d2;
            best_gid = gid;
          }
        }
      }
      StatusOr<NNCellIndex::QueryResult> r =
          QueryLocked(q.data(), ApproxOptions{});
      if (!r.ok()) return r.status();
      if (r->id != best_gid) {
        return Status::Internal("sampled scatter-gather query returned a "
                                "non-NN global id");
      }
    }
  }
  return Status::OK();
}

void ShardedIndex::SetNumThreads(size_t num_threads) {
  ResizePool(num_threads, &thread_pool_);
}

size_t ShardedIndex::num_threads() const {
  return thread_pool_ == nullptr ? 1 : thread_pool_->num_threads();
}

}  // namespace nncell
