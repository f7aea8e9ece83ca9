#include "shard/sharded_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/distance.h"
#include "common/failpoint.h"
#include "shard/shard_format.h"
#include "storage/fs_util.h"
#include "storage/page_file.h"
#include "storage/wal.h"

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

// In-memory shards: private page file + pool per shard (the durable path
// sizes storage via DurableOptions instead).
constexpr size_t kMemoryShardPageSize = 4096;
constexpr size_t kMemoryShardPoolPages = 1024;

// Non-write failpoint: kCrash exits, any other armed action fails the
// operation before it starts.
Status CheckSite(const char* name) {
  switch (failpoint::Check(name)) {
    case failpoint::Action::kOff:
      return Status::OK();
    case failpoint::Action::kCrash:
      failpoint::Crash();
    default:
      return Status::Internal(std::string("failpoint ") + name);
  }
}

// Deterministic splitmix64 for the sampled cross-shard differential.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double UnitUniform(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

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
  // Shards run serial internally; this layer owns the cross-shard /
  // cross-query parallelism, with the caller's thread count (Create and
  // Open size the pool from it before this overwrite).
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

double ShardedIndex::RouteCoord(const double* original) const {
  double c = original[manifest_.route_dim];
  if (!options_.weights.empty()) {
    c *= std::sqrt(options_.weights[manifest_.route_dim]);
  }
  return c;
}

Status ShardedIndex::MakeMemoryShard(Shard* s) const {
  s->file = std::make_unique<PageFile>(kMemoryShardPageSize);
  s->pool = std::make_unique<BufferPool>(s->file.get(), kMemoryShardPoolPages);
  s->index =
      std::make_unique<NNCellIndex>(s->pool.get(), manifest_.dim, options_);
  s->status = Status::OK();
  return Status::OK();
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
  if (sopts.route_dim >= dim) {
    return Status::InvalidArgument("route_dim out of range");
  }
  sopts.num_shards = std::max<size_t>(
      1, std::min<size_t>(sopts.num_shards, shard::kMaxShards));
  const size_t threads = options.parallel.num_threads;
  std::unique_ptr<ShardedIndex> idx(
      // nncell-lint: allow(naked-new) private constructor; the unique_ptr on this statement owns it
      new ShardedIndex(std::move(options), sopts, ""));
  idx->manifest_.shard_count = static_cast<uint32_t>(sopts.num_shards);
  idx->manifest_.epoch = 0;
  idx->manifest_.route_dim = sopts.route_dim;
  idx->manifest_.dim = static_cast<uint32_t>(dim);
  const double hi = idx->options_.weights.empty()
                        ? 1.0
                        : std::sqrt(idx->options_.weights[sopts.route_dim]);
  for (size_t j = 1; j < sopts.num_shards; ++j) {
    idx->manifest_.cuts.push_back(hi * static_cast<double>(j) /
                                  static_cast<double>(sopts.num_shards));
  }
  idx->shards_.resize(sopts.num_shards);
  for (Shard& s : idx->shards_) {
    NNCELL_RETURN_IF_ERROR(idx->MakeMemoryShard(&s));
  }
  idx->probe_counts_.resize(sopts.num_shards);
  for (auto& p : idx->probe_counts_) {
    p = std::make_unique<std::atomic<uint64_t>>(0);
  }
  idx->SetNumThreads(threads);
  if (metrics::Registry::Enabled()) {
    idx->m_count_->Set(static_cast<int64_t>(sopts.num_shards));
  }
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

  sopts.num_shards = std::max<size_t>(
      1, std::min<size_t>(sopts.num_shards, shard::kMaxShards));
  const size_t threads = options.parallel.num_threads;
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
    if (idx->sopts_.route_dim >= dim) {
      return Status::InvalidArgument("route_dim out of range");
    }
    idx->manifest_.shard_count =
        static_cast<uint32_t>(idx->sopts_.num_shards);
    idx->manifest_.epoch = 0;
    idx->manifest_.route_dim = idx->sopts_.route_dim;
    idx->manifest_.dim = static_cast<uint32_t>(dim);
    const double hi =
        idx->options_.weights.empty()
            ? 1.0
            : std::sqrt(idx->options_.weights[idx->sopts_.route_dim]);
    for (size_t j = 1; j < idx->sopts_.num_shards; ++j) {
      idx->manifest_.cuts.push_back(
          hi * static_cast<double>(j) /
          static_cast<double>(idx->sopts_.num_shards));
    }
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

  NNCELL_RETURN_IF_ERROR(idx->RecoverRouter(dopts, ri));

  idx->probe_counts_.resize(idx->manifest_.shard_count);
  for (auto& p : idx->probe_counts_) {
    p = std::make_unique<std::atomic<uint64_t>>(0);
  }
  idx->SetNumThreads(threads);
  if (metrics::Registry::Enabled()) {
    idx->m_count_->Set(static_cast<int64_t>(idx->manifest_.shard_count));
    idx->m_epoch_->Set(static_cast<int64_t>(idx->manifest_.epoch));
  }
  return idx;
}

Status ShardedIndex::RecoverRouter(NNCellIndex::DurableOptions dopts,
                                   RecoveryInfo* info) {
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
  StatusOr<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(
      shard::JoinPath(dir_, shard::kRouterLogFileName), snap.covered_lsn,
      /*group_sync=*/1, /*strict_header=*/false, &rr);
  if (!wal.ok()) return wal.status();
  router_wal_ = std::move(*wal);

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
  (void)dopts;
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

ShardedIndex::ProbePlan ShardedIndex::PlanProbes(const double* q) const {
  ProbePlan plan;
  for (const Shard& s : shards_) {
    if (s.index != nullptr) plan.live += s.index->size();
  }
  const size_t dim = manifest_.dim;
  plan.qm.assign(q, q + dim);
  if (!options_.weights.empty()) {
    for (size_t i = 0; i < dim; ++i) {
      plan.qm[i] *= std::sqrt(options_.weights[i]);
    }
  }
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

StatusOr<NNCellIndex::QueryResult> ShardedIndex::QueryLocked(
    const double* q, const ApproxOptions& approx) const {
  const ProbePlan plan = PlanProbes(q);
  if (plan.live == 0) return Status::FailedPrecondition("index is empty");
  NNCELL_RETURN_IF_ERROR(CheckFinite(q, manifest_.dim));
  const std::vector<Probe>& order = plan.order;

  NNCellIndex::QueryResult best;
  double best_d2 = std::numeric_limits<double>::infinity();
  uint64_t best_gid = 0;
  bool have_best = false;
  size_t probed = 0;
  size_t candidates = 0;
  bool fallback = false;
  ApproxCertificate cert;
  cert.bound = std::numeric_limits<double>::infinity();
  for (size_t oi = 0; oi < order.size(); ++oi) {
    const Probe& pr = order[oi];
    if (have_best && pr.slab_d2 > best_d2 * kPruneSlack + kPruneSlackAbs) {
      NNCELL_METRIC_COUNT(m_pruned_, order.size() - oi);
      // Every unprobed shard's points are at least its slab distance away,
      // and later slabs are no closer than this one.
      cert.bound = std::min(cert.bound, std::sqrt(pr.slab_d2));
      break;
    }
    const Shard& sh = shards_[pr.idx];
    StatusOr<NNCellIndex::QueryResult> r = sh.index->Query(q, approx);
    if (!r.ok()) return r.status();
    ++probed;
    // nncell-lint: allow(relaxed-atomics) monotonic stats counter; readers only ever see a point-in-time sum, no ordering with shard state
    probe_counts_[pr.idx]->fetch_add(1, std::memory_order_relaxed);
    candidates += r->candidates;
    fallback = fallback || r->used_fallback;
    MergeCertificate(r->approx, &cert);
    // Exact merge key: the pair-kernel squared distance (bit-equal to the
    // shard's internal winner) plus the global id, exactly the unsharded
    // scan's comparison.
    const double d2 =
        L2DistSq(sh.index->points()[r->id], plan.qm.data(), manifest_.dim);
    const uint64_t gid = sh.local_to_global[r->id];
    if (!have_best || d2 < best_d2 || (d2 == best_d2 && gid < best_gid)) {
      have_best = true;
      best = std::move(*r);
      best.id = gid;
      best_d2 = d2;
      best_gid = gid;
    }
  }
  NNCELL_CHECK(have_best);
  best.candidates = candidates;
  best.used_fallback = fallback;
  if (approx.enabled()) best.approx = cert;
  NNCELL_METRIC_RECORD(m_fanout_, probed);
  NNCELL_METRIC_COUNT(m_probes_, probed);
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

StatusOr<std::vector<NNCellIndex::QueryResult>> ShardedIndex::MergeListQuery(
    const double* q, size_t k, double radius, bool is_range,
    const ApproxOptions& approx) const {
  const ProbePlan plan = PlanProbes(q);
  if (plan.live == 0) return Status::FailedPrecondition("index is empty");
  if (is_range && radius < 0.0) {
    return Status::InvalidArgument("negative radius");
  }
  if (is_range && !std::isfinite(radius)) {
    return Status::InvalidArgument("non-finite radius");
  }
  NNCELL_RETURN_IF_ERROR(CheckFinite(q, manifest_.dim));
  std::vector<NNCellIndex::QueryResult> out;
  if (!is_range) {
    if (k == 0) return out;
    k = std::min(k, plan.live);
  }
  const std::vector<Probe>& order = plan.order;

  // Merged candidates keyed exactly like the unsharded sort: (squared
  // distance, global id) ascending.
  struct Merged {
    double d2;
    uint64_t gid;
    NNCellIndex::QueryResult res;
  };
  std::vector<Merged> merged;
  const double radius_bound =
      is_range ? radius * radius * kPruneSlack + kPruneSlackAbs : 0.0;
  size_t probed = 0;
  ApproxCertificate cert;
  cert.bound = std::numeric_limits<double>::infinity();
  for (size_t oi = 0; oi < order.size(); ++oi) {
    const Probe& pr = order[oi];
    bool skip;
    if (is_range) {
      skip = pr.slab_d2 > radius_bound;
    } else {
      skip = merged.size() >= k &&
             pr.slab_d2 >
                 merged[k - 1].d2 * kPruneSlack + kPruneSlackAbs;
    }
    if (skip) {
      NNCELL_METRIC_COUNT(m_pruned_, order.size() - oi);
      // Every unprobed shard's points are at least its slab distance away,
      // and later slabs are no closer than this one.
      cert.bound = std::min(cert.bound, std::sqrt(pr.slab_d2));
      break;
    }
    const Shard& sh = shards_[pr.idx];
    StatusOr<std::vector<NNCellIndex::QueryResult>> r =
        is_range ? sh.index->RangeSearch(q, radius)
                 : sh.index->KnnQuery(q, k, approx);
    if (!r.ok()) return r.status();
    ++probed;
    if (!r->empty()) MergeCertificate(r->front().approx, &cert);
    // nncell-lint: allow(relaxed-atomics) monotonic stats counter; readers only ever see a point-in-time sum, no ordering with shard state
    probe_counts_[pr.idx]->fetch_add(1, std::memory_order_relaxed);
    for (NNCellIndex::QueryResult& res : *r) {
      Merged m;
      m.d2 = L2DistSq(sh.index->points()[res.id], plan.qm.data(),
                      manifest_.dim);
      m.gid = sh.local_to_global[res.id];
      res.id = m.gid;
      m.res = std::move(res);
      merged.push_back(std::move(m));
    }
    std::sort(merged.begin(), merged.end(),
              [](const Merged& a, const Merged& b) {
                return a.d2 < b.d2 || (a.d2 == b.d2 && a.gid < b.gid);
              });
    if (!is_range && merged.size() > k) merged.resize(k);
  }
  NNCELL_METRIC_RECORD(m_fanout_, probed);
  NNCELL_METRIC_COUNT(m_probes_, probed);
  out.reserve(merged.size());
  for (Merged& m : merged) out.push_back(std::move(m.res));
  if (approx.enabled()) {
    for (NNCellIndex::QueryResult& res : out) res.approx = cert;
  }
  return out;
}

StatusOr<std::vector<NNCellIndex::QueryResult>> ShardedIndex::KnnQuery(
    const double* q, size_t k, const ApproxOptions& approx) const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  return MergeListQuery(q, k, 0.0, /*is_range=*/false, approx);
}

StatusOr<std::vector<NNCellIndex::QueryResult>> ShardedIndex::RangeSearch(
    const double* q, double radius) const {
  std::shared_lock<std::shared_mutex> lock(epoch_mu_);
  return MergeListQuery(q, 0, radius, /*is_range=*/true, ApproxOptions{});
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

Status ShardedIndex::BulkBuild(const PointSet& pts) {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  if (pts.dim() != manifest_.dim) {
    return Status::InvalidArgument("dimension mismatch");
  }
  for (size_t i = 0; i < pts.size(); ++i) {
    NNCELL_RETURN_IF_ERROR(CheckFinite(pts[i], manifest_.dim));
  }
  if (!router_.empty()) {
    return Status::FailedPrecondition(
        "sharded BulkBuild requires an empty index");
  }
  if (degraded_count_ > 0) {
    return Status::FailedPrecondition("index has degraded shards");
  }

  // Deduplicate exactly like the unsharded build (duplicates are skipped,
  // first occurrence wins), so global ids match the oracle's.
  std::map<std::vector<double>, bool> seen;
  std::vector<size_t> unique;
  unique.reserve(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    auto ins = seen.emplace(pts.Get(i), true);
    if (ins.second) unique.push_back(i);
  }

  const size_t k = manifest_.shard_count;
  if (!unique.empty()) {
    // Quantile-balanced cuts over the metric route coordinates.
    std::vector<double> coords;
    coords.reserve(unique.size());
    for (size_t i : unique) coords.push_back(RouteCoord(pts[i]));
    std::sort(coords.begin(), coords.end());
    manifest_.cuts.clear();
    for (size_t j = 1; j < k; ++j) {
      manifest_.cuts.push_back(coords[j * coords.size() / k]);
    }
    // The manifest must describe the data before any shard holds it: a
    // crash after shard builds but before a manifest write would leave
    // points routed by cuts the manifest does not record.
    if (durable()) {
      NNCELL_RETURN_IF_ERROR(shard::WriteManifest(
          shard::JoinPath(dir_, shard::kShardManifestFileName), manifest_));
    }
  }

  std::vector<PointSet> parts(k, PointSet(manifest_.dim));
  std::vector<std::vector<uint64_t>> gids(k);
  uint64_t gid = 0;
  for (size_t i : unique) {
    const size_t s = manifest_.Route(RouteCoord(pts[i]));
    parts[s].Add(pts[i]);
    gids[s].push_back(gid++);
  }

  std::vector<Status> errors(k, Status::OK());
  auto build_one = [&](size_t s) {
    if (parts[s].size() == 0) return;
    errors[s] = shards_[s].index->BulkBuild(parts[s]);
  };
  if (thread_pool_ != nullptr && k > 1) {
    thread_pool_->ParallelFor(0, k, build_one);
  } else {
    for (size_t s = 0; s < k; ++s) build_one(s);
  }
  for (const Status& st : errors) {
    if (!st.ok()) return st;
  }

  router_.assign(gid, shard::RouterEntry());
  for (size_t s = 0; s < k; ++s) {
    shards_[s].local_to_global = gids[s];
    for (size_t l = 0; l < gids[s].size(); ++l) {
      router_[gids[s][l]] = {static_cast<uint32_t>(s), l, /*alive=*/true};
    }
  }
  if (durable()) {
    const uint64_t lsn = router_wal_->last_lsn();
    NNCELL_RETURN_IF_ERROR(WriteRouterStateLocked(
        shard::JoinPath(dir_, shard::kRouterSnapshotFileName), lsn));
    NNCELL_RETURN_IF_ERROR(router_wal_->Truncate(lsn));
  }
  return Status::OK();
}

Status ShardedIndex::Checkpoint() {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  return CheckpointLocked();
}

Status ShardedIndex::CheckpointLocked() {
  if (!durable()) {
    return Status::FailedPrecondition(
        "Checkpoint() requires a durable index (use ShardedIndex::Open)");
  }
  const size_t k = shards_.size();
  std::vector<Status> errors(k, Status::OK());
  auto ckpt_one = [&](size_t s) {
    if (shards_[s].index == nullptr || !shards_[s].index->durable()) return;
    errors[s] = shards_[s].index->Checkpoint();
  };
  if (thread_pool_ != nullptr && k > 1) {
    thread_pool_->ParallelFor(0, k, ckpt_one);
  } else {
    for (size_t s = 0; s < k; ++s) ckpt_one(s);
  }
  for (const Status& st : errors) {
    if (!st.ok()) return st;
  }
  const uint64_t lsn = router_wal_->last_lsn();
  NNCELL_RETURN_IF_ERROR(WriteRouterStateLocked(
      shard::JoinPath(dir_, shard::kRouterSnapshotFileName), lsn));
  return router_wal_->Truncate(lsn);
}

Status ShardedIndex::WriteRouterStateLocked(const std::string& path,
                                            uint64_t covered_lsn) const {
  shard::RouterSnapshot snap;
  snap.covered_lsn = covered_lsn;
  snap.entries = router_;
  return shard::WriteRouterSnapshot(path, snap);
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
  if (sopts_.target_points_per_shard > 0) {
    const size_t want = std::max<size_t>(
        1, std::min<size_t>((live + sopts_.target_points_per_shard - 1) /
                                sopts_.target_points_per_shard,
                            shard::kMaxShards));
    if (want != shards_.size()) return true;
  }
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

  size_t new_k = manifest_.shard_count;
  if (sopts_.target_points_per_shard > 0) {
    new_k = std::max<size_t>(
        1, std::min<size_t>((live_gids.size() +
                             sopts_.target_points_per_shard - 1) /
                                sopts_.target_points_per_shard,
                            shard::kMaxShards));
  }
  std::vector<double> coords;
  coords.reserve(live_gids.size());
  for (size_t i = 0; i < live_pts.size(); ++i) {
    coords.push_back(RouteCoord(live_pts[i]));
  }
  std::sort(coords.begin(), coords.end());
  shard::ShardManifest next = manifest_;
  next.shard_count = static_cast<uint32_t>(new_k);
  next.epoch = manifest_.epoch + 1;
  next.cuts.clear();
  for (size_t j = 1; j < new_k; ++j) {
    next.cuts.push_back(coords[j * coords.size() / new_k]);
  }

  // Partition by the new cuts.
  std::vector<PointSet> parts(new_k, PointSet(manifest_.dim));
  std::vector<std::vector<uint64_t>> gids(new_k);
  for (size_t i = 0; i < live_pts.size(); ++i) {
    const size_t s = next.Route(RouteCoord(live_pts[i]));
    parts[s].Add(live_pts[i]);
    gids[s].push_back(live_gids[i]);
  }

  NNCELL_RETURN_IF_ERROR(CheckSite("shard.rebalance.stage"));

  std::vector<Shard> next_shards(new_k);
  std::vector<Status> errors(new_k, Status::OK());
  uint64_t covered_lsn = 0;
  if (durable()) {
    NNCELL_RETURN_IF_ERROR(shard::DiscardStagingIfPresent(dir_, nullptr));
    const std::string staging =
        shard::JoinPath(dir_, shard::kRebalanceStagingDirName);
    NNCELL_RETURN_IF_ERROR(fs::EnsureDirectory(staging));
    auto build_one = [&](size_t s) {
      NNCellIndex::RecoveryInfo ri;
      StatusOr<std::unique_ptr<NNCellIndex>> idx = NNCellIndex::Open(
          shard::JoinPath(staging, shard::ShardDirName(s)), manifest_.dim,
          options_, dopts_, &ri);
      if (!idx.ok()) {
        errors[s] = idx.status();
        return;
      }
      if (parts[s].size() > 0) {
        errors[s] = (*idx)->BulkBuild(parts[s]);
      }
      // Close the staged shard before the directory is renamed under it.
      idx->reset();
    };
    if (thread_pool_ != nullptr && new_k > 1) {
      thread_pool_->ParallelFor(0, new_k, build_one);
    } else {
      for (size_t s = 0; s < new_k; ++s) build_one(s);
    }
    for (const Status& st : errors) {
      if (!st.ok()) return st;
    }
    NNCELL_RETURN_IF_ERROR(router_wal_->Sync());
    covered_lsn = router_wal_->last_lsn();
    // Staged router snapshot with the *new* mapping.
    shard::RouterSnapshot snap;
    snap.covered_lsn = covered_lsn;
    snap.entries.assign(router_.size(), shard::RouterEntry());
    for (uint64_t g = 0; g < router_.size(); ++g) {
      snap.entries[g] = {shard::kRouterShardNone, 0, false};
    }
    for (size_t s = 0; s < new_k; ++s) {
      for (size_t l = 0; l < gids[s].size(); ++l) {
        snap.entries[gids[s][l]] = {static_cast<uint32_t>(s), l, true};
      }
    }
    NNCELL_RETURN_IF_ERROR(shard::WriteRouterSnapshot(
        shard::JoinPath(staging, shard::kRouterSnapshotFileName), snap));
    NNCELL_RETURN_IF_ERROR(shard::WriteManifest(
        shard::JoinPath(staging, shard::kShardManifestFileName), next));

    // Commit + finalize: one atomic rename makes the new epoch durable.
    NNCELL_RETURN_IF_ERROR(shard::CommitStagedInstall(dir_));
    NNCELL_RETURN_IF_ERROR(shard::FinalizeInstallIfPresent(dir_, nullptr));

    // Reopen the installed shards and the recreated router log.
    manifest_ = next;
    for (size_t s = 0; s < new_k; ++s) {
      NNCellIndex::RecoveryInfo ri;
      Status st = OpenDurableShard(s, &next_shards[s], &ri);
      if (!st.ok()) {
        return Status::Internal("rebalance: reopening installed shard " +
                                std::to_string(s) + ": " + st.message());
      }
    }
    router_wal_.reset();
    WriteAheadLog::RecoverResult rr;
    StatusOr<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(
        shard::JoinPath(dir_, shard::kRouterLogFileName), covered_lsn,
        /*group_sync=*/1, /*strict_header=*/false, &rr);
    if (!wal.ok()) return wal.status();
    router_wal_ = std::move(*wal);
  } else {
    auto build_one = [&](size_t s) {
      Status st = MakeMemoryShard(&next_shards[s]);
      if (!st.ok()) {
        errors[s] = st;
        return;
      }
      if (parts[s].size() > 0) {
        errors[s] = next_shards[s].index->BulkBuild(parts[s]);
      }
    };
    if (thread_pool_ != nullptr && new_k > 1) {
      thread_pool_->ParallelFor(0, new_k, build_one);
    } else {
      for (size_t s = 0; s < new_k; ++s) build_one(s);
    }
    for (const Status& st : errors) {
      if (!st.ok()) return st;
    }
    manifest_ = next;
  }

  // Install the new epoch in memory.
  for (uint64_t g = 0; g < router_.size(); ++g) {
    router_[g] = {shard::kRouterShardNone, 0, false};
  }
  for (size_t s = 0; s < new_k; ++s) {
    next_shards[s].local_to_global = gids[s];
    for (size_t l = 0; l < gids[s].size(); ++l) {
      router_[gids[s][l]] = {static_cast<uint32_t>(s), l, true};
    }
  }
  shards_ = std::move(next_shards);
  probe_counts_.resize(new_k);
  for (auto& p : probe_counts_) {
    p = std::make_unique<std::atomic<uint64_t>>(0);
  }
  NNCELL_METRIC_COUNT(m_rebalances_, 1);
  NNCELL_METRIC_COUNT(m_moved_, live_gids.size());
  if (metrics::Registry::Enabled()) {
    m_count_->Set(static_cast<int64_t>(new_k));
    m_epoch_->Set(static_cast<int64_t>(manifest_.epoch));
  }
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
      for (double& v : q) v = UnitUniform(&rng);
      std::vector<double> qm = q;
      if (!options_.weights.empty()) {
        for (size_t i = 0; i < qm.size(); ++i) {
          qm[i] *= std::sqrt(options_.weights[i]);
        }
      }
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
  const size_t resolved =
      num_threads == 0 ? ThreadPool::DefaultThreads() : num_threads;
  if (resolved <= 1) {
    thread_pool_.reset();
  } else if (thread_pool_ == nullptr ||
             thread_pool_->num_threads() != resolved) {
    thread_pool_ = std::make_unique<ThreadPool>(resolved);
  }
}

size_t ShardedIndex::num_threads() const {
  return thread_pool_ == nullptr ? 1 : thread_pool_->num_threads();
}

}  // namespace nncell
