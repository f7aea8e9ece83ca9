#include "nncell/nncell_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "common/distance.h"
#include "common/kernels/kernels.h"
#include "common/metrics.h"
#include "common/metrics_names.h"
#include "common/rng.h"
#include "rstar/rstar_tree.h"
#include "storage/wal.h"
#include "xtree/xtree.h"

namespace nncell {

namespace {

constexpr uint64_t kInvalidId = std::numeric_limits<uint64_t>::max();

// out[j] = L2DistSq(points[ids[j]], q) through the batched gather kernel,
// four owners per call; bit-equal to the per-pair kernel.
void BatchOwnerDistSq(const PointSet& points, const uint64_t* ids, size_t n,
                      const double* q, size_t dim, double* out) {
  const double* ptrs[4];
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    for (size_t t = 0; t < 4; ++t) ptrs[t] = points[ids[j + t]];
    kernels::L2DistSqBatch4(q, ptrs, dim, out + j);
  }
  for (; j < n; ++j) out[j] = L2DistSq(points[ids[j]], q, dim);
}

// Registry handles for the query pipeline (resolved once per process).
struct QueryMetrics {
  metrics::Counter* count;
  metrics::Counter* candidates;
  metrics::Counter* distance_computations;
  metrics::Counter* fallbacks;
  metrics::Histogram* candidates_per_query;
  metrics::Counter* plan_cell_probe;
  metrics::Counter* plan_scan;
};

[[maybe_unused]] const QueryMetrics& Metrics() {
  static const QueryMetrics m = {
      metrics::Registry::Global().counter(metrics::kQueryCount),
      metrics::Registry::Global().counter(metrics::kQueryCandidates),
      metrics::Registry::Global().counter(metrics::kQueryDistanceComputations),
      metrics::Registry::Global().counter(metrics::kQueryFallbacks),
      metrics::Registry::Global().histogram(metrics::kQueryCandidatesPerQuery),
      metrics::Registry::Global().counter(metrics::kQueryPlanCellProbe),
      metrics::Registry::Global().counter(metrics::kQueryPlanScan),
  };
  return m;
}

// One exact query (any kind) answered by `plan`'s executor.
void CountPlan([[maybe_unused]] ExactPlan plan) {
  NNCELL_METRIC_COUNT(plan == ExactPlan::kScan ? Metrics().plan_scan
                                               : Metrics().plan_cell_probe,
                      1);
}

// Registry handles for the approximate query tier.
struct ApproxQueryMetrics {
  metrics::Counter* count;
  metrics::Counter* terminated_early;
  metrics::Counter* truncated;
  metrics::Counter* leaf_visits;
  metrics::Histogram* leaf_visits_per_query;
};

[[maybe_unused]] const ApproxQueryMetrics& ApproxMetrics() {
  static const ApproxQueryMetrics m = {
      metrics::Registry::Global().counter(metrics::kApproxQueryCount),
      metrics::Registry::Global().counter(metrics::kApproxTerminatedEarly),
      metrics::Registry::Global().counter(metrics::kApproxTruncated),
      metrics::Registry::Global().counter(metrics::kApproxLeafVisits),
      metrics::Registry::Global().histogram(
          metrics::kApproxLeafVisitsPerQuery),
  };
  return m;
}

// Registry handles for dynamic maintenance.
struct MaintenanceMetrics {
  metrics::Counter* cells_recomputed;
  metrics::Counter* cells_rewritten;
};

[[maybe_unused]] const MaintenanceMetrics& MaintMetrics() {
  static const MaintenanceMetrics m = {
      metrics::Registry::Global().counter(metrics::kIndexCellsRecomputed),
      metrics::Registry::Global().counter(metrics::kIndexCellsRewritten),
  };
  return m;
}

// Bit-for-bit equality of two cell approximations. HyperRect::operator==
// compares doubles, under which -0.0 == +0.0: keeping an old rectangle on
// that test would leave a different sign bit than rewriting it.
bool SameBits(const std::vector<HyperRect>& a,
              const std::vector<HyperRect>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t bytes = a[i].dim() * sizeof(double);
    if (a[i].dim() != b[i].dim() ||
        std::memcmp(a[i].lo().data(), b[i].lo().data(), bytes) != 0 ||
        std::memcmp(a[i].hi().data(), b[i].hi().data(), bytes) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

namespace {

// Data space under the sqrt(weight) isometry: [0, sqrt(w_i)] per dim.
HyperRect MetricSpaceBox(size_t dim, const std::vector<double>& weights) {
  HyperRect box = HyperRect::UnitCube(dim);
  if (!weights.empty()) {
    NNCELL_CHECK_MSG(weights.size() == dim, "weight vector dim mismatch");
    for (size_t i = 0; i < dim; ++i) {
      NNCELL_CHECK_MSG(weights[i] > 0.0, "metric weights must be positive");
      box.hi(i) = std::sqrt(weights[i]);
    }
  }
  return box;
}

}  // namespace

NNCellIndex::NNCellIndex(BufferPool* pool, size_t dim, NNCellOptions options)
    : dim_(dim),
      options_(options),
      space_(MetricSpaceBox(dim, options.weights)),
      points_(dim),
      approximator_(dim, space_, options.lp, options.approx) {
  TreeOptions tree_opts = options_.tree;
  tree_opts.dim = dim;
  // Leaf entries are (approximation rectangle, point id); like the paper,
  // the index stores only the approximations (2dN values) and owner
  // coordinates are resolved from the point table at query time.
  tree_opts.aux_per_entry = 0;
  if (options_.use_xtree) {
    tree_ = std::make_unique<XTree>(pool, tree_opts);
  } else {
    tree_ = std::make_unique<RStarTree>(pool, tree_opts);
  }

  // Build-time point index on private storage so that its page traffic
  // never pollutes the query-time statistics of the cell index.
  point_file_ = std::make_unique<PageFile>(pool->page_size());
  point_pool_ = std::make_unique<BufferPool>(point_file_.get(), 4096);
  TreeOptions point_opts;
  point_opts.dim = dim;
  point_tree_ = std::make_unique<XTree>(point_pool_.get(), point_opts);

  SetNumThreads(options_.parallel.num_threads);
  UpdatePlan();
}

void NNCellIndex::SetNumThreads(size_t num_threads) {
  options_.parallel.num_threads = num_threads;
  size_t resolved = options_.parallel.Resolve();
  if (resolved <= 1) {
    thread_pool_.reset();
  } else if (thread_pool_ == nullptr ||
             thread_pool_->num_threads() != resolved) {
    thread_pool_ = std::make_unique<ThreadPool>(resolved);
  }
}

NNCellIndex::~NNCellIndex() = default;

double NNCellIndex::SphereRadius() const {
  if (options_.sphere_radius > 0.0) return options_.sphere_radius;
  return DefaultSphereRadius(std::max<size_t>(live_count_, 1), dim_);
}

std::vector<const double*> NNCellIndex::SelectCandidates(const double* point,
                                                         uint64_t self) const {
  std::vector<const double*> candidates;
  switch (options_.algorithm) {
    case ApproxAlgorithm::kCorrect: {
      candidates.reserve(live_count_);
      for (size_t j = 0; j < points_.size(); ++j) {
        if (j != self && alive_[j]) candidates.push_back(points_[j]);
      }
      break;
    }
    case ApproxAlgorithm::kPoint: {
      // "All points of which the rectangle in the index contains the
      // point": every point stored on a leaf page of the point index whose
      // page region contains `point`.
      for (uint64_t id : point_tree_->LeafPageQuery(point)) {
        if (id != self) candidates.push_back(points_[id]);
      }
      break;
    }
    case ApproxAlgorithm::kSphere: {
      // "All points of which the rectangle in the index intersects the
      // sphere" around `point` with the heuristic radius. Optionally the
      // page-granular result is filtered to the points actually inside
      // the sphere, which caps the LP constraint count at the expected
      // ~2^d near neighbors instead of everything sharing a page region.
      double r = SphereRadius();
      const double r_sq = r * r;
      for (uint64_t id : point_tree_->LeafPageSphereQuery(point, r)) {
        if (id == self) continue;
        if (options_.sphere_point_filter &&
            L2DistSq(points_[id], point, dim_) > r_sq) {
          continue;
        }
        candidates.push_back(points_[id]);
      }
      break;
    }
    case ApproxAlgorithm::kNNDirection: {
      // Directional nearest neighbors; a scan with the same semantics as
      // the paper's 4d index queries.
      // The selector needs the probe point inside the set; when the point
      // is new we scan manually.
      const size_t d = dim_;
      constexpr size_t kNone = std::numeric_limits<size_t>::max();
      std::vector<size_t> nn_idx(2 * d, kNone), ax_idx(2 * d, kNone);
      std::vector<double> nn_best(2 * d,
                                  std::numeric_limits<double>::infinity());
      std::vector<double> ax_best(2 * d, -1.0);
      for (size_t j = 0; j < points_.size(); ++j) {
        if (j == self || !alive_[j]) continue;
        const double* p = points_[j];
        double dist2 = L2DistSq(p, point, d);
        if (dist2 == 0.0) continue;
        double inv_norm = 1.0 / std::sqrt(dist2);
        for (size_t i = 0; i < d; ++i) {
          double comp = p[i] - point[i];
          for (int sign = 0; sign < 2; ++sign) {
            double along = sign ? -comp : comp;
            if (along <= 0.0) continue;
            size_t slot = 2 * i + sign;
            if (dist2 < nn_best[slot]) {
              nn_best[slot] = dist2;
              nn_idx[slot] = j;
            }
            double cosine = along * inv_norm;
            if (cosine > ax_best[slot]) {
              ax_best[slot] = cosine;
              ax_idx[slot] = j;
            }
          }
        }
      }
      std::vector<size_t> ids;
      for (size_t s = 0; s < 2 * d; ++s) {
        if (nn_idx[s] != kNone) ids.push_back(nn_idx[s]);
        if (ax_idx[s] != kNone) ids.push_back(ax_idx[s]);
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      for (size_t id : ids) candidates.push_back(points_[id]);
      break;
    }
  }
  return candidates;
}

std::vector<HyperRect> NNCellIndex::ComputeCellRects(const double* owner,
                                                     uint64_t self,
                                                     ApproxStats* stats) const {
  std::vector<const double*> candidates = SelectCandidates(owner, self);
  HyperRect full = approximator_.ApproximateMbr(owner, candidates, stats);
  if (options_.decomposition.max_partitions <= 1) {
    return {full};
  }
  return DecomposeCell(approximator_, owner, candidates, full,
                       options_.decomposition, stats);
}

std::vector<double> NNCellIndex::ToMetricSpace(const double* x) const {
  std::vector<double> y(x, x + dim_);
  if (!options_.weights.empty()) {
    for (size_t i = 0; i < dim_; ++i) y[i] *= std::sqrt(options_.weights[i]);
  }
  return y;
}

std::vector<double> NNCellIndex::FromMetricSpace(
    const std::vector<double>& x) const {
  std::vector<double> y = x;
  if (!options_.weights.empty()) {
    for (size_t i = 0; i < dim_; ++i) y[i] /= std::sqrt(options_.weights[i]);
  }
  return y;
}

std::vector<double> NNCellIndex::OriginalPoint(uint64_t id) const {
  NNCELL_CHECK(id < points_.size());
  const double* p = points_[id];
  return FromMetricSpace(std::vector<double>(p, p + dim_));
}

StatusOr<uint64_t> NNCellIndex::RegisterPoint(
    const std::vector<double>& original, bool insert_into_point_tree) {
  if (original.size() != dim_) {
    return Status::InvalidArgument("dimension mismatch");
  }
  std::vector<double> point = ToMetricSpace(original.data());
  if (!space_.ContainsPoint(point)) {
    return Status::OutOfRange("point outside the data space [0,1]^d");
  }
  auto [it, inserted] = point_lookup_.emplace(point, points_.size());
  if (!inserted) {
    return Status::AlreadyExists("exact duplicate point");
  }
  uint64_t id = points_.Add(point);
  cell_rects_.emplace_back();
  alive_.push_back(true);
  ++live_count_;
  if (insert_into_point_tree) {
    point_tree_->Insert(HyperRect::FromPoint(point), id);
  }
  return id;
}

const char* ExactPlanName(ExactPlan plan) {
  switch (plan) {
    case ExactPlan::kAuto:
      return "auto";
    case ExactPlan::kCellProbe:
      return "cell_probe";
    case ExactPlan::kScan:
      return "scan";
  }
  return "?";
}

void NNCellIndex::SetExactPlan(ExactPlan plan) {
  forced_plan_ = plan;
  UpdatePlan();
}

void NNCellIndex::UpdatePlan() {
  if (forced_plan_ != ExactPlan::kAuto) {
    plan_ = forced_plan_;
    return;
  }
  plan_ = ExpectedCandidates() * kScanCoverage >=
                  static_cast<double>(live_count_)
              ? ExactPlan::kScan
              : ExactPlan::kCellProbe;
}

StatusOr<uint64_t> NNCellIndex::Insert(const std::vector<double>& original) {
  if (original.size() != dim_) {
    return Status::InvalidArgument("dimension mismatch");
  }
  // Durable mode: validate the operation, then log it before any mutation
  // (write-ahead). A record is only ever appended for an insert that will
  // succeed, so replay never hits a rejection.
  if (wal_ != nullptr) {
    NNCELL_RETURN_IF_ERROR(LogInsert(original));
  }
  StatusOr<uint64_t> id = ApplyInsert(original);
  if (id.ok()) UpdatePlan();
  return id;
}

StatusOr<uint64_t> NNCellIndex::ApplyInsert(
    const std::vector<double>& original) {
  std::vector<double> point = ToMetricSpace(original.data());
  // 1. Find the cells the new point will shrink. Stale approximations
  // remain correct supersets of the shrunk cells, so maintenance is a
  // quality (overlap) concern, not a correctness one.
  std::vector<uint64_t> affected;
  if (options_.maintenance == MaintenanceMode::kExact) {
    for (uint64_t id = 0; id < points_.size(); ++id) {
      if (alive_[id] && CellAffectedBy(id, point.data())) {
        affected.push_back(id);
      }
    }
  } else if (options_.maintenance == MaintenanceMode::kSphere) {
    double r = SphereRadius();
    for (uint64_t id = 0; id < points_.size(); ++id) {
      if (!alive_[id]) continue;
      for (const HyperRect& rect : cell_rects_[id]) {
        if (rect.MinDistSq(point.data()) <= r * r) {
          affected.push_back(id);
          break;
        }
      }
    }
  }

  // 2. Register the point and insert its cell approximation.
  StatusOr<uint64_t> id_or = RegisterPoint(original, true);
  if (!id_or.ok()) return id_or;
  uint64_t id = *id_or;
  std::vector<HyperRect> rects =
      ComputeCellRects(points_[id], id, &build_stats_.approx);
  for (const HyperRect& rect : rects) {
    tree_->Insert(rect, id, points_[id]);
    ++build_stats_.entries_inserted;
  }
  cell_rects_[id] = std::move(rects);

  // 3. Maintenance: shrink the affected approximations.
  for (uint64_t aff : affected) RecomputeCell(aff);
  return id;
}

Status NNCellIndex::Delete(uint64_t id) {
  if (!IsAlive(id)) return Status::NotFound("no live point with this id");
  if (wal_ != nullptr) {
    NNCELL_RETURN_IF_ERROR(LogDelete(id));
  }
  NNCELL_RETURN_IF_ERROR(ApplyDelete(id));
  UpdatePlan();
  return Status::OK();
}

Status NNCellIndex::ApplyDelete(uint64_t id) {
  if (!IsAlive(id)) return Status::NotFound("no live point with this id");
  // Cells adjacent to the deleted cell may grow into the freed region,
  // which is contained in the deleted cell and hence in its MBR union:
  // recompute every live cell whose approximation intersects it.
  std::vector<uint64_t> affected;
  for (uint64_t other = 0; other < points_.size(); ++other) {
    if (other == id || !alive_[other]) continue;
    bool touches = false;
    for (const HyperRect& mine : cell_rects_[id]) {
      for (const HyperRect& theirs : cell_rects_[other]) {
        if (mine.Intersects(theirs)) {
          touches = true;
          break;
        }
      }
      if (touches) break;
    }
    if (touches) affected.push_back(other);
  }

  // Remove the point and its approximations from both indexes.
  for (const HyperRect& rect : cell_rects_[id]) {
    bool removed = tree_->Delete(rect, id);
    NNCELL_CHECK_MSG(removed, "indexed cell rectangle missing");
  }
  cell_rects_[id].clear();
  bool removed =
      point_tree_->Delete(HyperRect::FromPoint(points_[id], dim_), id);
  NNCELL_CHECK_MSG(removed, "point tree entry missing");
  point_lookup_.erase(points_.Get(id));
  alive_[id] = false;
  --live_count_;
  ++build_stats_.deletions;

  for (uint64_t aff : affected) RecomputeCell(aff);
  return Status::OK();
}

Status NNCellIndex::BulkBuild(const PointSet& pts) {
  if (pts.dim() != dim_) return Status::InvalidArgument("dimension mismatch");
  const bool fresh = points_.empty();
  // Phase 1: register everything (points visible to candidate selection).
  // On a fresh index the point tree is bulk-loaded afterwards instead of
  // grown insert-by-insert.
  std::vector<uint64_t> ids;
  ids.reserve(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    StatusOr<uint64_t> id = RegisterPoint(pts.Get(i), !fresh);
    if (id.ok()) {
      ids.push_back(*id);
    } else if (id.status().code() != StatusCode::kAlreadyExists) {
      return id.status();
    }
  }
  if (fresh) {
    std::vector<Entry> point_entries;
    point_entries.reserve(ids.size());
    for (uint64_t id : ids) {
      Entry e;
      e.rect = HyperRect::FromPoint(points_[id], dim_);
      e.id = id;
      point_entries.push_back(std::move(e));
    }
    point_tree_->BulkLoad(std::move(point_entries));
  }

  // Phase 2: one approximation per cell against the full point set. The
  // cell rectangles go through the tree's regular insert path: for fat,
  // heavily overlapping rectangles the R*/X split machinery groups by
  // rectangle similarity, which beats center-based STR packing here.
  //
  // The approximations only read state that is frozen after phase 1 (the
  // point table and the point tree), so the 2d LP solves per cell fan out
  // across the thread pool; the point tree's buffer pool serves the
  // workers as concurrent readers. Results are committed to the cell tree
  // on this thread in ascending point order, so the on-disk index is
  // byte-identical to a serial build regardless of the thread count.
  if (thread_pool_ != nullptr && ids.size() > 1) {
    std::vector<std::vector<HyperRect>> computed(ids.size());
    std::vector<ApproxStats> worker_stats(ids.size());
    thread_pool_->ParallelFor(0, ids.size(), [&](size_t i) {
      computed[i] =
          ComputeCellRects(points_[ids[i]], ids[i], &worker_stats[i]);
    });
    for (const ApproxStats& s : worker_stats) {
      build_stats_.approx.lp_runs += s.lp_runs;
      build_stats_.approx.lp_iterations += s.lp_iterations;
      build_stats_.approx.lp_failures += s.lp_failures;
      build_stats_.approx.constraint_rows += s.constraint_rows;
      build_stats_.approx.pruned_rows += s.pruned_rows;
      build_stats_.approx.skipped_faces += s.skipped_faces;
      build_stats_.approx.warm_faces += s.warm_faces;
      build_stats_.approx.cold_faces += s.cold_faces;
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      const uint64_t id = ids[i];
      for (const HyperRect& rect : computed[i]) {
        tree_->Insert(rect, id, points_[id]);
        ++build_stats_.entries_inserted;
      }
      cell_rects_[id] = std::move(computed[i]);
    }
  } else {
    for (uint64_t id : ids) {
      std::vector<HyperRect> rects =
          ComputeCellRects(points_[id], id, &build_stats_.approx);
      for (const HyperRect& rect : rects) {
        tree_->Insert(rect, id, points_[id]);
        ++build_stats_.entries_inserted;
      }
      cell_rects_[id] = std::move(rects);
    }
  }
  UpdatePlan();
  // Durable mode: the bulk load becomes durable via one checkpoint instead
  // of one WAL record per point.
  if (wal_ != nullptr) return Checkpoint();
  return Status::OK();
}

bool NNCellIndex::CellAffectedBy(uint64_t id, const double* p) const {
  // The cell of `id` shrinks iff part of its (approximated) region is
  // closer to p than to its owner. For an MBR B this holds iff
  // min_{x in B} (|x-p|^2 - |x-owner|^2) < 0; the objective is linear in x
  // so the minimum is at a corner, separable per dimension.
  const double* owner = points_[id];
  for (const HyperRect& rect : cell_rects_[id]) {
    double min_val = 0.0;
    for (size_t k = 0; k < dim_; ++k) {
      // f(x) = sum_k [ (x_k - p_k)^2 - (x_k - o_k)^2 ]
      //      = sum_k [ 2 x_k (o_k - p_k) + p_k^2 - o_k^2 ]
      double a = 2.0 * (owner[k] - p[k]);
      double c = p[k] * p[k] - owner[k] * owner[k];
      min_val += std::min(a * rect.lo(k), a * rect.hi(k)) + c;
    }
    if (min_val < 0.0) return true;
  }
  return false;
}

void NNCellIndex::RecomputeCell(uint64_t id) {
  std::vector<HyperRect> rects =
      ComputeCellRects(points_[id], id, &build_stats_.approx);
  ++build_stats_.cells_recomputed;
  NNCELL_METRIC_COUNT(MaintMetrics().cells_recomputed, 1);
  // Most recomputed cells come out unchanged (only the new or deleted
  // point's Voronoi neighbors really move); leave their tree entries be.
  if (SameBits(rects, cell_rects_[id])) return;
  for (const HyperRect& rect : cell_rects_[id]) {
    bool removed = tree_->Delete(rect, id);
    NNCELL_CHECK_MSG(removed, "indexed cell rectangle missing");
  }
  ++build_stats_.cells_rewritten;
  NNCELL_METRIC_COUNT(MaintMetrics().cells_rewritten, 1);
  for (const HyperRect& rect : rects) {
    tree_->Insert(rect, id, points_[id]);
    ++build_stats_.entries_inserted;
  }
  cell_rects_[id] = std::move(rects);
}

StatusOr<NNCellIndex::QueryResult> NNCellIndex::Query(
    const double* q_original, const ApproxOptions& approx) const {
  if (!approx.enabled()) return Query(q_original, nullptr);
  StatusOr<std::vector<QueryResult>> r =
      ApproxTraversalQuery(q_original, 1, approx);
  if (!r.ok()) return r.status();
  return std::move(r->front());
}

StatusOr<NNCellIndex::QueryResult> NNCellIndex::Query(
    const double* q_original, QueryTrace* trace) const {
  return ExactQuery(q_original, plan_, trace);
}

template <class Visit>
void NNCellIndex::ScanLive(const double* q, Visit visit) const {
  uint64_t id4[4];
  const double* ptr4[4];
  double d4[4];
  size_t fill = 0;
  for (uint64_t id = 0; id < points_.size(); ++id) {
    if (!alive_[id]) continue;
    id4[fill] = id;
    ptr4[fill] = points_[id];
    if (++fill == 4) {
      kernels::L2DistSqBatch4(q, ptr4, dim_, d4);
      for (size_t t = 0; t < 4; ++t) visit(id4[t], d4[t]);
      fill = 0;
    }
  }
  for (size_t t = 0; t < fill; ++t) {
    visit(id4[t], L2DistSq(ptr4[t], q, dim_));
  }
}

StatusOr<NNCellIndex::QueryResult> NNCellIndex::ExactQuery(
    const double* q_original, ExactPlan plan, QueryTrace* trace) const {
  if (live_count_ == 0) return Status::FailedPrecondition("index is empty");

  BufferStats pool_before;
  if (trace != nullptr) {
    trace->Clear();
    pool_before = tree_->pool()->stats();
  }

  std::vector<double> q_vec = ToMetricSpace(q_original);
  const double* q = q_vec.data();
  size_t candidates = 0;
  uint64_t distance_computations = 0;
  bool used_fallback = false;
  double best = std::numeric_limits<double>::infinity();
  uint64_t best_id = kInvalidId;
  auto keep_nearest = [&](uint64_t id, double d2) {
    if (d2 < best || (d2 == best && id < best_id)) {
      best = d2;
      best_id = id;
    }
  };

  if (plan == ExactPlan::kScan) {
    // The cell MBRs cannot prune: skip the probe and distance-check every
    // live point.
    TraceTimer scan_timer;
    ScanLive(q, keep_nearest);
    candidates = distance_computations = live_count_;
    if (trace != nullptr) {
      trace->stages.push_back(
          {"distance_scan", scan_timer.ElapsedMicros(), live_count_});
    }
  } else {
    // Stage 1: point query on the cell index (Lemma 2: the true NN's cell
    // approximation contains q, so its owner is among the matches).
    TraceTimer probe_timer;
    std::vector<uint64_t> owners = tree_->PointQuery(q);
    if (trace != nullptr) {
      trace->stages.push_back(
          {"index_probe", probe_timer.ElapsedMicros(), owners.size()});
    }
    candidates = distance_computations = owners.size();

    // Stage 2: exact distance checks on the candidate owners, four at a
    // time through the batched gather kernel.
    TraceTimer scan_timer;
    std::vector<double> d2s(owners.size());
    BatchOwnerDistSq(points_, owners.data(), owners.size(), q, dim_,
                     d2s.data());
    for (size_t i = 0; i < owners.size(); ++i) keep_nearest(owners[i], d2s[i]);
    if (trace != nullptr) {
      trace->stages.push_back(
          {"distance_scan", scan_timer.ElapsedMicros(), owners.size()});
    }

    if (best_id == kInvalidId) {
      // Numeric edge (query on a cell face lost to LP tolerance) or query
      // outside the data space: fall back to the scan executor. Lemma 2
      // makes this rare; the flag lets benchmarks count it.
      used_fallback = true;
      TraceTimer fallback_timer;
      ScanLive(q, keep_nearest);
      distance_computations += live_count_;
      if (trace != nullptr) {
        trace->stages.push_back(
            {"fallback_scan", fallback_timer.ElapsedMicros(), live_count_});
      }
    }
  }

  CountPlan(plan);
  NNCELL_METRIC_COUNT(Metrics().count, 1);
  NNCELL_METRIC_COUNT(Metrics().candidates, candidates);
  NNCELL_METRIC_COUNT(Metrics().distance_computations, distance_computations);
  NNCELL_METRIC_COUNT(Metrics().fallbacks, used_fallback ? 1 : 0);
  NNCELL_METRIC_RECORD(Metrics().candidates_per_query, candidates);

  if (trace != nullptr) {
    trace->candidates = candidates;
    trace->distance_computations = distance_computations;
    trace->used_fallback = used_fallback;
    BufferStats pool_after = tree_->pool()->stats();
    trace->logical_reads = pool_after.logical_reads - pool_before.logical_reads;
    trace->physical_reads =
        pool_after.physical_reads - pool_before.physical_reads;
  }

  QueryResult result = MakeResult(best_id, best, candidates);
  result.used_fallback = used_fallback;
  return result;
}

StatusOr<std::vector<NNCellIndex::QueryResult>> NNCellIndex::QueryBatch(
    const PointSet& queries, const ApproxOptions& approx) const {
  if (queries.dim() != dim_) {
    return Status::InvalidArgument("dimension mismatch");
  }
  if (live_count_ == 0) return Status::FailedPrecondition("index is empty");

  const size_t n = queries.size();
  std::vector<QueryResult> results(n);
  if (thread_pool_ == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      StatusOr<QueryResult> r = Query(queries[i], approx);
      if (!r.ok()) return r.status();
      results[i] = std::move(*r);
    }
    return results;
  }

  // N concurrent readers over the shared (sharded) buffer pool. Every
  // result lands in its own slot, so the batch output is deterministic
  // and identical to the serial loop above.
  std::vector<Status> errors(n, Status::OK());
  thread_pool_->ParallelFor(0, n, [&](size_t i) {
    StatusOr<QueryResult> r = Query(queries[i], approx);
    if (r.ok()) {
      results[i] = std::move(*r);
    } else {
      errors[i] = r.status();
    }
  });
  for (const Status& st : errors) {
    if (!st.ok()) return st;
  }
  return results;
}

NNCellIndex::QueryResult NNCellIndex::MakeResult(uint64_t id, double d2,
                                                 size_t candidates) const {
  QueryResult res;
  res.id = id;
  res.dist = std::sqrt(d2);
  const double* p = points_[id];
  res.point = FromMetricSpace(std::vector<double>(p, p + dim_));
  res.candidates = candidates;
  return res;
}

StatusOr<std::vector<NNCellIndex::QueryResult>> NNCellIndex::
    ApproxTraversalQuery(const double* q_original, size_t k,
                         const ApproxOptions& approx) const {
  if (live_count_ == 0) return Status::FailedPrecondition("index is empty");
  std::vector<QueryResult> results;
  if (k == 0) return results;
  k = std::min(k, live_count_);
  std::vector<double> q_vec = ToMetricSpace(q_original);

  // Certified / bounded best-first search over the point X-tree. The cell
  // index cannot drive this tier: a cell approximation's MINDIST does not
  // lower-bound its owner's distance (the true NN's cell contains q with
  // MINDIST 0), so the (1+epsilon) proof runs against the points
  // themselves. Entry MINDIST on a degenerate (point) rectangle is
  // bit-equal to the pair distance kernel.
  RTreeCore::ApproxNnResult r = point_tree_->ApproxNnQuery(
      q_vec.data(), k, approx.epsilon, approx.max_leaf_visits);
  NNCELL_CHECK(!r.hits.empty());

  ApproxCertificate cert;
  cert.terminated_early = r.terminated_early;
  cert.truncated = r.truncated;
  cert.approximate = r.terminated_early || r.truncated;
  cert.leaf_visits = r.leaf_visits;
  cert.bound = std::sqrt(r.bound_sq);

  NNCELL_METRIC_COUNT(ApproxMetrics().count, 1);
  NNCELL_METRIC_COUNT(ApproxMetrics().terminated_early,
                      r.terminated_early ? 1 : 0);
  NNCELL_METRIC_COUNT(ApproxMetrics().truncated, r.truncated ? 1 : 0);
  NNCELL_METRIC_COUNT(ApproxMetrics().leaf_visits, r.leaf_visits);
  NNCELL_METRIC_RECORD(ApproxMetrics().leaf_visits_per_query, r.leaf_visits);

  results.reserve(r.hits.size());
  for (const RTreeCore::ApproxNnResult::Hit& h : r.hits) {
    QueryResult res = MakeResult(h.id, h.dist_sq, r.entries_scanned);
    res.approx = cert;
    results.push_back(std::move(res));
  }
  return results;
}

std::vector<std::pair<double, uint64_t>> NNCellIndex::Within(
    const double* q, double r, double r_sq, ExactPlan plan,
    size_t* candidates) const {
  std::vector<std::pair<double, uint64_t>> within;
  if (plan == ExactPlan::kScan) {
    ScanLive(q, [&](uint64_t id, double d2) {
      if (d2 <= r_sq) within.emplace_back(d2, id);
    });
    *candidates = live_count_;
  } else {
    HyperRect ball_box = HyperRect::Empty(dim_);
    for (size_t i = 0; i < dim_; ++i) {
      ball_box.lo(i) = q[i] - r;
      ball_box.hi(i) = q[i] + r;
    }
    auto in_box = tree_->RangeQuery(ball_box);
    std::vector<uint64_t> ids;
    for (const auto& m : in_box) ids.push_back(m.id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    *candidates = ids.size();

    std::vector<double> d2s(ids.size());
    BatchOwnerDistSq(points_, ids.data(), ids.size(), q, dim_, d2s.data());
    for (size_t i = 0; i < ids.size(); ++i) {
      if (d2s[i] <= r_sq) within.emplace_back(d2s[i], ids[i]);
    }
  }
  std::sort(within.begin(), within.end());
  return within;
}

StatusOr<std::vector<NNCellIndex::QueryResult>> NNCellIndex::KnnQuery(
    const double* q_original, size_t k, const ApproxOptions& approx) const {
  if (approx.enabled()) return ApproxTraversalQuery(q_original, k, approx);
  if (live_count_ == 0) return Status::FailedPrecondition("index is empty");
  std::vector<double> q_vec = ToMetricSpace(q_original);
  const double* q = q_vec.data();
  std::vector<QueryResult> results;
  if (k == 0) return results;
  k = std::min(k, live_count_);
  CountPlan(plan_);

  if (plan_ == ExactPlan::kScan) {
    std::vector<std::pair<double, uint64_t>> all;
    all.reserve(live_count_);
    ScanLive(q, [&](uint64_t id, double d2) { all.emplace_back(d2, id); });
    std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                      all.end());
    results.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      results.push_back(MakeResult(all[i].second, all[i].first, live_count_));
    }
    return results;
  }

  // Seed radius from the point-query candidates: if they already cover k
  // distinct owners, the k-th smallest owner distance bounds the k-NN
  // radius from above.
  std::vector<uint64_t> ids = tree_->PointQuery(q);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<double> dists(ids.size());
  BatchOwnerDistSq(points_, ids.data(), ids.size(), q, dim_, dists.data());
  std::sort(dists.begin(), dists.end());

  double radius_sq;
  if (dists.size() >= k) {
    radius_sq = dists[k - 1];
  } else if (!dists.empty()) {
    radius_sq = std::max(dists.back(), 1e-12);
  } else {
    radius_sq = 1e-6;  // numeric edge: start tiny and grow
  }

  // Ball query on the cell index, growing the radius until k owners lie
  // within it. Each point's approximation contains the point itself, so
  // the ball query cannot miss an owner inside the ball.
  for (int attempt = 0; attempt < 64; ++attempt) {
    size_t candidates = 0;
    std::vector<std::pair<double, uint64_t>> within =
        Within(q, std::sqrt(radius_sq), radius_sq, ExactPlan::kCellProbe,
               &candidates);
    if (within.size() >= k) {
      results.reserve(k);
      for (size_t i = 0; i < k; ++i) {
        results.push_back(
            MakeResult(within[i].second, within[i].first, candidates));
      }
      return results;
    }
    radius_sq *= 4.0;  // double the radius and retry
  }
  return Status::Internal("kNN radius search did not converge");
}

StatusOr<std::vector<NNCellIndex::QueryResult>> NNCellIndex::RangeSearch(
    const double* q_original, double radius) const {
  if (live_count_ == 0) return Status::FailedPrecondition("index is empty");
  if (radius < 0.0) return Status::InvalidArgument("negative radius");
  std::vector<double> q_vec = ToMetricSpace(q_original);
  CountPlan(plan_);

  size_t candidates = 0;
  std::vector<std::pair<double, uint64_t>> within =
      Within(q_vec.data(), radius, radius * radius, plan_, &candidates);
  std::vector<QueryResult> results;
  results.reserve(within.size());
  for (const auto& [d2, id] : within) {
    results.push_back(MakeResult(id, d2, candidates));
  }
  return results;
}

ApproxStats NNCellIndex::MeasureApproxEffort(size_t sample,
                                             uint64_t seed) const {
  ApproxStats stats;
  if (live_count_ == 0 || sample == 0) return stats;
  std::vector<uint64_t> live;
  live.reserve(live_count_);
  for (uint64_t id = 0; id < points_.size(); ++id) {
    if (alive_[id]) live.push_back(id);
  }
  sample = std::min(sample, live.size());
  // Stride sampling spreads the probes over the id range (ids correlate
  // with insertion order, not space, so any spread is as good as random);
  // the seed rotates the phase without changing the sample size.
  const size_t stride = live.size() / sample;
  const size_t offset = static_cast<size_t>(seed % stride);
  for (size_t k = 0; k < sample; ++k) {
    uint64_t id = live[offset + k * stride];
    (void)ComputeCellRects(points_[id], id, &stats);
  }
  return stats;
}

double NNCellIndex::ExpectedCandidates() const {
  double total = 0.0;
  for (const auto& rects : cell_rects_) {
    for (const HyperRect& rect : rects) {
      total += HyperRect::OverlapVolume(rect, space_);
    }
  }
  return total / space_.Volume();
}

const std::vector<HyperRect>& NNCellIndex::CellRects(uint64_t id) const {
  NNCELL_CHECK(id < cell_rects_.size());
  return cell_rects_[id];
}

Status NNCellIndex::CheckInvariants(size_t sample_queries,
                                    uint64_t seed) const {
  std::string tree_err = tree_->Validate();
  if (!tree_err.empty()) return Status::Internal("cell tree: " + tree_err);
  tree_err = point_tree_->Validate();
  if (!tree_err.empty()) return Status::Internal("point tree: " + tree_err);

  // Quiescent buffer pools: no leaked pins, consistent frame accounting.
  Status pool_st = tree_->pool()->AuditPins();
  if (!pool_st.ok()) {
    return Status::Internal("cell pool: " + pool_st.message());
  }
  pool_st = point_pool_->AuditPins();
  if (!pool_st.ok()) {
    return Status::Internal("point pool: " + pool_st.message());
  }

  // Bookkeeping consistency.
  size_t live = 0, entries = 0;
  for (uint64_t id = 0; id < points_.size(); ++id) {
    if (alive_[id]) {
      ++live;
      entries += cell_rects_[id].size();
      if (cell_rects_[id].empty()) {
        return Status::Internal("live point without approximation");
      }
      // Every point lies in its own cell, hence in one of its rects.
      bool covered = false;
      for (const HyperRect& rect : cell_rects_[id]) {
        if (rect.ContainsPoint(points_[id])) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        return Status::Internal("owner point outside its approximation");
      }
    } else if (!cell_rects_[id].empty()) {
      return Status::Internal("dead point still has approximations");
    }
  }
  if (live != live_count_) return Status::Internal("live count mismatch");
  if (entries != tree_->size()) {
    return Status::Internal("cell tree size mismatch");
  }
  if (live != point_tree_->size()) {
    return Status::Internal("point tree size mismatch");
  }

  // The indexed entries must be exactly the bookkept approximations: same
  // ids, same rectangles, same multiplicities. Approximations are clipped
  // to the data space, so a range query over a slightly padded space box
  // reaches every entry.
  {
    HyperRect everything = space_;
    for (size_t i = 0; i < dim_; ++i) {
      everything.lo(i) -= 1.0;
      everything.hi(i) += 1.0;
    }
    auto matches = tree_->RangeQuery(everything);
    if (matches.size() != entries) {
      return Status::Internal("indexed entry count differs from bookkeeping");
    }
    std::map<uint64_t, std::vector<HyperRect>> indexed;
    for (auto& m : matches) {
      if (m.id >= cell_rects_.size() || !alive_[m.id]) {
        return Status::Internal("indexed entry owned by a dead/unknown point");
      }
      indexed[m.id].push_back(std::move(m.rect));
    }
    auto rect_less = [](const HyperRect& a, const HyperRect& b) {
      if (a.lo() != b.lo()) return a.lo() < b.lo();
      return a.hi() < b.hi();
    };
    for (uint64_t id = 0; id < cell_rects_.size(); ++id) {
      if (!alive_[id]) continue;
      auto it = indexed.find(id);
      if (it == indexed.end() ||
          it->second.size() != cell_rects_[id].size()) {
        return Status::Internal(
            "indexed rectangles of a point differ from bookkeeping");
      }
      std::vector<HyperRect> expect = cell_rects_[id];
      std::sort(expect.begin(), expect.end(), rect_less);
      std::sort(it->second.begin(), it->second.end(), rect_less);
      for (size_t r = 0; r < expect.size(); ++r) {
        if (!(expect[r] == it->second[r])) {
          return Status::Internal(
              "indexed rectangle bytes differ from the bookkept "
              "approximation");
        }
      }
    }
  }

  // Sampled end-to-end exactness (Lemma 2): the cell probe, whatever the
  // plan, against the scan. Samples are drawn in metric space.
  if (live > 0) {
    Rng rng(seed);
    std::vector<double> q(dim_);
    for (size_t t = 0; t < sample_queries; ++t) {
      for (auto& v : q) v = rng.NextDouble();
      const std::vector<double> q_original = FromMetricSpace(q);
      StatusOr<QueryResult> probe =
          ExactQuery(q_original.data(), ExactPlan::kCellProbe, nullptr);
      if (!probe.ok()) return probe.status();
      StatusOr<QueryResult> scan =
          ExactQuery(q_original.data(), ExactPlan::kScan, nullptr);
      if (!scan.ok()) return scan.status();
      if (std::abs(probe->dist * probe->dist - scan->dist * scan->dist) >
          1e-9) {
        return Status::Internal("sampled query returned a non-NN");
      }
    }
  }
  return Status::OK();
}

RTreeCore::TreeInfo NNCellIndex::TreeInfo() const { return tree_->Info(); }

std::string NNCellIndex::ValidateTree() const { return tree_->Validate(); }

}  // namespace nncell
