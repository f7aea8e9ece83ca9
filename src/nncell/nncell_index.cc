#include "nncell/nncell_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "common/distance.h"
#include "common/kernels/kernels.h"
#include "common/metrics.h"
#include "common/metrics_names.h"
#include "common/rng.h"
#include "lp/audit.h"
#include "rstar/bulk_load.h"
#include "rstar/rstar_tree.h"
#include "storage/wal.h"
#include "xtree/xtree.h"

namespace nncell {

namespace {

constexpr uint64_t kInvalidId = std::numeric_limits<uint64_t>::max();

// The executor an exact NN query falls back on when its point query finds
// no owner.
constexpr ExactPlan kFallbackPlan = ExactPlan::kScan;

// Registry handles for the query pipeline (resolved once per process).
struct QueryMetrics {
  metrics::Counter* count;
  metrics::Counter* candidates;
  metrics::Counter* distance_computations;
  metrics::Counter* fallbacks;
  metrics::Histogram* candidates_per_query;
  metrics::Counter* plan_cell_probe;
  metrics::Counter* plan_scan;
  metrics::Counter* batch_serial;
  metrics::Counter* batch_fanned_out;
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
      metrics::Registry::Global().counter(metrics::kQueryBatchSerial),
      metrics::Registry::Global().counter(metrics::kQueryBatchFannedOut),
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

// Registry handles for the bulk build's serial tail.
struct BulkBuildMetrics {
  metrics::Counter* commit_us;
};

[[maybe_unused]] const BulkBuildMetrics& BuildMetrics() {
  static const BulkBuildMetrics m = {
      metrics::Registry::Global().counter(metrics::kIndexBuildCommitUs),
  };
  return m;
}

// Registry handles for dynamic maintenance.
struct MaintenanceMetrics {
  metrics::Counter* cells_certified;
  metrics::Counter* cells_recomputed;
  metrics::Counter* cells_rewritten;
  metrics::Counter* cells_updated_in_place;
};

[[maybe_unused]] const MaintenanceMetrics& MaintMetrics() {
  static const MaintenanceMetrics m = {
      metrics::Registry::Global().counter(metrics::kIndexCellsCertified),
      metrics::Registry::Global().counter(metrics::kIndexCellsRecomputed),
      metrics::Registry::Global().counter(metrics::kIndexCellsRewritten),
      metrics::Registry::Global().counter(metrics::kIndexCellsUpdatedInPlace),
  };
  return m;
}

// Witness codes: 8 bits per coordinate within the cell's MBR.
constexpr double kCodeLevels = 255.0;

// Up to this many certified cells per write are re-solved against every
// live point in debug builds (AuditCertifiedCell).
[[maybe_unused]] constexpr size_t kAuditedCertificatesPerWrite = 4;

constexpr char kOutsideSpace[] = "point outside the data space [0,1]^d";

}  // namespace

double ToMetricCoord(double x, size_t i, const std::vector<double>& weights) {
  return weights.empty() ? x : x * std::sqrt(weights[i]);
}

std::vector<double> ToMetricSpace(const double* x, size_t dim,
                                  const std::vector<double>& weights) {
  std::vector<double> y(dim);
  for (size_t i = 0; i < dim; ++i) y[i] = ToMetricCoord(x[i], i, weights);
  return y;
}

HyperRect MetricSpaceBox(size_t dim, const std::vector<double>& weights) {
  HyperRect box = HyperRect::UnitCube(dim);
  if (!weights.empty()) {
    NNCELL_CHECK_MSG(weights.size() == dim, "weight vector dim mismatch");
    for (size_t i = 0; i < dim; ++i) {
      NNCELL_CHECK_MSG(weights[i] > 0.0, "metric weights must be positive");
      box.hi(i) = ToMetricCoord(1.0, i, weights);
    }
  }
  return box;
}

Status CheckBatch(const PointSet& pts, size_t dim,
                  const std::vector<double>& weights) {
  if (pts.dim() != dim) return Status::InvalidArgument("dimension mismatch");
  for (size_t i = 0; i < pts.size(); ++i) {
    NNCELL_RETURN_IF_ERROR(CheckFinite(pts[i], dim));
  }
  const HyperRect space = MetricSpaceBox(dim, weights);
  for (size_t i = 0; i < pts.size(); ++i) {
    if (!space.ContainsPoint(ToMetricSpace(pts[i], dim, weights).data())) {
      return Status::OutOfRange(kOutsideSpace);
    }
  }
  return Status::OK();
}

std::vector<size_t> FirstOccurrences(const PointSet& pts) {
  auto less = [&](size_t a, size_t b) {
    return std::lexicographical_compare(pts[a], pts[a] + pts.dim(), pts[b],
                                        pts[b] + pts.dim());
  };
  // A stable sort puts each first occurrence ahead of its repeats.
  std::vector<size_t> first(pts.size());
  std::iota(first.begin(), first.end(), size_t{0});
  std::stable_sort(first.begin(), first.end(), less);
  auto same = [&](size_t a, size_t b) { return !less(a, b); };
  first.erase(std::unique(first.begin(), first.end(), same), first.end());
  std::sort(first.begin(), first.end());
  return first;
}

NNCellIndex::NNCellIndex(BufferPool* pool, size_t dim, NNCellOptions options)
    : dim_(dim),
      options_(options),
      space_(MetricSpaceBox(dim, options.weights)),
      points_(dim),
      approximator_(dim, space_, options.approx),
      max_rects_(std::max<size_t>(1, options.decomposition.max_partitions)) {
  // Leaf entries are (approximation rectangle, point id); like the paper,
  // the index stores only the approximations (2dN values) and owner
  // coordinates are resolved from the point table at query time.
  TreeOptions tree_opts;
  tree_opts.dim = dim;
  if (options_.use_xtree) {
    tree_ = std::make_unique<XTree>(pool, tree_opts);
  } else {
    tree_ = std::make_unique<RStarTree>(pool, tree_opts);
  }

  // Build-time point index on private storage so that its page traffic
  // never pollutes the query-time statistics of the cell index.
  point_file_ = std::make_unique<PageFile>(pool->page_size());
  point_pool_ = std::make_unique<BufferPool>(point_file_.get(), 4096);
  point_tree_ = std::make_unique<XTree>(point_pool_.get(), tree_opts);

  SetNumThreads(options_.parallel.num_threads);
  UpdatePlan();
}

void NNCellIndex::SetNumThreads(size_t num_threads) {
  options_.parallel.num_threads = num_threads;
  ResizePool(num_threads, &thread_pool_);
}

NNCellIndex::~NNCellIndex() = default;

double NNCellIndex::SphereRadius() const {
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
      for (uint64_t id : point_tree_->LeafPageSphereQuery(point, 0.0)) {
        if (id != self) candidates.push_back(points_[id]);
      }
      break;
    }
    case ApproxAlgorithm::kSphere: {
      // "All points of which the rectangle in the index intersects the
      // sphere" around `point` with the heuristic radius, filtered to the
      // points actually inside the sphere. The filter caps the LP
      // constraint count at the expected ~2^d near neighbors instead of
      // everything sharing a page region; the MBRs may only grow, so
      // Lemma 1 still applies.
      double r = SphereRadius();
      const double r_sq = r * r;
      for (uint64_t id : point_tree_->LeafPageSphereQuery(point, r)) {
        if (id == self || L2DistSq(points_[id], point, dim_) > r_sq) continue;
        candidates.push_back(points_[id]);
      }
      break;
    }
    case ApproxAlgorithm::kNNDirection: {
      // Directional nearest neighbors; a scan with the same semantics as
      // the paper's 4d index queries.
      for (size_t id : SelectNNDirectionCandidates(points_, point, self,
                                                   alive_)) {
        candidates.push_back(points_[id]);
      }
      break;
    }
  }
  return candidates;
}

std::vector<HyperRect> NNCellIndex::ComputeCellRects(
    const double* owner, uint64_t self, ApproxStats* stats,
    std::vector<double>* optima) const {
  std::vector<const double*> candidates = SelectCandidates(owner, self);
  if (options_.decomposition.max_partitions <= 1) {
    return {approximator_.ApproximateMbr(owner, candidates, stats, optima)};
  }
  if (optima != nullptr) optima->clear();
  HyperRect full = approximator_.ApproximateMbr(owner, candidates, stats);
  return DecomposeCell(approximator_, owner, candidates, full,
                       options_.decomposition, stats);
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

Status NNCellIndex::CheckNewPoint(const std::vector<double>& point) const {
  if (!space_.ContainsPoint(point.data())) {
    return Status::OutOfRange(kOutsideSpace);
  }
  // The point tree holds every live point as a degenerate rectangle, so
  // the exact matches are the only entries containing `point`.
  for (uint64_t id : point_tree_->PointQuery(point.data())) {
    if (std::equal(point.begin(), point.end(), points_[id])) {
      return Status::AlreadyExists("exact duplicate point");
    }
  }
  return Status::OK();
}

uint64_t NNCellIndex::AddPoint(const std::vector<double>& point) {
  uint64_t id = points_.Add(point);
  rect_data_.resize(rect_data_.size() + max_rects_ * 2 * dim_);
  rect_count_.push_back(0);
  alive_.push_back(1);
  ++live_count_;
  return id;
}

void NNCellIndex::SetCellRects(uint64_t id,
                               const std::vector<HyperRect>& rects) {
  NNCELL_CHECK(rects.size() <= max_rects_);
  double* out = rect_data_.data() + id * max_rects_ * 2 * dim_;
  for (const HyperRect& rect : rects) {
    out = std::copy_n(rect.lo(), 2 * dim_, out);
  }
  rect_count_[id] = static_cast<uint32_t>(rects.size());
}

Status CheckFinite(const double* x, size_t n) {
  if (AllFinite(x, n)) return Status::OK();
  return Status::InvalidArgument("non-finite coordinate");
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
  expected_candidates_ = ExpectedCandidates();
  if (forced_plan_ != ExactPlan::kAuto) {
    plan_ = forced_plan_;
    return;
  }
  plan_ = expected_candidates_ * kScanCoverage >=
                  static_cast<double>(live_count_)
              ? ExactPlan::kScan
              : ExactPlan::kCellProbe;
}

double NNCellIndex::QueryCost() const {
  const double per_point = static_cast<double>(dim_);
  return plan_ == ExactPlan::kScan
             ? static_cast<double>(live_count_) * per_point
             : expected_candidates_ * per_point;
}

ThreadPool* BatchPool(ThreadPool* pool, size_t n, double query_cost) {
  const bool fan_out = pool != nullptr && n > 1 &&
                       static_cast<double>(n) * query_cost >=
                           NNCellIndex::kFanOutWork;
  NNCELL_METRIC_COUNT(fan_out ? Metrics().batch_fanned_out
                              : Metrics().batch_serial,
                      1);
  return fan_out ? pool : nullptr;
}

StatusOr<uint64_t> NNCellIndex::Insert(const std::vector<double>& original) {
  if (original.size() != dim_) {
    return Status::InvalidArgument("dimension mismatch");
  }
  NNCELL_RETURN_IF_ERROR(CheckFinite(original.data(), dim_));
  const std::vector<double> point =
      ToMetricSpace(original.data(), dim_, options_.weights);
  NNCELL_RETURN_IF_ERROR(CheckNewPoint(point));
  // Durable mode: log the checked insert before any mutation (write-ahead).
  // A record is only ever appended for an insert that will succeed, so
  // replay never hits a rejection.
  if (wal_ != nullptr) {
    NNCELL_RETURN_IF_ERROR(LogInsert(original));
  }
  const uint64_t id = ApplyInsert(point);
  UpdatePlan();
  return id;
}

uint64_t NNCellIndex::ApplyInsert(const std::vector<double>& point) {
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
      for (size_t k = 0; k < RectCount(id); ++k) {
        const double* lo = RectBounds(id, k);
        if (RawMinDistSq(lo, lo + dim_, point.data(), dim_) <= r * r) {
          affected.push_back(id);
          break;
        }
      }
    }
  }

  // 2. Register the point, index it in the point tree, and insert its cell
  // approximation.
  uint64_t id = AddPoint(point);
  point_tree_->Insert(HyperRect::FromPoint(point.data(), dim_), id);
  std::vector<double> optima;
  std::vector<HyperRect> rects =
      ComputeCellRects(points_[id], id, &build_stats_.approx, &optima);
  for (const HyperRect& rect : rects) {
    tree_->Insert(rect, id);
    ++build_stats_.entries_inserted;
  }
  SetCellRects(id, rects);
  StoreWitness(id, optima);

  // 3. Maintenance: shrink the affected approximations.
  RecomputeAffected(affected, points_[id]);
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
    for (size_t m = 0; m < RectCount(id) && !touches; ++m) {
      const double* mine = RectBounds(id, m);
      for (size_t t = 0; t < RectCount(other) && !touches; ++t) {
        const double* theirs = RectBounds(other, t);
        touches =
            RawIntersects(mine, mine + dim_, theirs, theirs + dim_, dim_);
      }
    }
    if (touches) affected.push_back(other);
  }

  // Remove the point and its approximations from both indexes.
  for (const HyperRect& rect : CellRects(id)) {
    bool removed = tree_->Delete(rect, id);
    NNCELL_CHECK_MSG(removed, "indexed cell rectangle missing");
  }
  rect_count_[id] = 0;
  if (id < witnessed_.size()) witnessed_[id] = false;
  bool removed =
      point_tree_->Delete(HyperRect::FromPoint(points_[id], dim_), id);
  NNCELL_CHECK_MSG(removed, "point tree entry missing");
  alive_[id] = 0;
  --live_count_;
  ++build_stats_.deletions;

  RecomputeAffected(affected, points_[id]);
  return Status::OK();
}

Status NNCellIndex::BulkBuild(const PointSet& pts) {
  NNCELL_RETURN_IF_ERROR(CheckBatch(pts, dim_, options_.weights));
  if (!points_.empty()) {
    return Status::FailedPrecondition("BulkBuild requires an empty index");
  }
  // Phase 1: register the first occurrence of every point (points visible
  // to candidate selection), then bulk-load the point tree with them.
  PointSet metric(dim_);
  for (size_t i = 0; i < pts.size(); ++i) {
    metric.Add(ToMetricSpace(pts[i], dim_, options_.weights));
  }
  std::vector<Entry> point_entries;
  for (size_t i : FirstOccurrences(metric)) {
    const uint64_t id = AddPoint(metric.Get(i));
    point_entries.push_back(Entry{HyperRect::FromPoint(points_[id], dim_), id});
  }
  point_tree_->BulkLoad(std::move(point_entries), StrPartition);

  // Phase 2: one approximation per cell against the full point set. The
  // approximations only read state that is frozen after phase 1 (the
  // point table and the point tree), so the 2d LP solves per cell fan out
  // across the thread pool; the point tree's buffer pool serves the
  // workers as concurrent readers, and each solve writes its own slot.
  const size_t n = points_.size();
  std::vector<std::vector<HyperRect>> computed(n);
  std::vector<ApproxStats> solve_stats(n);
  ParallelFor(thread_pool_.get(), n, [&](size_t id) {
    computed[id] = ComputeCellRects(points_[id], id, &solve_stats[id]);
  });

  // Phase 3, serial and in ascending point order, so the on-disk index is
  // byte-identical whatever the thread count: sum the stats, write the
  // cell table, and store the cell rectangles. The cell tree is packed in
  // one bottom-up pass with the R* split's sort orders and margin score
  // (SplitPartition), which groups the fat, heavily overlapping cell MBRs
  // by similarity; one insert per rectangle would rescore a wide root N
  // times.
  [[maybe_unused]] const auto commit_start = std::chrono::steady_clock::now();
  std::vector<Entry> cell_entries;
  for (uint64_t id = 0; id < n; ++id) {
    const ApproxStats& s = solve_stats[id];
    build_stats_.approx.lp_runs += s.lp_runs;
    build_stats_.approx.lp_iterations += s.lp_iterations;
    build_stats_.approx.lp_failures += s.lp_failures;
    build_stats_.approx.constraint_rows += s.constraint_rows;
    build_stats_.approx.pruned_rows += s.pruned_rows;
    build_stats_.approx.skipped_faces += s.skipped_faces;
    build_stats_.approx.warm_faces += s.warm_faces;
    build_stats_.approx.cold_faces += s.cold_faces;
    SetCellRects(id, computed[id]);
    for (HyperRect& rect : computed[id]) {
      cell_entries.push_back(Entry{std::move(rect), id});
      ++build_stats_.entries_inserted;
    }
  }
  tree_->BulkLoad(std::move(cell_entries), SplitPartition);
  NNCELL_METRIC_COUNT(
      BuildMetrics().commit_us,
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - commit_start)
          .count());
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
  for (size_t r = 0; r < RectCount(id); ++r) {
    const double* lo = RectBounds(id, r);
    const double* hi = lo + dim_;
    double min_val = 0.0;
    for (size_t k = 0; k < dim_; ++k) {
      // f(x) = sum_k [ (x_k - p_k)^2 - (x_k - o_k)^2 ]
      //      = sum_k [ 2 x_k (o_k - p_k) + p_k^2 - o_k^2 ]
      double a = 2.0 * (owner[k] - p[k]);
      double c = p[k] * p[k] - owner[k] * owner[k];
      min_val += std::min(a * lo[k], a * hi[k]) + c;
    }
    if (min_val < 0.0) return true;
  }
  return false;
}

void NNCellIndex::RecomputeAffected(const std::vector<uint64_t>& affected,
                                    const double* p) {
  [[maybe_unused]] size_t audited = 0;
  for (uint64_t id : affected) {
    if (WitnessCertifies(id, p)) {
      ++build_stats_.cells_certified;
      NNCELL_METRIC_COUNT(MaintMetrics().cells_certified, 1);
#ifndef NDEBUG
      if (audited++ < kAuditedCertificatesPerWrite) AuditCertifiedCell(id);
#endif
      continue;
    }
    RecomputeCell(id);
  }
}

void NNCellIndex::RecomputeCell(uint64_t id) {
  std::vector<double> optima;
  std::vector<HyperRect> rects =
      ComputeCellRects(points_[id], id, &build_stats_.approx, &optima);
  ++build_stats_.cells_recomputed;
  NNCELL_METRIC_COUNT(MaintMetrics().cells_recomputed, 1);
  // Most recomputed cells come out unchanged (only the new or deleted
  // point's Voronoi neighbors really move); leave their tree entries be.
  bool same = rects.size() == RectCount(id);
  for (size_t r = 0; r < rects.size() && same; ++r) {
    same = SameBits(rects[r], RectBounds(id, r));
  }
  if (!same) {
    ++build_stats_.cells_rewritten;
    NNCELL_METRIC_COUNT(MaintMetrics().cells_rewritten, 1);
    std::vector<HyperRect> old = CellRects(id);
    if (old.size() == 1 && rects.size() == 1 &&
        old[0].ContainsRect(rects[0])) {
      // A cell that only shrank stays in its leaf.
      bool shrunk = tree_->ShrinkEntry(old[0], id, rects[0]);
      NNCELL_CHECK_MSG(shrunk, "indexed cell rectangle missing");
      ++build_stats_.cells_updated_in_place;
      NNCELL_METRIC_COUNT(MaintMetrics().cells_updated_in_place, 1);
    } else {
      for (const HyperRect& rect : old) {
        bool removed = tree_->Delete(rect, id);
        NNCELL_CHECK_MSG(removed, "indexed cell rectangle missing");
      }
      for (const HyperRect& rect : rects) {
        tree_->Insert(rect, id);
        ++build_stats_.entries_inserted;
      }
    }
    SetCellRects(id, rects);
  }
  StoreWitness(id, optima);
}

void NNCellIndex::StoreWitness(uint64_t id, const std::vector<double>& optima) {
  const size_t stride = 2 * dim_ * (dim_ - 1);
  if (optima.empty()) {
    if (id < witnessed_.size()) witnessed_[id] = false;
    return;
  }
  if (witnessed_.size() < points_.size()) {
    witnessed_.resize(points_.size(), false);
    witness_codes_.resize(points_.size() * stride);
  }
  const double* lo = RectBounds(id, 0);
  const double* hi = lo + dim_;
  uint8_t* code = witness_codes_.data() + id * stride;
  for (size_t face = 0; face < 2 * dim_; ++face) {
    const double* x = optima.data() + face * dim_;
    for (size_t k = 0; k < dim_; ++k) {
      if (k == face / 2) continue;
      const double width = hi[k] - lo[k];
      const double t = width > 0.0 ? (x[k] - lo[k]) / width : 0.0;
      *code++ = static_cast<uint8_t>(
          std::lround(std::clamp(t, 0.0, 1.0) * kCodeLevels));
    }
  }
  witnessed_[id] = true;
}

bool NNCellIndex::WitnessCertifies(uint64_t id, const double* p) const {
  if (id >= witnessed_.size() || !witnessed_[id]) return false;
  const double* owner = points_[id];
  const double* lo = RectBounds(id, 0);
  const double* hi = lo + dim_;
  // p's bisector row, in the linear form of CellAffectedBy: the owner's
  // side is slack(x) = sum_k [2 x_k (o_k - p_k) + p_k^2 - o_k^2] >= 0. A
  // decoded coordinate is off by at most width_k / 510, so the code error
  // below bounds the slack error twice over; the audit's activity
  // tolerance, scaled as the audit scales it, covers the solver's own.
  double c = 0.0, code_error = 0.0, row_norm = 0.0;
  for (size_t k = 0; k < dim_; ++k) {
    const double a = std::abs(2.0 * (owner[k] - p[k]));
    const double ck = p[k] * p[k] - owner[k] * owner[k];
    c += ck;
    code_error += a * (hi[k] - lo[k]) / kCodeLevels;
    row_norm += a;  // >= the row's Euclidean norm
  }
  const double margin =
      code_error + lp::AuditOptions().activity_tol *
                       std::max({1.0, row_norm, std::abs(c)});
  const uint8_t* code =
      witness_codes_.data() + id * 2 * dim_ * (dim_ - 1);
  for (size_t face = 0; face < 2 * dim_; ++face) {
    const size_t axis = face / 2;
    double slack = c;
    for (size_t k = 0; k < dim_; ++k) {
      double x;
      if (k == axis) {
        x = face % 2 == 0 ? hi[k] : lo[k];
      } else {
        x = lo[k] + (hi[k] - lo[k]) * (*code++ / kCodeLevels);
      }
      slack += 2.0 * (owner[k] - p[k]) * x;
    }
    if (slack <= margin) return false;
  }
  return true;
}

void NNCellIndex::AuditCertifiedCell(uint64_t id) const {
  std::vector<const double*> rows;
  for (uint64_t j = 0; j < points_.size(); ++j) {
    if (j != id && alive_[j]) rows.push_back(points_[j]);
  }
  const HyperRect full = approximator_.ApproximateMbr(points_[id], rows);
  const double* lo = RectBounds(id, 0);
  const double tol = lp::AuditOptions().feasibility_tol;
  for (size_t k = 0; k < dim_; ++k) {
    NNCELL_CHECK_MSG(
        lo[k] <= full.lo(k) + tol && lo[dim_ + k] >= full.hi(k) - tol,
        "certified cell misses part of its NN-cell");
  }
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

StatusOr<std::vector<double>> NNCellIndex::MetricQuery(
    const double* q_original, const Status& arg) const {
  if (live_count_ == 0) return Status::FailedPrecondition("index is empty");
  NNCELL_RETURN_IF_ERROR(arg);
  NNCELL_RETURN_IF_ERROR(CheckFinite(q_original, dim_));
  return ToMetricSpace(q_original, dim_, options_.weights);
}

template <class Visit>
size_t NNCellIndex::VisitCandidates(const double* q, double r, ExactPlan plan,
                                    bool distinct, QueryTrace* trace,
                                    Visit visit) const {
  const bool scan = plan == ExactPlan::kScan;
  std::vector<uint64_t> owners;
  if (!scan) {
    // Stage 1: query the cell index. Every owner in the ball has a cell
    // approximation meeting it (the approximation contains its owner), so
    // the owners whose approximation meets the ball's bounding box include
    // them all.
    TraceTimer probe_timer;
    if (r == 0.0) {
      owners = tree_->PointQuery(q);
    } else {
      HyperRect ball_box = HyperRect::Empty(dim_);
      for (size_t i = 0; i < dim_; ++i) {
        ball_box.lo(i) = q[i] - r;
        ball_box.hi(i) = q[i] + r;
      }
      owners = tree_->RangeQueryIds(ball_box);
    }
    if (distinct) {
      std::sort(owners.begin(), owners.end());
      owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    }
    if (trace != nullptr) {
      trace->stages.push_back(
          {"index_probe", probe_timer.ElapsedMicros(), owners.size()});
    }
  }

  // Stage 2: exact distance checks. Under the scan the cell MBRs cannot
  // prune: every live point is a candidate, and the point table streams
  // through the row kernel a chunk at a time. Dead rows are computed and
  // dropped (the table is append-only, so their rows stay valid). Probe
  // owners are scattered rows, four per gather-kernel call.
  TraceTimer scan_timer;
  if (scan) {
    constexpr size_t kChunk = 64;
    double dist[kChunk];
    const size_t n = points_.size();
    for (size_t base = 0; base < n; base += kChunk) {
      const size_t rows = std::min(kChunk, n - base);
      kernels::L2DistSqRows(q, points_[base], rows, dim_, dist);
      for (size_t j = 0; j < rows; ++j) {
        if (alive_[base + j]) visit(base + j, dist[j]);
      }
    }
  } else {
    uint64_t id4[4];
    const double* ptr4[4];
    double d4[4];
    size_t fill = 0;
    for (uint64_t id : owners) {
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
  const size_t checked = scan ? live_count_ : owners.size();
  if (trace != nullptr) {
    trace->stages.push_back(
        {"distance_scan", scan_timer.ElapsedMicros(), checked});
  }
  return checked;
}

StatusOr<NNCellIndex::QueryResult> NNCellIndex::ExactQuery(
    const double* q_original, ExactPlan plan, QueryTrace* trace) const {
  StatusOr<std::vector<double>> q_vec = MetricQuery(q_original);
  if (!q_vec.ok()) return q_vec.status();
  const double* q = q_vec->data();

  BufferStats pool_before;
  if (trace != nullptr) {
    trace->Clear();
    pool_before = tree_->pool()->stats();
  }

  double best = std::numeric_limits<double>::infinity();
  uint64_t best_id = kInvalidId;
  auto keep_nearest = [&](uint64_t id, double d2) {
    if (d2 < best || (d2 == best && id < best_id)) {
      best = d2;
      best_id = id;
    }
  };

  // The paper's point query (Lemma 2: the true NN's cell approximation
  // contains q, so its owner is among the candidates).
  const size_t candidates =
      VisitCandidates(q, 0.0, plan, /*distinct=*/false, trace, keep_nearest);
  uint64_t distance_computations = candidates;
  const bool used_fallback = best_id == kInvalidId;
  if (used_fallback) {
    // Numeric edge (query on a cell face lost to LP tolerance) or query
    // outside the data space: fall back to the scan executor. Lemma 2
    // makes this rare; the flag lets benchmarks count it.
    TraceTimer fallback_timer;
    distance_computations += VisitCandidates(
        q, 0.0, kFallbackPlan, /*distinct=*/false, nullptr, keep_nearest);
    if (trace != nullptr) {
      trace->stages.push_back(
          {"fallback_scan", fallback_timer.ElapsedMicros(), live_count_});
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

  // N concurrent readers over the shared (sharded) buffer pool when the
  // batch is worth it. Every result lands in its own slot, so the batch
  // output is deterministic and identical to a serial loop.
  return ParallelMap<QueryResult>(
      BatchPool(thread_pool_.get(), queries.size(), QueryCost()),
      queries.size(), [&](size_t i) { return Query(queries[i], approx); });
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
  StatusOr<std::vector<double>> q_vec = MetricQuery(q_original);
  if (!q_vec.ok()) return q_vec.status();
  std::vector<QueryResult> results;
  if (k == 0) return results;
  k = std::min(k, live_count_);

  // Certified / bounded best-first search over the point X-tree. The cell
  // index cannot drive this tier: a cell approximation's MINDIST does not
  // lower-bound its owner's distance (the true NN's cell contains q with
  // MINDIST 0), so the (1+epsilon) proof runs against the points
  // themselves. Entry MINDIST on a degenerate (point) rectangle is
  // bit-equal to the pair distance kernel.
  RTreeCore::ApproxNnResult r = point_tree_->KnnQuery(q_vec->data(), k, approx);
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
  for (const RTreeCore::Hit& h : r.hits) {
    QueryResult res = MakeResult(h.id, h.dist_sq, r.entries_scanned);
    res.approx = cert;
    results.push_back(std::move(res));
  }
  return results;
}

std::vector<std::pair<double, uint64_t>> NNCellIndex::Within(
    const double* q, double r, double r_sq, size_t* candidates) const {
  std::vector<std::pair<double, uint64_t>> within;
  *candidates = VisitCandidates(q, r, plan_, /*distinct=*/true, nullptr,
                                [&](uint64_t id, double d2) {
                                  if (d2 <= r_sq) within.emplace_back(d2, id);
                                });
  std::sort(within.begin(), within.end());
  return within;
}

StatusOr<std::vector<NNCellIndex::QueryResult>> NNCellIndex::KnnQuery(
    const double* q_original, size_t k, const ApproxOptions& approx) const {
  if (approx.enabled()) return ApproxTraversalQuery(q_original, k, approx);
  StatusOr<std::vector<double>> q_vec = MetricQuery(q_original);
  if (!q_vec.ok()) return q_vec.status();
  const double* q = q_vec->data();
  std::vector<QueryResult> results;
  if (k == 0) return results;
  k = std::min(k, live_count_);
  CountPlan(plan_);

  // Seed radius from the point-query candidates: if they already cover k
  // distinct owners, the k-th smallest owner distance bounds the k-NN
  // radius from above. `within` keeps the k nearest of them, a max-heap.
  std::vector<std::pair<double, uint64_t>> within;
  size_t candidates = VisitCandidates(
      q, 0.0, plan_, /*distinct=*/true, nullptr, [&](uint64_t id, double d2) {
        const std::pair<double, uint64_t> pair(d2, id);
        if (within.size() == k) {
          if (!(pair < within.front())) return;
          std::pop_heap(within.begin(), within.end());
          within.back() = pair;
        } else {
          within.push_back(pair);
        }
        std::push_heap(within.begin(), within.end());
      });
  // Range query, growing the radius until k owners lie within it. When the
  // seed checked every live point (always under the scan), each of them
  // meets the first ball too, so the seed's k nearest are that ball's
  // answer.
  if (candidates < live_count_) {
    double radius_sq = 1e-6;  // numeric edge: no candidate, start tiny
    if (within.size() == k) {
      radius_sq = within.front().first;
    } else if (!within.empty()) {
      radius_sq = std::max(within.front().first, 1e-12);
    }
    within.clear();
    for (int attempt = 0; attempt < 64 && within.size() < k; ++attempt) {
      within = Within(q, std::sqrt(radius_sq), radius_sq, &candidates);
      radius_sq *= 4.0;  // double the radius for the next attempt
    }
    if (within.size() < k) {
      return Status::Internal("kNN radius search did not converge");
    }
  }
  std::partial_sort(within.begin(), within.begin() + k, within.end());
  results.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    results.push_back(
        MakeResult(within[i].second, within[i].first, candidates));
  }
  return results;
}

StatusOr<std::vector<NNCellIndex::QueryResult>> NNCellIndex::RangeSearch(
    const double* q_original, double radius) const {
  const Status radius_ok =
      radius < 0.0             ? Status::InvalidArgument("negative radius")
      : !std::isfinite(radius) ? Status::InvalidArgument("non-finite radius")
                               : Status::OK();
  StatusOr<std::vector<double>> q_vec = MetricQuery(q_original, radius_ok);
  if (!q_vec.ok()) return q_vec.status();
  CountPlan(plan_);

  size_t candidates = 0;
  std::vector<std::pair<double, uint64_t>> within =
      Within(q_vec->data(), radius, radius * radius, &candidates);
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
  for (uint64_t id = 0; id < rect_count_.size(); ++id) {
    for (size_t r = 0; r < RectCount(id); ++r) {
      const double* lo = RectBounds(id, r);
      total += RawOverlapVolume(lo, lo + dim_, space_.lo(), space_.hi(), dim_);
    }
  }
  return total / space_.Volume();
}

std::vector<HyperRect> NNCellIndex::CellRects(uint64_t id) const {
  NNCELL_CHECK(id < rect_count_.size());
  std::vector<HyperRect> rects;
  rects.reserve(RectCount(id));
  for (size_t r = 0; r < RectCount(id); ++r) {
    rects.push_back(HyperRect::FromBounds(RectBounds(id, r), dim_));
  }
  return rects;
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
      entries += RectCount(id);
      if (RectCount(id) == 0) {
        return Status::Internal("live point without approximation");
      }
      // Every point lies in its own cell, hence in one of its rects.
      bool covered = false;
      for (const HyperRect& rect : CellRects(id)) {
        if (rect.ContainsPoint(points_[id])) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        return Status::Internal("owner point outside its approximation");
      }
    } else if (RectCount(id) != 0) {
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
      if (m.id >= points_.size() || !alive_[m.id]) {
        return Status::Internal("indexed entry owned by a dead/unknown point");
      }
      indexed[m.id].push_back(std::move(m.rect));
    }
    auto rect_less = [this](const HyperRect& a, const HyperRect& b) {
      return std::lexicographical_compare(a.lo(), a.lo() + 2 * dim_, b.lo(),
                                          b.lo() + 2 * dim_);
    };
    for (uint64_t id = 0; id < points_.size(); ++id) {
      if (!alive_[id]) continue;
      auto it = indexed.find(id);
      if (it == indexed.end() || it->second.size() != RectCount(id)) {
        return Status::Internal(
            "indexed rectangles of a point differ from bookkeeping");
      }
      std::vector<HyperRect> expect = CellRects(id);
      std::sort(expect.begin(), expect.end(), rect_less);
      std::sort(it->second.begin(), it->second.end(), rect_less);
      for (size_t r = 0; r < expect.size(); ++r) {
        if (expect[r] != it->second[r]) {
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
