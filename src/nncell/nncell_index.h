#ifndef NNCELL_NNCELL_NNCELL_INDEX_H_
#define NNCELL_NNCELL_NNCELL_INDEX_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/approx.h"
#include "common/hyper_rect.h"
#include "common/point_set.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "geom/cell_approximator.h"
#include "geom/decomposition.h"
#include "nncell/index_backend.h"
#include "nncell/query_trace.h"
#include "rstar/rtree_core.h"
#include "storage/buffer_pool.h"

namespace nncell {

class WriteAheadLog;

// How existing cells are repaired after a dynamic insert. A new point only
// ever *shrinks* cells, and a stale (larger) approximation is still a
// correct superset, so maintenance is a quality knob, not a correctness
// requirement (Section 2 of the paper).
enum class MaintenanceMode {
  kNone,    // never touch existing approximations
  kSphere,  // the paper's heuristic: recompute cells whose MBR intersects a
            // sphere around the new point
  kExact,   // recompute exactly the cells whose MBR crosses the bisector of
            // (owner, new point) -- every cell that can actually shrink
};

// Threading knob for the parallel phases of the engine. The per-point LP
// solves of a bulk build are embarrassingly parallel ([Ber+ 97] proposes
// parallelism as the cure for the residual NN search cost; covering-box
// Voronoi constructions make the same observation), and batched queries
// fan out across concurrent readers of the shared buffer pool.
struct ParallelOptions {
  // Threads used for BulkBuild LP fan-out and QueryBatch. 1 = serial
  // (no pool is created); 0 = one thread per hardware core.
  size_t num_threads = 1;
};

// Which executor answers the exact queries (Query / QueryBatch, KnnQuery,
// RangeSearch). Every executor returns the same ids, distance bits and
// result order: ties resolve ascending by (squared distance, id).
enum class ExactPlan {
  kAuto,       // the index chooses from its cell MBRs
               // (NNCellIndex::kScanCoverage)
  kCellProbe,  // the paper's method: point / ball query on the cell index,
               // then distance checks on the candidate owners
  kScan,       // distance checks on every live point of the point table
};

// "auto", "cell_probe" or "scan".
const char* ExactPlanName(ExactPlan plan);

// InvalidArgument("non-finite coordinate") when any of x[0, n) is NaN or
// infinite: the check every index entry point (plain and sharded) applies
// to the coordinates it is given.
Status CheckFinite(const double* x, size_t n);

// The sqrt(weight) isometry of a weighted metric (NNCellOptions::weights;
// the identity when `weights` is empty), which both index classes search
// and route in: coordinate i of a point maps to x * sqrt(w_i).
double ToMetricCoord(double x, size_t i, const std::vector<double>& weights);
std::vector<double> ToMetricSpace(const double* x, size_t dim,
                                  const std::vector<double>& weights);
// The data space [0,1]^d under the isometry: [0, sqrt(w_i)] per dimension.
HyperRect MetricSpaceBox(size_t dim, const std::vector<double>& weights);

// The check both index classes run on a whole BulkBuild batch before they
// change anything: InvalidArgument on a dimension mismatch, then on any
// non-finite coordinate, then OutOfRange on any point outside the data
// space (MetricSpaceBox).
Status CheckBatch(const PointSet& pts, size_t dim,
                  const std::vector<double>& weights);

// The indices of the first occurrence of each distinct point of `pts`,
// ascending; points are compared with <, so -0.0 equals +0.0.
std::vector<size_t> FirstOccurrences(const PointSet& pts);

// The pool a batch of `n` queries runs over: `pool` when the batch's
// expected work, n * `query_cost` coordinate operations, reaches
// NNCellIndex::kFanOutWork, else nullptr (ParallelMap's serial loop on the
// calling thread). Counts the choice in query.batch.{serial,fanned_out}.
ThreadPool* BatchPool(ThreadPool* pool, size_t n, double query_cost);

struct NNCellOptions {
  // Which points contribute LP constraints (Section 2's four algorithms).
  // The Sphere strategy takes the points within the paper's heuristic
  // radius (DefaultSphereRadius, which shrinks as the database grows).
  ApproxAlgorithm algorithm = ApproxAlgorithm::kSphere;

  // Per-dimension weights of a weighted Euclidean metric
  //   d_W(x,y)^2 = sum_i w_i (x_i - y_i)^2
  // ("adaptable" similarity search: user-tuned feature importance).
  // Empty = plain Euclidean. Implemented by the isometry x_i -> sqrt(w_i)
  // x_i, under which every NN-cell/bisector argument goes through
  // unchanged; reported distances are d_W, reported points are in the
  // original coordinates.
  std::vector<double> weights;

  // Section 3 decomposition; max_partitions <= 1 disables it.
  DecompositionOptions decomposition;

  // Underlying multidimensional index for the approximations.
  bool use_xtree = true;

  MaintenanceMode maintenance = MaintenanceMode::kExact;

  // LP hot-path pipeline knobs (bisector pre-pruning, warm-started face
  // solves). Runtime-only: both settings yield the same MBRs, so neither
  // is part of the persisted image.
  CellApproxOptions approx;

  // Threading for BulkBuild / QueryBatch. Purely a runtime knob: the
  // built index is byte-identical for every thread count, so it is not
  // part of the persisted image.
  ParallelOptions parallel;
};

struct NNCellBuildStats {
  ApproxStats approx;
  size_t cells_certified = 0;   // affected cells whose witness kept them
  size_t cells_recomputed = 0;  // dynamic-maintenance recomputations
  size_t cells_rewritten = 0;   // recomputations that changed the cell
  size_t cells_updated_in_place = 0;  // rewrites that shrank the leaf entry
  size_t entries_inserted = 0;  // tree entries written (incl. decomposition)
  size_t deletions = 0;
};

// The paper's contribution: nearest-neighbor search by indexing the
// solution space. Every data point's NN-cell (order-1 Voronoi cell bounded
// by the data space) is approximated by one or more MBRs via linear
// programming and stored in an X-tree; a NN query is then a point query on
// that index followed by exact distance checks among the candidate owners.
// Implements IndexBackend, so a query server can front it directly.
class NNCellIndex final : public IndexBackend {
 public:
  // `pool` provides the paged storage for the underlying tree. The data
  // space is fixed to [0,1]^dim as in the paper.
  NNCellIndex(BufferPool* pool, size_t dim, NNCellOptions options);
  ~NNCellIndex() override;

  NNCellIndex(const NNCellIndex&) = delete;
  NNCellIndex& operator=(const NNCellIndex&) = delete;

  size_t dim() const override { return dim_; }
  // Number of live points.
  size_t size() const override { return live_count_; }
  // Internal point table in *metric-transformed* coordinates (identical to
  // the input coordinates unless options().weights is set). Includes
  // tombstoned points; check IsAlive().
  const PointSet& points() const { return points_; }
  const NNCellOptions& options() const { return options_; }
  const NNCellBuildStats& build_stats() const { return build_stats_; }

  // Dynamically inserts a point (paper Fig. 3: candidate selection, 2d LP
  // runs, index insert, then maintenance of the cells the new point
  // shrinks). Exact duplicates are rejected (their NN-cell would be
  // degenerate). Maintenance keeps a cell without re-solving it when its
  // witness (the face optima of its last write-path computation) shows
  // the new bisector cuts none of them; see RecomputeAffected.
  StatusOr<uint64_t> Insert(const std::vector<double>& point) override;

  // Static index creation (the paper's precomputation): registers all
  // points first, then computes every approximation once against the full
  // point set -- no maintenance needed. Duplicates are skipped (the first
  // occurrence is kept). All or nothing: the whole batch is checked
  // (CheckBatch) before anything changes. Only an index that has never
  // held a point is built (else FailedPrecondition); add points to a live
  // index with Insert, whose maintenance shrinks the cells they cut.
  Status BulkBuild(const PointSet& pts);

  // Deletes a point. Neighboring cells grow into the freed region, so
  // every cell whose approximation touches the deleted cell's
  // approximation is recomputed (a superset of the true Voronoi
  // neighbors; the paper defers to Roos' dynamic Voronoi algorithms for
  // this case). Ids are stable; deleted ids are never reused. Cells whose
  // witness shows the deleted point in no face's active set are kept.
  Status Delete(uint64_t id) override;

  // Whether the id refers to a live point.
  bool IsAlive(uint64_t id) const {
    return id < alive_.size() && alive_[id];
  }

  // The point's coordinates in the *original* (pre-weight-isometry) space,
  // exactly as they were passed to Insert/BulkBuild. Used by callers that
  // re-partition points (the sharded rebalance) and by anything that must
  // round-trip a point through the public API.
  std::vector<double> OriginalPoint(uint64_t id) const;

  using QueryResult = nncell::QueryResult;

  // Nearest-neighbor query = point query on the approximation index plus
  // exact distance checks over the candidates (Lemma 2 guarantees the true
  // NN is always among them). Every query method is safe to call from any
  // number of threads concurrently as long as no thread mutates the index
  // (Insert / Delete / BulkBuild) at the same time. Every entry point
  // rejects a NaN or infinite coordinate or radius with InvalidArgument.
  //
  // Approximate query tier (docs/APPROXIMATE.md): Query, QueryBatch and
  // KnnQuery take ApproxOptions for certified (1+epsilon) answers and
  // bounded-effort search via best-first traversal of the point X-tree.
  // Exactness contract: a default-constructed `approx` (!approx.enabled():
  // epsilon == 0 and no budget) takes the exact cell-index path (ids,
  // distances, candidates, metrics). When enabled, the answer's
  // certificate is populated: min(dist, approx.bound) lower-bounds the
  // true NN distance, an untruncated search additionally guarantees
  // dist <= (1+epsilon) * true distance, and a truncated search returns
  // best-seen with approx.approximate == true.
  StatusOr<QueryResult> Query(const double* q,
                              const ApproxOptions& approx = {}) const;

  // Traced exact query: when `trace` is non-null it is cleared and filled
  // with the per-stage timeline of this one query (see query_trace.h). The
  // buffer-pool read deltas in the trace are attributed pool-wide, so they
  // are exact only when no other query runs concurrently.
  StatusOr<QueryResult> Query(const double* q, QueryTrace* trace) const;

  // Batched nearest-neighbor search: answers every query and returns the
  // results in input order. With options().parallel.num_threads > 1 and
  // a batch whose expected work pays for waking the workers
  // (BatchPool), the batch is fanned across the thread pool -- N
  // concurrent readers over the shared buffer pool, the calling thread
  // among them; results are identical to a serial loop of Query() calls.
  // Several threads may call QueryBatch concurrently.
  StatusOr<std::vector<QueryResult>> QueryBatch(
      const PointSet& queries, const ApproxOptions& approx = {}) const override;

  // Exact k-nearest-neighbor search -- the extension the paper names as
  // future work. Every point within distance r of q has a cell
  // approximation intersecting Ball(q, r) (the approximation contains its
  // owner), so a ball query on the cell index with a radius that provably
  // covers k owners returns a superset of the true k-NN. The radius comes
  // from the point-query candidates and grows geometrically in the rare
  // case they contain fewer than k owners. Results are ascending by
  // distance; returns min(k, size()) entries.
  StatusOr<std::vector<QueryResult>> KnnQuery(
      const double* q, size_t k, const ApproxOptions& approx = {}) const;

  // Similarity range query: every live point within `radius` of q
  // (ascending by distance). Same covering argument as KnnQuery: each
  // in-range owner's cell approximation contains the owner and therefore
  // intersects Ball(q, radius), so a ball query on the cell index cannot
  // miss one. Distances are in the configured (possibly weighted) metric.
  StatusOr<std::vector<QueryResult>> RangeSearch(const double* q,
                                                 double radius) const;

  // Reconfigures the thread count for the parallel phases (e.g. after
  // Load, which restores with the serial default). Not thread-safe: call
  // only while no other thread uses the index.
  void SetNumThreads(size_t num_threads);

  // The exact plan under kAuto. The cell probe pays a tree traversal to
  // prune, then checks ExpectedCandidates() owners; once that is at least
  // 1/kScanCoverage of the live points, scanning all of them is cheaper
  // (the crossover sweep is in EXPERIMENTS.md).
  static constexpr double kScanCoverage = 64.0;

  // A query batch fans out over the thread pool once its expected work
  // (queries x QueryCost()) reaches this many coordinate operations;
  // below it, waking workers costs more than they save (the sweep that
  // sized it is in EXPERIMENTS.md).
  static constexpr double kFanOutWork = 262144.0;

  // Coordinate operations one exact query is expected to cost under the
  // current plan: live points x d under kScan, ExpectedCandidates() x d
  // under kCellProbe (from the value cached with the plan, so O(1)).
  double QueryCost() const;

  // The executor exact queries take (kCellProbe or kScan, never kAuto):
  // the SetExactPlan value when forced, else kScan iff
  // ExpectedCandidates() * kScanCoverage >= size(). Worked out after every
  // BulkBuild / Insert / Delete and on Load / Open; queries only read it.
  ExactPlan exact_plan() const { return plan_; }
  const char* ExactPlanName() const override {
    return nncell::ExactPlanName(plan_);
  }

  // Forces the exact executor (kAuto: let the index choose again).
  // Runtime-only: every executor gives the same answers, so the forced
  // plan is not part of the persisted image and Load / Open start at
  // kAuto. Not thread-safe, like SetNumThreads.
  void SetExactPlan(ExactPlan plan);

  // Re-runs the cell-approximation pipeline (candidate selection + LP
  // solves) for `sample` deterministically chosen live points and returns
  // the aggregated effort counters; the computed rectangles are discarded
  // and the index is not modified. Pure read -- used by `nncell_cli stats`
  // to surface live LP metrics for an index loaded from disk. `seed` only
  // rotates which points are sampled.
  ApproxStats MeasureApproxEffort(size_t sample, uint64_t seed = 0) const;

  // The paper's quality measure: the expected number of approximations
  // containing a uniform query point (sum of MBR volumes over the data
  // space volume). 1.0 = perfect (no overlap). Allocation-free: it runs
  // after every mutation to work out the exact plan.
  double ExpectedCandidates() const override;

  // The current approximation rectangles of one point (>= 1 entries for a
  // live point, none for a deleted one).
  std::vector<HyperRect> CellRects(uint64_t id) const;

  // Underlying tree statistics / validation (test support).
  RTreeCore::TreeInfo TreeInfo() const;
  std::string ValidateTree() const;

  // Deep self-check: validates the underlying tree, verifies that every
  // live point lies inside (one of) its own approximation rectangles,
  // that the indexed entries match the bookkeeping exactly, and that
  // `sample_queries` random queries answered by the cell probe (whatever
  // the plan) return the scan's nearest neighbor (Lemma 2).
  // Returns OK or a description of the first violation.
  Status CheckInvariants(size_t sample_queries = 100,
                         uint64_t seed = 0x5eed) const;

  // Persistence: writes the complete index -- options, point table,
  // approximations and both page files -- as one checksummed snapshot
  // (format v2, docs/PERSISTENCE.md). Save(path) writes atomically via
  // temp file + fsync + rename, so a crash mid-save leaves the previous
  // snapshot intact. Restoring replaces the contents of `file` (the
  // cell-index storage `pool` wraps; page size must match the saved one),
  // and is all-or-nothing: on any error -- truncation, checksum mismatch,
  // version skew -- `file`, `pool` and the returned Status describe the
  // first violation and nothing has been mutated.
  Status Save(std::ostream& out) const;
  Status Save(const std::string& path) const;
  static StatusOr<std::unique_ptr<NNCellIndex>> Load(std::istream& in,
                                                     PageFile* file,
                                                     BufferPool* pool);
  static StatusOr<std::unique_ptr<NNCellIndex>> Load(const std::string& path,
                                                     PageFile* file,
                                                     BufferPool* pool);

  // --- Durable mode --------------------------------------------------------

  struct DurableOptions {
    size_t page_size = 4096;   // used when creating a fresh durable index
    size_t pool_pages = 4096;  // cell-index buffer pool capacity
    // WAL group-commit granularity: fsync every N-th append. 1 = every
    // acknowledged Insert/Delete is durable before it returns; N > 1
    // trades the tail of < N acknowledged operations against fsync cost.
    size_t wal_group_sync = 1;
  };

  // What Open() found and did; for operators and the recovery tests.
  struct RecoveryInfo {
    bool snapshot_loaded = false;       // a snapshot existed and parsed
    bool created = false;               // neither snapshot nor usable WAL
    uint64_t snapshot_wal_lsn = 0;      // WAL position the snapshot covers
    uint64_t wal_records_replayed = 0;  // records re-applied after it
    uint64_t wal_records_skipped = 0;   // records the snapshot already held
    uint64_t wal_torn_bytes = 0;        // torn WAL tail truncated
  };

  // Opens (or creates) a durable index rooted at directory `dir`:
  // loads `dir`/snapshot.nncell if present, replays the WAL tail from
  // `dir`/wal.log (skipping records the snapshot already covers,
  // truncating a torn final record), and arms the WAL so every later
  // Insert/Delete is logged before it mutates the index. `dim` must match
  // an existing snapshot, or be the dimension of the new index when the
  // directory is empty (0 = "whatever the snapshot says", creation error
  // when there is none). Corruption anywhere -- snapshot or mid-WAL --
  // surfaces as a precise error, never as a silently wrong index.
  static StatusOr<std::unique_ptr<NNCellIndex>> Open(
      const std::string& dir, size_t dim, NNCellOptions options,
      DurableOptions dopts, RecoveryInfo* info = nullptr);
  static StatusOr<std::unique_ptr<NNCellIndex>> Open(const std::string& dir,
                                                     size_t dim,
                                                     NNCellOptions options) {
    return Open(dir, dim, std::move(options), DurableOptions(), nullptr);
  }

  // Folds the WAL into a fresh snapshot: atomically writes the snapshot
  // (recording the covered WAL position), then truncates the log. A crash
  // between the two steps is safe -- the next Open skips the already-
  // covered records by LSN. Durable mode only.
  Status Checkpoint() override;

  // True when this index was created by Open() and logs to a WAL.
  bool durable() const override { return wal_ != nullptr; }

 private:
  // Candidate constraint points for `point` (not yet inserted) per the
  // configured algorithm; `self` is kInvalidId for new points or the id of
  // the point whose cell is being recomputed.
  std::vector<const double*> SelectCandidates(const double* point,
                                              uint64_t self) const;

  // Computes the decomposed MBR approximation of `owner`'s cell. Pure
  // read (candidate selection + LP solves): safe to run concurrently for
  // different owners as long as each call gets its own `stats`. `optima`,
  // when given, receives the face optima of an undecomposed cell (see
  // CellApproximator::ApproximateMbr) and stays empty otherwise.
  std::vector<HyperRect> ComputeCellRects(
      const double* owner, uint64_t self, ApproxStats* stats,
      std::vector<double>* optima = nullptr) const;

  // Maintenance after a write of point `p` (an insert, or a delete with
  // p already dead): keeps every affected cell whose witness certifies it
  // and recomputes the others.
  void RecomputeAffected(const std::vector<uint64_t>& affected,
                         const double* p);

  // Recomputes the approximation of `id`, replaces the indexed rectangles
  // with it unless it is bit-identical to the current one (shrinking a
  // single leaf entry in place when it can), and stores its witness.
  void RecomputeCell(uint64_t id);

  // True when the cell of `id` can shrink due to the new point `p`.
  bool CellAffectedBy(uint64_t id, const double* p) const;

  // --- Maintenance witnesses ---------------------------------------------
  //
  // Every cell computed on the write path (never by BulkBuild or Load, so
  // they are runtime-only like the exact plan) keeps the optimum x* of
  // each of its 2d LP faces when it is undecomposed and every face solved:
  // the face's own coordinate is the stored bound, the d-1 others are
  // 8-bit codes within the cell's MBR. If the bisector row of a written
  // point p is slack at every x*, no face value moves: after an insert
  // each x* stays feasible, hence optimal; after a delete p's row is in
  // no active set, so each KKT certificate still holds. Either way the
  // kept MBR bounds a cell induced by live points only (Lemma 1), for
  // every strategy.

  // Encodes `optima` (from ComputeCellRects) as the witness of `id`
  // against its stored MBR; empty optima drop the witness.
  void StoreWitness(uint64_t id, const std::vector<double>& optima);

  // True when `id` has a witness and p's bisector row is slack at every
  // decoded face optimum by more than the code error plus the LP audit's
  // activity tolerance.
  bool WitnessCertifies(uint64_t id, const double* p) const;

  // Debug builds: asserts that the kept MBR of the certified cell `id`
  // contains the MBR over all live points (Lemma 1), within the audit
  // tolerance.
  void AuditCertifiedCell(uint64_t id) const;

  // --- Cell rectangle storage --------------------------------------------

  // Rectangle r of `id`: lo at the returned pointer, hi dim_ doubles on.
  const double* RectBounds(uint64_t id, size_t r) const {
    return rect_data_.data() + (id * max_rects_ + r) * 2 * dim_;
  }
  size_t RectCount(uint64_t id) const { return rect_count_[id]; }
  void SetCellRects(uint64_t id, const std::vector<HyperRect>& rects);

  // DefaultSphereRadius at the live point count.
  double SphereRadius() const;

  // Inverts the sqrt(weight) isometry (identity when unweighted).
  std::vector<double> FromMetricSpace(const std::vector<double>& x) const;

  // Insert / Delete without the WAL append and without working out the
  // plan again: the public calls add both, WAL replay neither (Open works
  // out the plan once after the last record). ApplyInsert takes a
  // metric-space point that CheckNewPoint has accepted and returns its id.
  uint64_t ApplyInsert(const std::vector<double>& point);
  Status ApplyDelete(uint64_t id);

  // Sets expected_candidates_, and plan_ from forced_plan_ and the live
  // cells.
  void UpdatePlan();

  // The preamble of every query body: FailedPrecondition on an empty
  // index, then `arg` (a query's own argument check) when it is an error,
  // then InvalidArgument on a non-finite coordinate; else q_original
  // mapped into metric space.
  StatusOr<std::vector<double>> MetricQuery(const double* q_original,
                                            const Status& arg = Status()) const;

  // The one candidate source of the exact queries: calls visit(id, squared
  // distance to q) for each candidate owner of Ball(q, r), q in metric
  // space, and returns how many it checked; r = 0 is the paper's point
  // query. The candidates are every live point under kScan, in ascending
  // id order, and under kCellProbe the owners whose cell approximation
  // contains q (r = 0) or meets the ball's bounding box. `distinct` visits
  // each of them once, in ascending id order; otherwise an owner comes
  // once per rectangle the point query returns. Distances come from the
  // row kernel (scan) or the gather kernel (probe), both bit-equal to the
  // pair kernel. A non-null `trace` gets the executor's stages.
  template <class Visit>
  size_t VisitCandidates(const double* q, double r, ExactPlan plan,
                         bool distinct, QueryTrace* trace, Visit visit) const;

  // The exact nearest neighbor through `plan`'s executor (not kAuto).
  StatusOr<QueryResult> ExactQuery(const double* q_original, ExactPlan plan,
                                   QueryTrace* trace) const;

  // The (squared distance, id) pairs of every live point within
  // Ball(q, r), r_sq = r * r, q in metric space, ascending; shared by
  // KnnQuery and RangeSearch. *candidates receives the distinct owners
  // checked.
  std::vector<std::pair<double, uint64_t>> Within(const double* q, double r,
                                                  double r_sq,
                                                  size_t* candidates) const;

  // OK when the metric-space `point` may join the index: inside the data
  // space and no exact duplicate of a point in the point tree (compared
  // with ==, so -0.0 equals +0.0).
  Status CheckNewPoint(const std::vector<double>& point) const;

  // Appends the checked metric-space point to points_; returns its id.
  uint64_t AddPoint(const std::vector<double>& point);

  // Serializes the full snapshot image (header, metadata, both page
  // files, footer) recording `wal_lsn` as the WAL position it covers.
  Status SerializeSnapshot(std::string* out, uint64_t wal_lsn) const;

  // Validates and loads one snapshot image. All-or-nothing: `file` and
  // `pool` are only mutated after every checksum and structural check has
  // passed. `wal_lsn` receives the WAL position the snapshot covers.
  static StatusOr<std::unique_ptr<NNCellIndex>> LoadImage(
      const uint8_t* data, size_t size, PageFile* file, BufferPool* pool,
      uint64_t* wal_lsn);

  // Reads the page size out of a snapshot header (validating magic,
  // version and header checksum only) so Open can size the PageFile.
  static StatusOr<size_t> PeekSnapshotPageSize(const std::string& image);

  // Durable-mode write-ahead hooks (durability.cc): LogInsert/LogDelete
  // append the WAL record of an operation its caller has already checked,
  // so a record is only ever logged for an operation that will succeed;
  // ReplayWalRecord checks and re-applies one recovered record.
  Status LogInsert(const std::vector<double>& original);
  Status LogDelete(uint64_t id);
  Status ReplayWalRecord(const std::vector<uint8_t>& payload);

  size_t dim_;
  NNCellOptions options_;
  HyperRect space_;
  PointSet points_;
  CellApproximator approximator_;

  // Durable-mode storage, owned by the index (in-memory indexes borrow
  // the caller's pool instead and leave these null). Declared before
  // tree_ so the pool the tree flushes into outlives it.
  std::unique_ptr<PageFile> durable_file_;
  std::unique_ptr<BufferPool> durable_pool_;

  std::unique_ptr<RTreeCore> tree_;  // indexes the cell approximations

  // Workers for BulkBuild fan-out and QueryBatch; nullptr when the
  // resolved thread count is 1 (serial).
  std::unique_ptr<ThreadPool> thread_pool_;

  // Build-time point index: the paper's Point/Sphere strategies select
  // candidates by page rectangles of an index over the data points.
  std::unique_ptr<PageFile> point_file_;
  std::unique_ptr<BufferPool> point_pool_;
  std::unique_ptr<RTreeCore> point_tree_;

  // Shared engine of the approximate tier: certified / bounded-effort
  // best-first k-NN on point_tree_ (requires approx.enabled(); the public
  // queries take the exact path otherwise).
  StatusOr<std::vector<QueryResult>> ApproxTraversalQuery(
      const double* q_original, size_t k, const ApproxOptions& approx) const;

  // The answer for owner `id` at squared distance `d2`, its point mapped
  // back to the original coordinates.
  QueryResult MakeResult(uint64_t id, double d2, size_t candidates) const;

  // Cell approximations, flat: every id owns max_rects_ slots of 2 * dim_
  // doubles (lo, then hi) in rect_data_, of which rect_count_[id] are used.
  size_t max_rects_;  // max(1, decomposition.max_partitions)
  std::vector<double> rect_data_;
  std::vector<uint32_t> rect_count_;

  // Witness codes, 2d faces x (d-1) bytes per id, allocated on the first
  // write; witnessed_[id] marks a valid one.
  std::vector<uint8_t> witness_codes_;
  std::vector<bool> witnessed_;

  std::vector<uint8_t> alive_;  // tombstones: 1 live, 0 deleted
  size_t live_count_ = 0;
  ExactPlan forced_plan_ = ExactPlan::kAuto;  // SetExactPlan
  ExactPlan plan_ = ExactPlan::kCellProbe;
  double expected_candidates_ = 0.0;  // ExpectedCandidates() at UpdatePlan
  NNCellBuildStats build_stats_;

  // Durable mode (set by Open): operations append here before mutating.
  std::unique_ptr<WriteAheadLog> wal_;
  std::string durable_dir_;
};

}  // namespace nncell

#endif  // NNCELL_NNCELL_NNCELL_INDEX_H_
