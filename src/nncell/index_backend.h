#ifndef NNCELL_NNCELL_INDEX_BACKEND_H_
#define NNCELL_NNCELL_INDEX_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/approx.h"
#include "common/point_set.h"
#include "common/status.h"

namespace nncell {

// One nearest-neighbor answer, shared by every query kind of NNCellIndex
// and ShardedIndex (spelled NNCellIndex::QueryResult at most call sites).
struct QueryResult {
  uint64_t id = 0;              // index of the nearest neighbor
  double dist = 0.0;            // Euclidean distance
  std::vector<double> point;    // its coordinates
  size_t candidates = 0;        // owners distance-checked: the candidate
                                // cells under the cell-probe plan, the
                                // live points under the scan plan
  bool used_fallback = false;   // numeric edge case: fell back to scan
  ApproxCertificate approx;     // default (exact) unless ApproxOptions
                                // requested the approximate tier
};

// The index operations a query server needs. NNCellIndex and ShardedIndex
// both implement it, so one server fronts either kind directly (the
// server library stays independent of the shard layer). Thread-safety
// contract is the index's own: QueryBatch is concurrent-safe, mutations
// are called only from one thread at a time. NNCellServer goes further
// and makes at most one call on its backend at a time, all from its
// dispatcher thread; bench/e2e's traced harness wraps the index in a
// backend that relies on this.
class IndexBackend {
 public:
  virtual ~IndexBackend() = default;
  virtual size_t dim() const = 0;
  virtual bool durable() const = 0;
  // `approx` carries the request's approximate-tier knobs; a
  // default-constructed value (the usual case) must take the exact path
  // bit-identically (docs/APPROXIMATE.md).
  virtual StatusOr<std::vector<QueryResult>> QueryBatch(
      const PointSet& queries, const ApproxOptions& approx) const = 0;
  virtual StatusOr<uint64_t> Insert(const std::vector<double>& point) = 0;
  virtual Status Delete(uint64_t id) = 0;
  virtual Status Checkpoint() = 0;
  // The "shard" object of STATS_JSON, or empty for a plain index (the
  // key is omitted entirely so the unsharded schema is unchanged).
  virtual std::string ShardStatsJson() const { return std::string(); }
  // The exact-path facts of STATS_JSON's "index" object: the plan exact
  // queries take ("cell_probe", "scan", or "mixed" across shards; empty
  // omits the object), live points and ExpectedCandidates().
  virtual const char* ExactPlanName() const { return ""; }
  virtual size_t size() const { return 0; }
  virtual double ExpectedCandidates() const { return 0.0; }
};

}  // namespace nncell

#endif  // NNCELL_NNCELL_INDEX_BACKEND_H_
