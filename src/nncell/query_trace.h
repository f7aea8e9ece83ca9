#ifndef NNCELL_NNCELL_QUERY_TRACE_H_
#define NNCELL_NNCELL_QUERY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace nncell {

// Opt-in per-query timeline. A caller passes a QueryTrace* into
// NNCellIndex::Query and gets back the stage-by-stage breakdown of that one
// query: the index probe (point query on the cell tree), the exact distance
// scan over the candidates, and -- in the rare numeric edge case -- the
// sequential fallback scan. Under the scan plan (NNCellIndex::exact_plan)
// the timeline is a single distance_scan over every live point. Tracing is
// independent of the global metrics registry: it costs nothing unless a
// trace object is supplied, works even when metrics are compiled out, and
// never touches shared state beyond the buffer pool's (relaxed atomic)
// access counters.
//
// See docs/OPERATIONS.md for how to read a trace.
struct QueryTrace {
  struct Stage {
    std::string name;   // "index_probe" | "distance_scan" | "fallback_scan"
    double micros = 0;  // wall time of the stage
    uint64_t items = 0; // items handled (candidates found / distances done)
  };

  std::vector<Stage> stages;

  // Totals, mirrored from the stage list for convenience.
  uint64_t candidates = 0;             // owners distance-checked
  uint64_t distance_computations = 0;  // exact L2 evaluations
  bool used_fallback = false;

  // Buffer-pool deltas of the cell-index pool across the whole query.
  // Logical = Fetch calls, physical = cache misses. Under concurrent
  // queries these attribute the *pool-wide* traffic during this query's
  // window, exact when queries run one at a time.
  uint64_t logical_reads = 0;
  uint64_t physical_reads = 0;

  void Clear() { *this = QueryTrace(); }

  // One stable JSON object (sorted keys, integers except stage timings).
  std::string ToJson() const;
};

// Monotonic stopwatch for trace stages.
class TraceTimer {
 public:
  TraceTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMicros() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace nncell

#endif  // NNCELL_NNCELL_QUERY_TRACE_H_
