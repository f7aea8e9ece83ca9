#ifndef NNCELL_COMMON_METRICS_H_
#define NNCELL_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/metrics_names.h"

// Lock-cheap process-wide metrics: named counters, gauges and fixed-bucket
// histograms behind a single registry (common/metrics_names.h is the
// closed set of names). Writes go to per-thread-striped relaxed atomics --
// no mutex on any hot path -- and Snapshot() aggregates the stripes into a
// deterministic, sorted view (stable JSON for tooling).
//
// Cost model (see bench/micro_metrics.cc for the proof):
//  * compiled out entirely with -DNNCELL_METRICS=0 (CMake option
//    NNCELL_METRICS=OFF): the NNCELL_METRIC_* macros become no-ops;
//  * runtime-disabled (the default): one relaxed atomic<bool> load and a
//    predictable branch per instrumentation site;
//  * enabled: one relaxed fetch_add on a cache-line-padded stripe owned by
//    (almost always) only this thread.
//
// Instrumented code caches the metric handle once (handles live for the
// process lifetime) and guards every update with the macros below.

#ifndef NNCELL_METRICS
#define NNCELL_METRICS 1
#endif

namespace nncell {
namespace metrics {

// Striping: each thread is assigned one of kStripes slots round-robin at
// first use; a stripe is only ever contended when more than kStripes
// threads run, and sums over all stripes are exact regardless.
inline constexpr size_t kStripes = 16;

namespace internal {
size_t ThisThreadStripe();  // stable per thread, < kStripes
}  // namespace internal

class Counter {
 public:
  void Add(uint64_t delta) {
    stripes_[internal::ThisThreadStripe()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void Reset() {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  Stripe stripes_[kStripes];
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed power-of-two buckets shared by every histogram: upper bounds
// 1, 2, 4, ..., 4096 plus an overflow bucket. Good enough resolution for
// every per-query quantity the system tracks (candidate counts, distance
// computations) while keeping snapshots byte-stable.
inline constexpr uint64_t kHistogramBounds[] = {1,   2,   4,    8,   16,
                                                32,  64,  128,  256, 512,
                                                1024, 2048, 4096};
inline constexpr size_t kHistogramBuckets =
    sizeof(kHistogramBounds) / sizeof(kHistogramBounds[0]) + 1;  // + overflow

class Histogram {
 public:
  void Record(uint64_t value) {
    size_t b = 0;
    constexpr size_t n = kHistogramBuckets - 1;
    while (b < n && value > kHistogramBounds[b]) ++b;
    Stripe& s = stripes_[internal::ThisThreadStripe()];
    s.counts[b].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  // Aggregated bucket counts; the last entry is the overflow bucket
  // (> kHistogramBounds.back()).
  std::vector<uint64_t> BucketCounts() const {
    std::vector<uint64_t> out(kHistogramBuckets, 0);
    for (const Stripe& s : stripes_) {
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        out[b] += s.counts[b].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  uint64_t Count() const {
    uint64_t c = 0;
    for (uint64_t b : BucketCounts()) c += b;
    return c;
  }

  uint64_t Sum() const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_) {
      sum += s.sum.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void Reset() {
    for (Stripe& s : stripes_) {
      for (auto& c : s.counts) c.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> counts[kHistogramBuckets]{};
    std::atomic<uint64_t> sum{0};
  };
  Stripe stripes_[kStripes];
};

// One aggregated metric value at snapshot time.
struct SnapshotEntry {
  std::string name;
  Kind kind = Kind::kCounter;
  const char* unit = "";
  uint64_t value = 0;  // counter value / histogram count
  int64_t gauge = 0;
  uint64_t sum = 0;                    // histogram only
  std::vector<uint64_t> buckets;       // histogram only
};

struct Snapshot {
  std::vector<SnapshotEntry> entries;  // sorted by name

  const SnapshotEntry* Find(std::string_view name) const;
};

// The process-wide registry. Construction registers exactly the metrics of
// kMetricDefs; lookups of unknown names abort (the name table is the
// single source of truth, enforced at runtime and by the docs check).
class Registry {
 public:
  static Registry& Global();

  Counter* counter(std::string_view name) const;
  Gauge* gauge(std::string_view name) const;
  Histogram* histogram(std::string_view name) const;

  // Runtime switch read by the NNCELL_METRIC_* macros. Disabled by default
  // so un-instrumented workloads (benchmarks in particular) pay only the
  // one-branch guard.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Zeroes every metric (tests / tools measuring deltas from a clean
  // slate). Concurrent writers may race individual increments past the
  // reset, as with any stats reset; call at quiescent points.
  void ResetAll();

  // Deterministic aggregated view, sorted by metric name.
  Snapshot TakeSnapshot() const;

  // Stable JSON rendering of TakeSnapshot(): keys sorted, integers only,
  // no whitespace variance. `indent` >= 0 pretty-prints with that many
  // leading spaces per line.
  std::string SnapshotJson(int indent = -1) const;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry();

  struct Slot {
    MetricDef def;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  const Slot& FindSlot(std::string_view name, Kind kind) const;

  static std::atomic<bool> enabled_;
  std::map<std::string, Slot, std::less<>> slots_;  // immutable after ctor
};

}  // namespace metrics
}  // namespace nncell

// Instrumentation macros: compiled out under NNCELL_METRICS=0, a single
// relaxed load + branch when runtime-disabled. `handle` is a Counter* /
// Gauge* / Histogram* the call site cached from the registry.
#if NNCELL_METRICS
#define NNCELL_METRIC_COUNT(handle, delta)                       \
  do {                                                           \
    if (::nncell::metrics::Registry::Enabled()) {                \
      (handle)->Add(static_cast<uint64_t>(delta));               \
    }                                                            \
  } while (0)
#define NNCELL_METRIC_GAUGE_ADD(handle, delta)                   \
  do {                                                           \
    if (::nncell::metrics::Registry::Enabled()) {                \
      (handle)->Add(static_cast<int64_t>(delta));                \
    }                                                            \
  } while (0)
#define NNCELL_METRIC_RECORD(handle, value)                      \
  do {                                                           \
    if (::nncell::metrics::Registry::Enabled()) {                \
      (handle)->Record(static_cast<uint64_t>(value));            \
    }                                                            \
  } while (0)
#else
#define NNCELL_METRIC_COUNT(handle, delta) ((void)0)
#define NNCELL_METRIC_GAUGE_ADD(handle, delta) ((void)0)
#define NNCELL_METRIC_RECORD(handle, value) ((void)0)
#endif

#endif  // NNCELL_COMMON_METRICS_H_
