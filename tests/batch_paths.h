// Which path the QueryBatch calls of a test took: the serial loop on the
// calling thread or the fan-out over the index's pool. Reads the
// query.batch.{serial,fanned_out} counters with the metrics registry
// switched on for the counter's lifetime.

#ifndef NNCELL_TESTS_BATCH_PATHS_H_
#define NNCELL_TESTS_BATCH_PATHS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/metrics_names.h"
#include "nncell/nncell_index.h"

namespace nncell {

// The smallest batch of queries costing `query_cost` each that fans out
// (NNCellIndex::kFanOutWork), and at least `at_least`.
inline size_t FanOutBatchSize(double query_cost, size_t at_least) {
  const double n = std::ceil(NNCellIndex::kFanOutWork / query_cost);
  return std::max(at_least, static_cast<size_t>(n));
}

class BatchPaths {
 public:
  BatchPaths()
      : serial_(metrics::Registry::Global().counter(
            metrics::kQueryBatchSerial)),
        fanned_out_(metrics::Registry::Global().counter(
            metrics::kQueryBatchFannedOut)),
        was_enabled_(metrics::Registry::Enabled()),
        serial_before_(serial_->Value()),
        fanned_out_before_(fanned_out_->Value()) {
    metrics::Registry::SetEnabled(true);
  }
  ~BatchPaths() { metrics::Registry::SetEnabled(was_enabled_); }

  BatchPaths(const BatchPaths&) = delete;
  BatchPaths& operator=(const BatchPaths&) = delete;

  uint64_t serial() const { return serial_->Value() - serial_before_; }
  uint64_t fanned_out() const {
    return fanned_out_->Value() - fanned_out_before_;
  }

  // Every batch since construction ran serially / fanned out. No-ops in
  // a build with the instrumentation compiled out (NNCELL_METRICS=0).
  void ExpectAllSerial(uint64_t batches) const {
#if NNCELL_METRICS
    EXPECT_EQ(serial(), batches);
    EXPECT_EQ(fanned_out(), 0u);
#else
    (void)batches;
#endif
  }
  void ExpectAllFannedOut(uint64_t batches) const {
#if NNCELL_METRICS
    EXPECT_EQ(fanned_out(), batches);
    EXPECT_EQ(serial(), 0u);
#else
    (void)batches;
#endif
  }

 private:
  metrics::Counter* serial_;
  metrics::Counter* fanned_out_;
  bool was_enabled_;
  uint64_t serial_before_;
  uint64_t fanned_out_before_;
};

}  // namespace nncell

#endif  // NNCELL_TESTS_BATCH_PATHS_H_
