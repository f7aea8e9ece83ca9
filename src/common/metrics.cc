#include "common/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/kernels/kernels.h"

namespace nncell {
namespace metrics {

namespace internal {

size_t ThisThreadStripe() {
  // Round-robin stripe assignment at first use: contention-free up to
  // kStripes concurrent threads, merely shared beyond that.
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

}  // namespace internal

std::atomic<bool> Registry::enabled_{false};

Registry::Registry() {
  for (const MetricDef& def : kMetricDefs) {
    Slot slot;
    slot.def = def;
    switch (def.kind) {
      case Kind::kCounter:
        slot.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        slot.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        slot.histogram = std::make_unique<Histogram>();
        break;
    }
    auto [it, inserted] = slots_.emplace(def.name, std::move(slot));
    NNCELL_CHECK_MSG(inserted, "duplicate metric name in kMetricDefs");
  }
  // The dispatch level is fixed for the process lifetime; recording it at
  // construction makes every snapshot carry it (ResetAll re-sets it, since
  // a zeroed gauge would misread as a valid level: scalar).
  gauge(kKernelsDispatch)
      ->Set(static_cast<int64_t>(kernels::ActiveLevel()));
}

Registry& Registry::Global() {
  // Leaked singleton: instrumented code may run during static destruction.
  // nncell-lint: allow(naked-new) process-lifetime singleton, never freed
  static Registry* const g = new Registry();
  return *g;
}

const Registry::Slot& Registry::FindSlot(std::string_view name,
                                         Kind kind) const {
  auto it = slots_.find(name);
  NNCELL_CHECK_MSG(it != slots_.end(),
                   "metric not in common/metrics_names.h");
  NNCELL_CHECK_MSG(it->second.def.kind == kind, "metric kind mismatch");
  return it->second;
}

Counter* Registry::counter(std::string_view name) const {
  return FindSlot(name, Kind::kCounter).counter.get();
}

Gauge* Registry::gauge(std::string_view name) const {
  return FindSlot(name, Kind::kGauge).gauge.get();
}

Histogram* Registry::histogram(std::string_view name) const {
  return FindSlot(name, Kind::kHistogram).histogram.get();
}

void Registry::ResetAll() {
  for (auto& [name, slot] : slots_) {
    if (slot.counter) slot.counter->Reset();
    if (slot.gauge) slot.gauge->Reset();
    if (slot.histogram) slot.histogram->Reset();
  }
  // Process-constant gauges survive resets; a zeroed dispatch level would
  // misread as scalar.
  gauge(kKernelsDispatch)
      ->Set(static_cast<int64_t>(kernels::ActiveLevel()));
}

const SnapshotEntry* Snapshot::Find(std::string_view name) const {
  for (const SnapshotEntry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Snapshot Registry::TakeSnapshot() const {
  Snapshot snap;
  snap.entries.reserve(slots_.size());
  // slots_ is an ordered map, so the snapshot is sorted by name already.
  for (const auto& [name, slot] : slots_) {
    SnapshotEntry e;
    e.name = name;
    e.kind = slot.def.kind;
    e.unit = slot.def.unit;
    switch (slot.def.kind) {
      case Kind::kCounter:
        e.value = slot.counter->Value();
        break;
      case Kind::kGauge:
        e.gauge = slot.gauge->Value();
        break;
      case Kind::kHistogram:
        e.buckets = slot.histogram->BucketCounts();
        e.sum = slot.histogram->Sum();
        for (uint64_t b : e.buckets) e.value += b;  // total count
        break;
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

namespace {

void AppendHistogramJson(std::ostringstream& out, const SnapshotEntry& e) {
  out << "{\"count\":" << e.value << ",\"sum\":" << e.sum << ",\"le\":[";
  constexpr size_t n = sizeof(kHistogramBounds) / sizeof(kHistogramBounds[0]);
  for (size_t i = 0; i < n; ++i) {
    if (i) out << ",";
    out << kHistogramBounds[i];
  }
  // counts has one more entry than le: the trailing overflow bucket.
  out << "],\"counts\":[";
  for (size_t i = 0; i < e.buckets.size(); ++i) {
    if (i) out << ",";
    out << e.buckets[i];
  }
  out << "]}";
}

}  // namespace

std::string Registry::SnapshotJson(int indent) const {
  Snapshot snap = TakeSnapshot();
  std::ostringstream out;
  const std::string pad =
      indent >= 0 ? "\n" + std::string(static_cast<size_t>(indent), ' ') : "";
  out << "{";
  bool first = true;
  for (const SnapshotEntry& e : snap.entries) {
    if (!first) out << ",";
    first = false;
    out << pad << "\"" << e.name << "\":";
    switch (e.kind) {
      case Kind::kCounter:
        out << e.value;
        break;
      case Kind::kGauge:
        out << e.gauge;
        break;
      case Kind::kHistogram:
        AppendHistogramJson(out, e);
        break;
    }
  }
  if (indent >= 0) out << "\n";
  out << "}";
  return out.str();
}

}  // namespace metrics
}  // namespace nncell
