#include "storage/buffer_pool.h"

#include <cstring>
#include <sstream>
#include <unordered_set>

#include "common/metrics.h"
#include "common/metrics_names.h"

namespace nncell {

namespace {

// Registry handles, resolved once. Counters aggregate over every pool in
// the process (cell index, point index, baselines alike); per-pool detail
// stays available through BufferPool::stats().
struct PoolMetrics {
  metrics::Counter* logical_reads;
  metrics::Counter* misses;
  metrics::Counter* evictions;
  metrics::Counter* writebacks;
  metrics::Gauge* pinned_frames;
};

[[maybe_unused]] const PoolMetrics& Metrics() {
  static const PoolMetrics m = {
      metrics::Registry::Global().counter(metrics::kPoolLogicalReads),
      metrics::Registry::Global().counter(metrics::kPoolMisses),
      metrics::Registry::Global().counter(metrics::kPoolEvictions),
      metrics::Registry::Global().counter(metrics::kPoolWritebacks),
      metrics::Registry::Global().gauge(metrics::kPoolPinnedFrames),
  };
  return m;
}

inline void BumpRelaxed(std::atomic<uint64_t>& v) {
  // nncell-lint: allow(relaxed-atomics) stats counters bumped under the shard
  v.fetch_add(1, std::memory_order_relaxed);  // mutex; relaxed so stats() reads lock-free
}

}  // namespace

BufferPool::BufferPool(PageFile* file, size_t capacity_pages)
    : file_(file), capacity_(capacity_pages) {
  NNCELL_CHECK(file != nullptr);
  NNCELL_CHECK(capacity_pages >= 1);
  size_t num_shards = 1;
  if (capacity_pages >= kShardThreshold) {
    num_shards = capacity_pages / (kShardThreshold / 2);
    if (num_shards > kMaxShards) num_shards = kMaxShards;
  }
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Shard capacities sum exactly to the configured budget. Constructing
    // under the (uncontended) shard mutex keeps the thread-safety analysis
    // exact: `frames` is guarded, and the exemption for constructors only
    // covers members of the object being constructed, not the Shard's.
    MutexLock lock(shard->mu);
    shard->capacity = capacity_ / num_shards + (s < capacity_ % num_shards);
    NNCELL_CHECK(shard->capacity >= 1);
    shard->frames.reserve(shard->capacity);
    shards_.push_back(std::move(shard));
  }
}

BufferPool::Frame& BufferPool::GetFrame(Shard& shard, PageId id,
                                        bool load_from_disk) {
  auto it = shard.map.find(id);
  if (it != shard.map.end()) {
    Touch(shard, it->second);
    return shard.frames[it->second];
  }

  size_t idx;
  if (!shard.free_frames.empty()) {
    idx = shard.free_frames.back();
    shard.free_frames.pop_back();
  } else if (shard.frames.size() < shard.capacity) {
    idx = shard.frames.size();
    shard.frames.emplace_back();
    shard.frames[idx].bytes.resize(file_->page_size());
  } else {
    idx = EvictOne(shard);
  }

  Frame& f = shard.frames[idx];
  f.id = id;
  NNCELL_DCHECK(!f.dirty);
  NNCELL_DCHECK(f.pins == 0);
  if (load_from_disk) {
    BumpRelaxed(shard.stats.physical_reads);
    NNCELL_METRIC_COUNT(Metrics().misses, 1);
    file_->Read(id, f.bytes.data());
  } else {
    std::memset(f.bytes.data(), 0, f.bytes.size());
  }
  shard.lru.push_front(idx);
  f.lru_it = shard.lru.begin();
  shard.map[id] = idx;
  return f;
}

void BufferPool::Touch(Shard& shard, size_t frame_idx) {
  // Relinks the frame's list node at the front: no allocation, and lru_it
  // stays valid.
  shard.lru.splice(shard.lru.begin(), shard.lru,
                   shard.frames[frame_idx].lru_it);
}

size_t BufferPool::EvictOne(Shard& shard) {
  // Oldest unpinned frame; pinned frames are not eviction candidates.
  for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
    size_t idx = *it;
    Frame& f = shard.frames[idx];
    if (f.pins > 0) continue;
    shard.lru.erase(std::next(it).base());
    NNCELL_METRIC_COUNT(Metrics().evictions, 1);
    if (f.dirty) {
      BumpRelaxed(shard.stats.writebacks);
      NNCELL_METRIC_COUNT(Metrics().writebacks, 1);
      file_->Write(f.id, f.bytes.data());
      ClearDirty(shard, f);
    }
    shard.map.erase(f.id);
    f.id = kInvalidPageId;
    return idx;
  }
  NNCELL_CHECK_MSG(false, "buffer pool shard exhausted: every frame pinned");
  return 0;  // unreachable
}

const uint8_t* BufferPool::Fetch(PageId id) {
  Shard& shard = ShardOf(id);
  MutexLock lock(shard.mu);
  BumpRelaxed(shard.stats.logical_reads);
  NNCELL_METRIC_COUNT(Metrics().logical_reads, 1);
  return GetFrame(shard, id, /*load_from_disk=*/true).bytes.data();
}

uint8_t* BufferPool::FetchMutable(PageId id) {
  Shard& shard = ShardOf(id);
  MutexLock lock(shard.mu);
  BumpRelaxed(shard.stats.logical_reads);
  NNCELL_METRIC_COUNT(Metrics().logical_reads, 1);
  Frame& f = GetFrame(shard, id, /*load_from_disk=*/true);
  MarkDirty(shard, f);
  return f.bytes.data();
}

PageId BufferPool::AllocatePage() {
  PageId id = file_->Allocate();
  Shard& shard = ShardOf(id);
  MutexLock lock(shard.mu);
  Frame& f = GetFrame(shard, id, /*load_from_disk=*/false);
  MarkDirty(shard, f);
  return id;
}

void BufferPool::FreePage(PageId id) {
  Shard& shard = ShardOf(id);
  {
    MutexLock lock(shard.mu);
    auto it = shard.map.find(id);
    if (it != shard.map.end()) {
      size_t idx = it->second;
      NNCELL_CHECK_MSG(shard.frames[idx].pins == 0, "freeing a pinned page");
      shard.lru.erase(shard.frames[idx].lru_it);
      shard.map.erase(it);
      shard.frames[idx].id = kInvalidPageId;
      ClearDirty(shard, shard.frames[idx]);
      shard.free_frames.push_back(idx);
    }
  }
  file_->Free(id);
}

void BufferPool::Pin(PageId id) {
  Shard& shard = ShardOf(id);
  MutexLock lock(shard.mu);
  Frame& f = GetFrame(shard, id, /*load_from_disk=*/true);
  if (f.pins == 0) {
    ++shard.pinned_frames;
    NNCELL_METRIC_GAUGE_ADD(Metrics().pinned_frames, 1);
  }
  ++f.pins;
}

void BufferPool::Unpin(PageId id) {
  Shard& shard = ShardOf(id);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(id);
  NNCELL_CHECK_MSG(it != shard.map.end(), "unpinning a non-resident page");
  Frame& f = shard.frames[it->second];
  NNCELL_CHECK_MSG(f.pins > 0, "double unpin");
  --f.pins;
  if (f.pins == 0) {
    NNCELL_CHECK(shard.pinned_frames > 0);
    --shard.pinned_frames;
    NNCELL_METRIC_GAUGE_ADD(Metrics().pinned_frames, -1);
  }
}

size_t BufferPool::pinned_frames() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->pinned_frames;
  }
  return total;
}

size_t BufferPool::dirty_frames() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->dirty_frames;
  }
  return total;
}

void BufferPool::Flush() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (Frame& f : shard->frames) {
      if (f.id != kInvalidPageId && f.dirty) {
        BumpRelaxed(shard->stats.writebacks);
        NNCELL_METRIC_COUNT(Metrics().writebacks, 1);
        file_->Write(f.id, f.bytes.data());
        ClearDirty(*shard, f);
      }
    }
  }
}

void BufferPool::Invalidate() {
  NNCELL_CHECK_MSG(pinned_frames() == 0, "Invalidate with pinned pages");
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (Frame& f : shard->frames) {
      f.id = kInvalidPageId;
      ClearDirty(*shard, f);
    }
    shard->lru.clear();
    shard->map.clear();
    shard->free_frames.clear();
    for (size_t i = 0; i < shard->frames.size(); ++i) {
      shard->free_frames.push_back(i);
    }
  }
}

void BufferPool::DropCache() {
  NNCELL_CHECK_MSG(pinned_frames() == 0, "DropCache with pinned pages");
  Flush();
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (Frame& f : shard->frames) f.id = kInvalidPageId;
    shard->lru.clear();
    shard->map.clear();
    shard->free_frames.clear();
    for (size_t i = 0; i < shard->frames.size(); ++i) {
      shard->free_frames.push_back(i);
    }
  }
}

BufferStats BufferPool::stats() const {
  // Lock-free sum over the shards: the counters are relaxed atomics, so a
  // mid-query reader (metrics snapshot, QueryTrace) never contends with
  // the fetch path and TSan stays clean.
  BufferStats total;
  for (const auto& shard : shards_) {
    total.logical_reads +=  // nncell-lint: allow(relaxed-atomics) sum is
        shard->stats.logical_reads.load(std::memory_order_relaxed);
    total.physical_reads +=  // nncell-lint: allow(relaxed-atomics) a point-
        shard->stats.physical_reads.load(std::memory_order_relaxed);
    total.writebacks +=  // nncell-lint: allow(relaxed-atomics) in-time read
        shard->stats.writebacks.load(std::memory_order_relaxed);
  }
  return total;
}

void BufferPool::ResetStats() {
  for (auto& shard : shards_) {
    // nncell-lint: allow(relaxed-atomics) quiescent-point reset (writer-exclusive)
    shard->stats.logical_reads.store(0, std::memory_order_relaxed);
    // nncell-lint: allow(relaxed-atomics) quiescent-point reset (writer-exclusive)
    shard->stats.physical_reads.store(0, std::memory_order_relaxed);
    // nncell-lint: allow(relaxed-atomics) quiescent-point reset (writer-exclusive)
    shard->stats.writebacks.store(0, std::memory_order_relaxed);
  }
}

Status BufferPool::AuditPins(bool expect_unpinned) const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    std::ostringstream err;
    err << "shard " << s << ": ";

    // 1. The map and the frame table agree.
    for (const auto& [id, idx] : shard.map) {
      if (idx >= shard.frames.size()) {
        err << "map entry for page " << id << " points past the frame table";
        return Status::Internal(err.str());
      }
      if (shard.frames[idx].id != id) {
        err << "map says frame " << idx << " holds page " << id
            << " but the frame says " << shard.frames[idx].id;
        return Status::Internal(err.str());
      }
    }

    // 2. LRU list: no duplicates, every element resident and mapped.
    std::unordered_set<size_t> in_lru;
    for (size_t idx : shard.lru) {
      if (idx >= shard.frames.size()) {
        err << "LRU references a frame past the table";
        return Status::Internal(err.str());
      }
      if (!in_lru.insert(idx).second) {
        err << "frame " << idx << " appears twice in the LRU list";
        return Status::Internal(err.str());
      }
      const Frame& f = shard.frames[idx];
      if (f.id == kInvalidPageId) {
        err << "LRU frame " << idx << " holds no page";
        return Status::Internal(err.str());
      }
      auto it = shard.map.find(f.id);
      if (it == shard.map.end() || it->second != idx) {
        err << "LRU frame " << idx << " (page " << f.id << ") not in the map";
        return Status::Internal(err.str());
      }
    }
    if (in_lru.size() != shard.map.size()) {
      err << "LRU size " << in_lru.size() << " != map size "
          << shard.map.size();
      return Status::Internal(err.str());
    }

    // 3. Free frames: empty, clean, unpinned, and disjoint from the LRU.
    std::unordered_set<size_t> in_free;
    for (size_t idx : shard.free_frames) {
      if (idx >= shard.frames.size()) {
        err << "free list references a frame past the table";
        return Status::Internal(err.str());
      }
      if (!in_free.insert(idx).second) {
        err << "frame " << idx << " appears twice in the free list";
        return Status::Internal(err.str());
      }
      const Frame& f = shard.frames[idx];
      if (f.id != kInvalidPageId || f.dirty || f.pins != 0) {
        err << "free frame " << idx << " is not empty/clean/unpinned";
        return Status::Internal(err.str());
      }
      if (in_lru.count(idx) != 0) {
        err << "frame " << idx << " is both free and in the LRU";
        return Status::Internal(err.str());
      }
    }
    if (in_lru.size() + in_free.size() != shard.frames.size()) {
      err << "frames " << shard.frames.size() << " != LRU " << in_lru.size()
          << " + free " << in_free.size() << " (orphaned frame)";
      return Status::Internal(err.str());
    }

    // 4. Incremental counters match a recount.
    size_t pinned = 0, dirty = 0;
    for (const Frame& f : shard.frames) {
      if (f.pins > 0) ++pinned;
      if (f.dirty) ++dirty;
    }
    if (pinned != shard.pinned_frames) {
      err << "pinned-frame counter " << shard.pinned_frames
          << " != recount " << pinned;
      return Status::Internal(err.str());
    }
    if (dirty != shard.dirty_frames) {
      err << "dirty-frame counter " << shard.dirty_frames << " != recount "
          << dirty;
      return Status::Internal(err.str());
    }

    // 5. Pin leaks: at a quiescent point every Pin must have been Unpinned.
    if (expect_unpinned && pinned != 0) {
      err << pinned << " frame(s) still pinned at a quiescent point:";
      for (const Frame& f : shard.frames) {
        if (f.pins > 0) err << " page " << f.id << " (x" << f.pins << ")";
      }
      return Status::Internal(err.str());
    }
  }
  return Status::OK();
}

}  // namespace nncell
