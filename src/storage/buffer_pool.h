#ifndef NNCELL_STORAGE_BUFFER_POOL_H_
#define NNCELL_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page_file.h"

namespace nncell {

// Aggregated access counters (a point-in-time snapshot; see stats()).
struct BufferStats {
  uint64_t logical_reads = 0;   // Fetch calls
  uint64_t physical_reads = 0;  // cache misses -> disk reads
  uint64_t writebacks = 0;      // dirty evictions / flushes

  void Reset() { logical_reads = physical_reads = writebacks = 0; }
};

// LRU page cache over a PageFile, safe for N concurrent readers. The frame
// table is split into shards (pages hash to a shard by id, each shard has
// its own mutex, LRU list and slice of the capacity), so concurrent
// fetches of different pages rarely contend. This is still "the same
// amount of cache" every index structure is allowed in the paper's
// evaluation: the shard capacities sum to `capacity_pages`. Small pools
// (below kShardThreshold pages) use a single shard and behave exactly like
// the classic single-threaded LRU cache.
//
// Threading contract:
//  * Any number of threads may call Fetch / Pin / Unpin concurrently.
//  * Mutations (FetchMutable, Allocate*, FreePage, Flush, DropCache,
//    Invalidate) require exclusive access: one writer, no readers. The
//    tree layer enforces this (builds commit single-threaded; queries are
//    read-only).
//  * A pointer returned by Fetch is guaranteed stable only while the
//    caller holds a pin on the page; unpinned frames may be evicted and
//    recycled by any other thread's miss.
//
// Pinning: Pin(id) keeps the page resident (its frame is never evicted and
// its bytes never move) until the matching Unpin(id). Pins nest; the count
// lives in the frame itself and is manipulated under the shard mutex. The
// node store pins a node's pages while scanning it so the zero-copy
// EntryView cursors stay valid even while sibling readers fault pages in
// and out of the same shard. Unpinning a page that is not pinned, or
// freeing/dropping a pinned page, is a programming error and aborts.
// AuditPins() is the quiescent-point validator: it locks every shard and
// cross-checks the frame tables, LRU lists, free lists, pin counts and
// dirty accounting.
class BufferPool {
 public:
  BufferPool(PageFile* file, size_t capacity_pages);

  size_t page_size() const { return file_->page_size(); }
  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  PageFile* file() const { return file_; }

  // Read access to a page's bytes (through the cache). See the threading
  // contract above for pointer stability.
  const uint8_t* Fetch(PageId id);

  // Write access; marks the page dirty. The frame contents are written
  // back to the PageFile on eviction or Flush. Writer-exclusive.
  uint8_t* FetchMutable(PageId id);

  // Allocates a fresh page and returns its id; the zeroed frame is cached
  // and dirty. Writer-exclusive.
  PageId AllocatePage();

  // Frees a page; drops its frame without write-back. The page must not be
  // pinned. Writer-exclusive.
  void FreePage(PageId id);

  // Keeps the page resident (loading it if necessary) until Unpin. Pins
  // nest; every Pin needs a matching Unpin.
  void Pin(PageId id);

  // Releases one pin. Aborts when the page is not resident or not pinned
  // (double-unpin detection).
  void Unpin(PageId id);

  // Number of currently pinned frames (not pin nesting depth), summed over
  // the shards.
  size_t pinned_frames() const;
  // Number of dirty frames, maintained incrementally per shard (audited
  // against a recount by AuditPins).
  size_t dirty_frames() const;

  // Writes all dirty frames back. Writer-exclusive.
  void Flush();

  // Flush + drop every frame: simulates a cold cache (used before queries
  // so that page-access counts match the paper's cold measurements).
  // Requires that no page is pinned. Writer-exclusive.
  void DropCache();

  // Drops every frame WITHOUT write-back. Only for invalidating the cache
  // after the underlying PageFile was replaced wholesale (persistence).
  // Requires that no page is pinned. Writer-exclusive.
  void Invalidate();

  // Quiescent-point self-check. Verifies per shard that the frame map,
  // LRU list and free-frame list exactly partition the frame table, that
  // the incremental pin/dirty counters match a recount, and (when
  // `expect_unpinned`, the default) that every pin has been released --
  // i.e. no pin leaks. Returns OK or a description of the first violation.
  Status AuditPins(bool expect_unpinned = true) const;

  // Aggregated over the shards. The per-shard counters are relaxed
  // atomics, so this is safe to call from any thread while queries are in
  // flight (the metrics registry and QueryTrace read it mid-query); the
  // result is a consistent-enough point-in-time sum, exact at quiescent
  // points.
  BufferStats stats() const;
  void ResetStats();

 private:
  struct Frame {
    std::vector<uint8_t> bytes;
    PageId id = kInvalidPageId;
    bool dirty = false;
    uint32_t pins = 0;
    std::list<size_t>::iterator lru_it;
  };

  // Shard access counters. Increments happen under the shard mutex (they
  // accompany structural changes anyway), but they are atomics so the
  // stats read path -- which may run mid-query, e.g. from a QueryTrace or
  // a metrics snapshot -- can sum them without taking the shard locks.
  struct ShardStats {
    std::atomic<uint64_t> logical_reads{0};
    std::atomic<uint64_t> physical_reads{0};
    std::atomic<uint64_t> writebacks{0};
  };

  struct Shard {
    mutable Mutex mu;
    size_t capacity = 0;  // fixed at construction, read-only afterwards
    std::vector<Frame> frames NNCELL_GUARDED_BY(mu);
    std::list<size_t> lru NNCELL_GUARDED_BY(mu);  // front = most recent
    std::unordered_map<PageId, size_t> map NNCELL_GUARDED_BY(mu);
    std::vector<size_t> free_frames NNCELL_GUARDED_BY(mu);
    size_t pinned_frames NNCELL_GUARDED_BY(mu) = 0;
    size_t dirty_frames NNCELL_GUARDED_BY(mu) = 0;
    ShardStats stats;  // relaxed atomics: lock-free reads by stats()
  };

  // Pools smaller than this stay single-sharded (exact classic LRU
  // semantics for the fine-grained unit tests and tiny ad-hoc caches).
  static constexpr size_t kShardThreshold = 64;
  static constexpr size_t kMaxShards = 16;

  Shard& ShardOf(PageId id) {
    return *shards_[static_cast<size_t>(id) % shards_.size()];
  }

  // All helpers below require shard.mu to be held by the caller.
  Frame& GetFrame(Shard& shard, PageId id, bool load_from_disk)
      NNCELL_REQUIRES(shard.mu);
  void Touch(Shard& shard, size_t frame_idx) NNCELL_REQUIRES(shard.mu);
  size_t EvictOne(Shard& shard) NNCELL_REQUIRES(shard.mu);
  void MarkDirty(Shard& shard, Frame& f) NNCELL_REQUIRES(shard.mu) {
    if (!f.dirty) {
      f.dirty = true;
      ++shard.dirty_frames;
    }
  }
  void ClearDirty(Shard& shard, Frame& f) NNCELL_REQUIRES(shard.mu) {
    if (f.dirty) {
      f.dirty = false;
      NNCELL_CHECK(shard.dirty_frames > 0);
      --shard.dirty_frames;
    }
  }

  PageFile* file_;
  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// RAII pin: pins `id` on construction, unpins on destruction. Move-only.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, PageId id) : pool_(pool), id_(id) {
    pool_->Pin(id_);
  }
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept
      : pool_(other.pool_), id_(other.id_) {
    other.pool_ = nullptr;
  }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      id_ = other.id_;
      other.pool_ = nullptr;
    }
    return *this;
  }

  void Release() {
    if (pool_ != nullptr) {
      pool_->Unpin(id_);
      pool_ = nullptr;
    }
  }

 private:
  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
};

}  // namespace nncell

#endif  // NNCELL_STORAGE_BUFFER_POOL_H_
