// Concurrency suite: the thread pool itself, the determinism contract of
// the parallel build (serial and 8-thread builds must produce the same
// bytes), and reader-parallel query traffic over a shared buffer pool.
// Run under the `tsan` preset this is the data-race detector's workload;
// under the plain presets it is a functional regression test.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "batch_paths.h"
#include "common/distance.h"
#include "common/hyper_rect.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

TEST(ThreadPoolTest, DrainsEverySubmittedTaskBeforeJoining) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    for (int i = 0; i < 500; ++i) {
      pool.Submit(
          [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    // The destructor drains all queued work before joining the workers.
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.ParallelFor(5, 5, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(7, 9, [&](size_t i) {
    EXPECT_TRUE(i == 7 || i == 8);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, ParallelForFromConcurrentExternalThreads) {
  // The documented contract: ParallelFor may be called from any number of
  // external (non-pool) threads at once. Each caller must see exactly its
  // own range completed before ParallelFor returns.
  ThreadPool pool(4);
  constexpr size_t kCallers = 6;
  constexpr size_t kN = 2000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& v : hits) {
    std::vector<std::atomic<int>> fresh(kN);
    for (auto& h : fresh) h.store(0);
    v.swap(fresh);
  }
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(0, kN, [&, c](size_t i) {
        hits[c][i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[c][i].load(), 1) << "caller " << c << " index " << i;
      }
    });
  }
  for (auto& t : callers) t.join();
}

TEST(ThreadPoolTest, NestedParallelForOnOneWorkerCompletes) {
  // The only worker runs a task that calls ParallelFor: the task's thread
  // is the caller and works through the nested chunks itself.
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  std::promise<void> done;
  pool.Submit([&] {
    pool.ParallelFor(0, 100, [&](size_t) { inner.fetch_add(1); });
    done.set_value();
  });
  done.get_future().wait();
  EXPECT_EQ(inner.load(), 100);

  // ParallelFor inside ParallelFor: the outer chunks run on the external
  // caller and on the worker, each a nested caller.
  std::atomic<int> nested{0};
  pool.ParallelFor(0, 8, [&](size_t) {
    pool.ParallelFor(0, 16, [&](size_t) { nested.fetch_add(1); });
  });
  EXPECT_EQ(nested.load(), 8 * 16);
}

TEST(ThreadPoolTest, TinyParallelForsLeaveNoLateHelperBehind) {
  // The caller usually runs both iterations before a woken helper gets
  // to claim one. Such a late helper must leave without touching the
  // body, whose captures (this loop's stack slots) are gone by then;
  // ASan and TSan report it if it does not.
  ThreadPool pool(4);
  uint64_t sum = 0;
  for (uint64_t call = 0; call < 10000; ++call) {
    uint64_t slots[2] = {0, 0};
    pool.ParallelFor(0, 2, [&slots, call](size_t i) { slots[i] = call + i; });
    sum += slots[0] + slots[1];
  }
  EXPECT_EQ(sum, 10000ull * 9999ull + 10000ull);
}

TEST(ThreadPoolTest, ParallelMapReportsLowestFailureOnBothSides) {
  // BatchPool picks the serial loop just below kFanOutWork and the pool
  // at it; either way the lowest failing index's status wins, and the
  // serial loop stops there.
  ThreadPool pool(4);
  constexpr size_t kN = 64;
  std::atomic<size_t> calls{0};
  auto fn = [&calls](size_t i) -> StatusOr<size_t> {
    calls.fetch_add(1);
    if (i == 5 || i == 37 || i == 60) {
      return Status::Internal("slot " + std::to_string(i));
    }
    return 2 * i;
  };
  const double at = NNCellIndex::kFanOutWork / kN;
  BatchPaths paths;
  for (double cost : {at * 0.99, at}) {
    calls = 0;
    auto failed = ParallelMap<size_t>(BatchPool(&pool, kN, cost), kN, fn);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().message(), "slot 5") << cost;
    if (cost < at) {
      EXPECT_EQ(calls.load(), 6u) << "serial: slots 0..5 only";
    }
    auto all = ParallelMap<size_t>(
        BatchPool(&pool, kN, cost), kN,
        [](size_t i) -> StatusOr<size_t> { return 2 * i; });
    ASSERT_TRUE(all.ok());
    for (size_t i = 0; i < kN; ++i) EXPECT_EQ((*all)[i], 2 * i);
  }
#if NNCELL_METRICS
  EXPECT_EQ(paths.serial(), 2u);
  EXPECT_EQ(paths.fanned_out(), 2u);
#endif
}

// ---------------------------------------------------------------------------
// Build determinism: a parallel build fans the per-point LP solves across
// workers into their own slots, then stores the results in one serial pass
// in point order, so the persisted image must be byte-identical to a
// serial build.

std::string BuildAndSerialize(const PointSet& pts, size_t num_threads,
                              bool use_xtree, size_t max_partitions) {
  PageFile file(2048);
  BufferPool pool(&file, 512);
  NNCellOptions options;
  options.algorithm = ApproxAlgorithm::kSphere;
  options.use_xtree = use_xtree;
  options.decomposition.max_partitions = max_partitions;
  options.parallel.num_threads = num_threads;
  NNCellIndex index(&pool, pts.dim(), options);
  Status built = index.BulkBuild(pts);
  EXPECT_TRUE(built.ok()) << built.ToString();
  std::ostringstream out;
  Status saved = index.Save(out);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return out.str();
}

TEST(BuildDeterminismTest, ParallelBuildIsByteIdenticalToSerial) {
  PointSet pts = GenerateUniform(300, 8, 42);
  const std::string serial = BuildAndSerialize(pts, 1, true, 1);
  for (size_t threads : {2u, 8u}) {
    const std::string parallel = BuildAndSerialize(pts, threads, true, 1);
    EXPECT_EQ(serial, parallel) << threads << "-thread build diverged";
  }
}

TEST(BuildDeterminismTest, HoldsForRStarAndDecomposedVariants) {
  PointSet pts = GenerateUniform(200, 6, 77);
  // R*-tree backend (no supernodes) and Section-3 decomposition both go
  // through the same phase-2 fan-out; neither may perturb the image.
  EXPECT_EQ(BuildAndSerialize(pts, 1, false, 1),
            BuildAndSerialize(pts, 8, false, 1));
  EXPECT_EQ(BuildAndSerialize(pts, 1, true, 4),
            BuildAndSerialize(pts, 8, true, 4));
}

TEST(BuildDeterminismTest, LpHotPathOptimizationsAreThreadCountInvariant) {
  // The optimized LP pipeline (bisector pre-pruning + ray-shoot warm
  // starts) keeps all of its state per cell, so it must not perturb the
  // byte-identity contract; the cold configuration is pinned alongside it
  // so a regression is attributable to one pipeline. kCorrect at d = 16
  // maximizes both the skipped-face rate and the constraint-row count.
  PointSet pts = GenerateUniform(160, 16, 29);
  for (bool optimized : {true, false}) {
    NNCellOptions options;
    options.algorithm = ApproxAlgorithm::kCorrect;
    options.approx.prune_bisectors = optimized;
    options.approx.warm_start = optimized;
    std::string serial;
    for (size_t threads : {1u, 2u, 8u}) {
      PageFile f(2048);
      BufferPool p(&f, 512);
      options.parallel.num_threads = threads;
      NNCellIndex index(&p, pts.dim(), options);
      Status built = index.BulkBuild(pts);
      ASSERT_TRUE(built.ok()) << built.ToString();
      std::ostringstream out;
      Status saved = index.Save(out);
      ASSERT_TRUE(saved.ok()) << saved.ToString();
      if (threads == 1) {
        serial = out.str();
      } else {
        EXPECT_EQ(serial, out.str())
            << threads << "-thread " << (optimized ? "optimized" : "cold")
            << " build diverged";
      }
    }
  }
}

TEST(BuildDeterminismTest, HoldsInSupernodeDimensionality) {
  // d = 16: high-dimensional MBR overlap, where the insert path grows
  // X-tree supernodes (a fresh build packs single-page nodes).
  PointSet pts = GenerateUniform(220, 16, 3);
  EXPECT_EQ(BuildAndSerialize(pts, 1, true, 1),
            BuildAndSerialize(pts, 8, true, 1));
}

// A fresh BulkBuild packs the cell tree in one pass (SplitPartition); an
// index grown by Insert puts every rectangle through the insert path. Both
// must give the brute-force answers, and the candidate counts that brute
// force over their own cell rectangles implies.

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// The live owners with a cell rectangle meeting [lo, hi], and the number
// of their rectangles that do.
struct Meeting {
  std::vector<uint64_t> owners;
  size_t rects = 0;
};

Meeting OwnersMeeting(const NNCellIndex& index, const double* lo,
                      const double* hi) {
  Meeting m;
  const size_t d = index.dim();
  for (uint64_t id = 0; id < index.points().size(); ++id) {
    if (!index.IsAlive(id)) continue;
    size_t rects = 0;
    for (const HyperRect& r : index.CellRects(id)) {
      if (RawIntersects(r.lo(), r.hi(), lo, hi, d)) ++rects;
    }
    m.rects += rects;
    if (rects > 0) m.owners.push_back(id);
  }
  return m;
}

// NN, 5-NN and range answers through the cell probe, against brute force:
// ids, distance bits and candidate counts. The kNN count follows the
// probe's radius rule: the k-th nearest owner among the point query's,
// quadrupled in d^2 until the ball holds k points.
void ExpectOracleAnswers(NNCellIndex* index, uint64_t seed) {
  index->SetExactPlan(ExactPlan::kCellProbe);
  const size_t d = index->dim();
  const PointSet queries = GenerateQueries(25, d, seed);
  for (size_t t = 0; t < queries.size(); ++t) {
    SCOPED_TRACE(t);
    const double* q = queries[t];
    std::vector<std::pair<double, uint64_t>> all;  // (d^2, id) of live points
    for (uint64_t id = 0; id < index->points().size(); ++id) {
      if (index->IsAlive(id)) {
        all.emplace_back(L2DistSq(index->points()[id], q, d), id);
      }
    }
    std::sort(all.begin(), all.end());
    auto in_ball = [&](double r_sq) {
      return static_cast<size_t>(
          std::upper_bound(all.begin(), all.end(),
                           std::make_pair(r_sq, ~uint64_t{0})) -
          all.begin());
    };
    auto ball_owners = [&](double r) {
      std::vector<double> lo(d), hi(d);
      for (size_t i = 0; i < d; ++i) {
        lo[i] = q[i] - r;
        hi[i] = q[i] + r;
      }
      return OwnersMeeting(*index, lo.data(), hi.data()).owners.size();
    };

    const Meeting at_q = OwnersMeeting(*index, q, q);
    auto nn = index->Query(q);
    ASSERT_TRUE(nn.ok()) << nn.status().ToString();
    EXPECT_EQ(nn->id, all[0].second);
    EXPECT_EQ(Bits(nn->dist), Bits(std::sqrt(all[0].first)));
    EXPECT_EQ(nn->candidates, at_q.rects);

    constexpr size_t k = 5;
    size_t knn_candidates = at_q.owners.size();
    if (knn_candidates < all.size()) {
      std::vector<double> seed_d2;
      for (uint64_t id : at_q.owners) {
        seed_d2.push_back(L2DistSq(index->points()[id], q, d));
      }
      std::sort(seed_d2.begin(), seed_d2.end());
      double r_sq = seed_d2.size() >= k ? seed_d2[k - 1]
                    : seed_d2.empty()   ? 1e-6
                                        : std::max(seed_d2.back(), 1e-12);
      while (true) {
        knn_candidates = ball_owners(std::sqrt(r_sq));
        if (in_ball(r_sq) >= k) break;
        r_sq *= 4.0;
      }
    }
    auto knn = index->KnnQuery(q, k);
    ASSERT_TRUE(knn.ok()) << knn.status().ToString();
    ASSERT_EQ(knn->size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ((*knn)[i].id, all[i].second) << "rank " << i;
      EXPECT_EQ(Bits((*knn)[i].dist), Bits(std::sqrt(all[i].first)));
      EXPECT_EQ((*knn)[i].candidates, knn_candidates);
    }

    const double radius = std::sqrt(all[2].first);
    const size_t want = in_ball(radius * radius);
    auto range = index->RangeSearch(q, radius);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    ASSERT_EQ(range->size(), want);
    const size_t range_candidates = ball_owners(radius);
    for (size_t i = 0; i < want; ++i) {
      EXPECT_EQ((*range)[i].id, all[i].second);
      EXPECT_EQ(Bits((*range)[i].dist), Bits(std::sqrt(all[i].first)));
      EXPECT_EQ((*range)[i].candidates, range_candidates);
    }
  }
}

TEST(BuildDeterminismTest, PackedAndInsertBuiltCellTreesAnswerAsBruteForce) {
  struct Case {
    const char* name;
    size_t n, dim;
    ApproxAlgorithm algorithm;
    size_t max_partitions;
  };
  for (const Case& c : {Case{"d4", 300, 4, ApproxAlgorithm::kSphere, 1},
                        Case{"d8", 200, 8, ApproxAlgorithm::kSphere, 1},
                        Case{"d16", 100, 16, ApproxAlgorithm::kSphere, 1},
                        Case{"d4_decomposed", 120, 4, ApproxAlgorithm::kSphere,
                             4},
                        Case{"d4_nn_direction", 300, 4,
                             ApproxAlgorithm::kNNDirection, 1}}) {
    SCOPED_TRACE(c.name);
    const PointSet pts = GenerateUniform(c.n, c.dim, 101 + c.dim);
    NNCellOptions options;
    options.algorithm = c.algorithm;
    options.decomposition.max_partitions = c.max_partitions;

    // 1 KiB pages give the packed tree a directory above its leaves.
    PageFile packed_file(1024), grown_file(1024);
    BufferPool packed_pool(&packed_file, 512), grown_pool(&grown_file, 512);
    options.parallel.num_threads = 4;
    NNCellIndex packed(&packed_pool, c.dim, options);
    ASSERT_TRUE(packed.BulkBuild(pts).ok());
    options.parallel.num_threads = 1;
    NNCellIndex grown(&grown_pool, c.dim, options);
    for (size_t i = 0; i < pts.size(); ++i) {
      ASSERT_TRUE(grown.Insert(pts.Get(i)).ok());
    }
    EXPECT_GT(packed.TreeInfo().height, 2u);
    EXPECT_EQ(packed.TreeInfo().num_supernodes, 0u);
    ExpectOracleAnswers(&packed, 7);
    ExpectOracleAnswers(&grown, 7);
    ASSERT_TRUE(packed.CheckInvariants(20).ok());
    ASSERT_TRUE(grown.CheckInvariants(20).ok());

    // The packed tree then takes the regular write path.
    const PointSet extra = GenerateUniform(100, c.dim, 202 + c.dim);
    for (size_t i = 0; i < extra.size(); ++i) {
      ASSERT_TRUE(packed.Insert(extra.Get(i)).ok());
    }
    for (uint64_t id = 0; id < 200; id += 2) {
      ASSERT_TRUE(packed.Delete(id).ok()) << id;
    }
    Status ok = packed.CheckInvariants(20);
    ASSERT_TRUE(ok.ok()) << ok.ToString();
    ExpectOracleAnswers(&packed, 8);
  }
}

// ---------------------------------------------------------------------------
// Reader-parallel query traffic

struct SharedIndex {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<NNCellIndex> index;
};

SharedIndex MakeSharedIndex(size_t n, size_t dim, size_t pool_capacity) {
  SharedIndex s;
  s.file = std::make_unique<PageFile>(2048);
  // A deliberately small pool forces eviction pressure: concurrent readers
  // continually fault pages in and out of the shared shards.
  s.pool = std::make_unique<BufferPool>(s.file.get(), pool_capacity);
  NNCellOptions options;
  options.algorithm = ApproxAlgorithm::kSphere;
  s.index = std::make_unique<NNCellIndex>(s.pool.get(), dim, options);
  // These few hundred points would plan a scan of the point table; the
  // cell probe keeps the readers traversing the tree through the pool.
  s.index->SetExactPlan(ExactPlan::kCellProbe);
  PointSet pts = GenerateUniform(n, dim, 11);
  Status built = s.index->BulkBuild(pts);
  EXPECT_TRUE(built.ok()) << built.ToString();
  return s;
}

TEST(ConcurrencyTest, ConcurrentReadersAgreeWithSerialAnswers) {
  SharedIndex s = MakeSharedIndex(400, 8, 96);
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 5;
  constexpr size_t kQueriesPerRound = 10;

  PointSet queries =
      GenerateQueries(kThreads * kRounds * kQueriesPerRound, 8, 21);
  // Serial ground truth, computed up front.
  std::vector<uint64_t> want_id(queries.size());
  std::vector<double> want_dist(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = s.index->Query(queries[i]);
    ASSERT_TRUE(r.ok());
    want_id[i] = r->id;
    want_dist[i] = r->dist;
  }

  // All threads sit between rounds when the barrier completion step runs,
  // so no page guard is live: the strict no-pin-leak audit must pass at
  // every round boundary, not just at the end.
  std::atomic<int> audit_failures{0};
  std::barrier round_barrier(
      static_cast<std::ptrdiff_t>(kThreads), [&]() noexcept {
        if (!s.pool->AuditPins().ok()) audit_failures.fetch_add(1);
      });

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < kQueriesPerRound; ++k) {
          size_t i = (round * kThreads + t) * kQueriesPerRound + k;
          auto r = s.index->Query(queries[i]);
          if (!r.ok() || r->id != want_id[i] || r->dist != want_dist[i]) {
            mismatches.fetch_add(1);
          }
        }
        round_barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(audit_failures.load(), 0);
  Status audit = s.pool->AuditPins();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ConcurrencyTest, ConcurrentKnnAndRangeReaders) {
  // Mixed read traffic: NN point queries, k-NN (branch-and-bound) and
  // range search all traverse the tree concurrently through VisitNode.
  SharedIndex s = MakeSharedIndex(300, 6, 64);
  PointSet queries = GenerateQueries(24, 6, 33);
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 6; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = 0; i < queries.size(); ++i) {
        const double* q = queries[i];
        switch ((t + i) % 3) {
          case 0: {
            if (!s.index->Query(q).ok()) failures.fetch_add(1);
            break;
          }
          case 1: {
            auto r = s.index->KnnQuery(q, 5);
            if (!r.ok() || r->size() != 5) failures.fetch_add(1);
            break;
          }
          default: {
            if (!s.index->RangeSearch(q, 0.3).ok()) failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  Status audit = s.pool->AuditPins();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ConcurrencyTest, QueryBatchMatchesSerialUnderSharedPool) {
  SharedIndex s = MakeSharedIndex(350, 8, 96);
  s.index->SetNumThreads(8);
  // Enough queries that the batch fans out over the pool.
  PointSet queries = GenerateQueries(
      FanOutBatchSize(s.index->QueryCost(), 120), 8, 55);
  BatchPaths paths;
  auto batch = s.index->QueryBatch(queries);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), queries.size());
  paths.ExpectAllFannedOut(1);
  s.index->SetNumThreads(1);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto serial = s.index->Query(queries[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*batch)[i].id, serial->id);
    EXPECT_EQ((*batch)[i].dist, serial->dist);
  }
  Status audit = s.pool->AuditPins();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ConcurrencyTest, ConcurrentQueryBatchCallers) {
  // QueryBatch itself is documented as callable from several threads at
  // once: external callers share one ThreadPool's ParallelFor.
  SharedIndex s = MakeSharedIndex(300, 8, 96);
  s.index->SetNumThreads(4);
  PointSet queries = GenerateQueries(
      FanOutBatchSize(s.index->QueryCost(), 60), 8, 91);
  BatchPaths paths;
  auto want = s.index->QueryBatch(queries);
  ASSERT_TRUE(want.ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      auto got = s.index->QueryBatch(queries);
      if (!got.ok() || got->size() != want->size()) {
        mismatches.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < got->size(); ++i) {
        if ((*got)[i].id != (*want)[i].id ||
            (*got)[i].dist != (*want)[i].dist) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  paths.ExpectAllFannedOut(5);
  Status audit = s.pool->AuditPins();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ConcurrencyTest, SupernodeReadersInHighDimensions) {
  // d = 16 exercises supernode assembly (multi-page nodes through the
  // thread-local scratch buffer) under concurrent eviction pressure.
  SharedIndex s = MakeSharedIndex(220, 16, 64);
  PointSet queries = GenerateQueries(16, 16, 13);
  std::vector<uint64_t> want(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = s.index->Query(queries[i]);
    ASSERT_TRUE(r.ok());
    want[i] = r->id;
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      for (size_t i = 0; i < queries.size(); ++i) {
        auto r = s.index->Query(queries[i]);
        if (!r.ok() || r->id != want[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  Status audit = s.pool->AuditPins();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ConcurrencyTest, ShardedPoolKeepsCapacityBudget) {
  PageFile file(2048);
  BufferPool pool(&file, 256);
  EXPECT_GE(pool.num_shards(), 2u);  // capacity 256 shards the pool
  // Small pools must stay single-shard so the classic LRU semantics the
  // storage tests assert are preserved exactly.
  BufferPool tiny(&file, 8);
  EXPECT_EQ(tiny.num_shards(), 1u);
}

}  // namespace
}  // namespace nncell
