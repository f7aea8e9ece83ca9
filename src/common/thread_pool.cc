#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "common/check.h"

namespace nncell {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(num_threads, 1);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

size_t ThreadPool::DefaultThreads() {
  size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::Submit(std::function<void()> task) {
  NNCELL_DCHECK(task != nullptr);
  {
    MutexLock lock(wake_mu_);
    tasks_.push_back(std::move(task));
  }
  wake_cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(wake_mu_);
      while (!stop_ && tasks_.empty()) wake_cv_.Wait(wake_mu_);
      if (tasks_.empty()) return;  // stopped and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body) {
  if (end <= begin) return;
  const size_t n = end - begin;
  // More units than threads, so the shared cursor can rebalance uneven
  // iteration costs (LP solves vary a lot per point).
  const size_t units = std::min(n, 4 * num_threads());

  // Per-call state on the heap: a helper that wakes after the caller has
  // returned still holds the group, finds the cursor past the last unit
  // and exits without touching `body` (which may be gone by then).
  struct Group {
    const std::function<void(size_t)>* body;
    size_t begin, n, units;
    std::atomic<size_t> next{0};  // next unit to claim
    // Units not yet finished; each finished unit decrements it (release).
    std::atomic<uint32_t> pending;
  };
  auto group = std::make_shared<Group>();
  group->body = &body;
  group->begin = begin;
  group->n = n;
  group->units = units;
  group->pending.store(static_cast<uint32_t>(units));

  // Claims and runs one unit; false once none is left.
  auto run_one = [](Group& g) {
    const size_t u = g.next.fetch_add(1);
    if (u >= g.units) return false;
    const size_t hi = g.begin + g.n * (u + 1) / g.units;
    for (size_t i = g.begin + g.n * u / g.units; i < hi; ++i) (*g.body)(i);
    if (g.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      g.pending.notify_all();
    }
    return true;
  };

  const size_t helpers = std::min(num_threads(), units - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Submit([group, run_one] {
      while (run_one(*group)) {
      }
    });
  }
  // Work until nothing is left to claim, then wait for the units still
  // running elsewhere. The acquire load that reads 0 orders every body(i)
  // before the return.
  while (run_one(*group)) {
  }
  for (uint32_t left = group->pending.load(std::memory_order_acquire);
       left != 0; left = group->pending.load(std::memory_order_acquire)) {
    group->pending.wait(left, std::memory_order_acquire);
  }
}

void ResizePool(size_t num_threads, std::unique_ptr<ThreadPool>* pool) {
  const size_t resolved =
      num_threads == 0 ? ThreadPool::DefaultThreads() : num_threads;
  if (resolved <= 1) {
    pool->reset();
  } else if (*pool == nullptr || (*pool)->num_threads() != resolved) {
    *pool = std::make_unique<ThreadPool>(resolved);
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& body) {
  if (pool != nullptr && n > 1) {
    pool->ParallelFor(0, n, body);
    return;
  }
  for (size_t i = 0; i < n; ++i) body(i);
}

Status ParallelTry(ThreadPool* pool, size_t n,
                   const std::function<Status(size_t)>& fn) {
  Mutex mu;
  size_t first_error = n;  // under mu
  Status error;            // the status of index first_error, under mu
  ParallelFor(pool, n, [&](size_t i) {
    {
      MutexLock lock(mu);
      if (first_error < i) return;
    }
    Status st = fn(i);
    if (st.ok()) return;
    MutexLock lock(mu);
    if (i < first_error) {
      first_error = i;
      error = std::move(st);
    }
  });
  return error;
}

}  // namespace nncell
