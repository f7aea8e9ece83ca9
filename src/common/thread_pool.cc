#include "common/thread_pool.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/check.h"

namespace nncell {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(num_threads, 1);
  queues_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  NNCELL_DCHECK(queued_.load() == 0);
}

size_t ThreadPool::DefaultThreads() {
  size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::Submit(std::function<void()> task) {
  NNCELL_DCHECK(task != nullptr);
  // nncell-lint: allow(relaxed-atomics) round-robin cursor, placement hint only
  size_t q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  {
    MutexLock lock(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  // Empty critical section: pairs with the predicate check in WorkerLoop so
  // a worker between "queues looked empty" and "blocked" cannot miss us.
  { MutexLock lock(wake_mu_); }
  wake_cv_.NotifyOne();
}

std::function<void()> ThreadPool::TryPop(size_t self) {
  {
    Queue& own = *queues_[self];
    MutexLock lock(own.mu);
    if (!own.tasks.empty()) {
      std::function<void()> task = std::move(own.tasks.back());
      own.tasks.pop_back();
      // nncell-lint: allow(relaxed-atomics) queue mutex orders the pop; count is a wake hint
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  for (size_t i = 1; i < queues_.size(); ++i) {
    Queue& victim = *queues_[(self + i) % queues_.size()];
    MutexLock lock(victim.mu);
    if (!victim.tasks.empty()) {
      std::function<void()> task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      // nncell-lint: allow(relaxed-atomics) queue mutex orders the steal; count is a wake hint
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  return nullptr;
}

void ThreadPool::WorkerLoop(size_t self) {
  for (;;) {
    if (std::function<void()> task = TryPop(self)) {
      task();
      continue;
    }
    MutexLock lock(wake_mu_);
    while (!stop_ && queued_.load(std::memory_order_acquire) == 0) {
      wake_cv_.Wait(wake_mu_);
    }
    if (stop_ && queued_.load(std::memory_order_acquire) == 0) return;
  }
}

std::chrono::nanoseconds ThreadPool::ParallelFor(
    size_t begin, size_t end, const std::function<void(size_t)>& body,
    const std::function<void(size_t)>& commit) {
  std::chrono::nanoseconds blocked{0};
  if (end <= begin) return blocked;
  const size_t n = end - begin;
  // Without a commit, more units than threads so the shared cursor can
  // rebalance uneven iteration costs (LP solves vary a lot per point);
  // with one, single iterations so commits trail the solves closely.
  const size_t units = commit ? n : std::min(n, 4 * num_threads());

  // Per-call state on the heap: a helper that wakes after the caller has
  // returned still holds the group, finds the cursor past the last unit
  // and exits without touching `body` (which may be gone by then).
  struct Group {
    const std::function<void(size_t)>* body;
    size_t begin, n, units;
    std::atomic<size_t> next{0};  // next unit to claim
    // done[u] turns 1 (release) once unit u's iterations have run.
    std::unique_ptr<std::atomic<uint32_t>[]> done;
  };
  auto group = std::make_shared<Group>();
  group->body = &body;
  group->begin = begin;
  group->n = n;
  group->units = units;
  group->done = std::make_unique<std::atomic<uint32_t>[]>(units);

  // Claims and runs one unit; false once none is left.
  auto run_one = [](Group& g) {
    const size_t u = g.next.fetch_add(1);
    if (u >= g.units) return false;
    const size_t hi = g.begin + g.n * (u + 1) / g.units;
    for (size_t i = g.begin + g.n * u / g.units; i < hi; ++i) (*g.body)(i);
    g.done[u].store(1, std::memory_order_release);
    g.done[u].notify_one();
    return true;
  };

  const size_t helpers = std::min(num_threads(), units - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Submit([group, run_one] {
      while (run_one(*group)) {
      }
    });
  }
  // Walk the units in order: work while the next one is unfinished, block
  // once nothing is left to claim. The acquire load orders every body(i)
  // of the unit before its commits and before the return.
  for (size_t u = 0; u < units; ++u) {
    while (group->done[u].load(std::memory_order_acquire) == 0) {
      if (run_one(*group)) continue;
      const auto t0 = std::chrono::steady_clock::now();
      group->done[u].wait(0, std::memory_order_acquire);
      blocked += std::chrono::steady_clock::now() - t0;
    }
    if (!commit) continue;
    const size_t hi = begin + n * (u + 1) / units;
    for (size_t i = begin + n * u / units; i < hi; ++i) commit(i);
  }
  return blocked;
}

}  // namespace nncell
