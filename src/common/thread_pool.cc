#include "common/thread_pool.h"

#include <algorithm>
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

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body) {
  if (end <= begin) return;
  const size_t n = end - begin;
  // More chunks than threads so the shared cursor can rebalance uneven
  // iteration costs (LP solves vary a lot per point).
  const size_t chunks = std::min(n, 4 * num_threads());

  // Per-call state on the heap: a helper that wakes after the caller has
  // returned still holds the group, finds the cursor past the last chunk
  // and exits without touching `body` (which may be gone by then).
  struct Group {
    const std::function<void(size_t)>* body;
    size_t begin, n, chunks;
    std::atomic<size_t> next{0};  // next chunk to claim
    Mutex mu;
    CondVar cv;
    size_t done NNCELL_GUARDED_BY(mu) = 0;  // chunks finished
  };
  auto group = std::make_shared<Group>();
  group->body = &body;
  group->begin = begin;
  group->n = n;
  group->chunks = chunks;

  // Claims and runs chunks until none is left, then reports how many it
  // ran. The mutex orders every body(i) of the chunks before the caller's
  // return.
  auto drain = [](Group& g) {
    size_t ran = 0;
    for (size_t c = g.next.fetch_add(1); c < g.chunks;
         c = g.next.fetch_add(1)) {
      const size_t lo = g.begin + g.n * c / g.chunks;
      const size_t hi = g.begin + g.n * (c + 1) / g.chunks;
      for (size_t i = lo; i < hi; ++i) (*g.body)(i);
      ++ran;
    }
    if (ran == 0) return;
    MutexLock lock(g.mu);
    g.done += ran;
    if (g.done == g.chunks) g.cv.NotifyAll();
  };

  const size_t helpers = std::min(num_threads(), chunks - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Submit([group, drain] { drain(*group); });
  }
  drain(*group);
  MutexLock lock(group->mu);
  while (group->done != group->chunks) group->cv.Wait(group->mu);
}

}  // namespace nncell
