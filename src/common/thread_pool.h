#ifndef NNCELL_COMMON_THREAD_POOL_H_
#define NNCELL_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace nncell {

// Small work-stealing thread pool for the parallel phases of the engine
// (per-point LP fan-out during bulk builds, batched query execution).
// Each worker owns a deque: new tasks are distributed round-robin, a
// worker pops its own deque LIFO (cache-warm) and steals FIFO from its
// siblings when empty. The pool is task-agnostic; determinism is the
// caller's job (submit pure tasks that write to disjoint result slots and
// commit in a fixed order afterwards).
//
// Tasks must not throw. ParallelFor may be called concurrently from
// several threads, pool workers included: each call tracks its own
// completion, and its caller works through the chunks itself, so it never
// waits on a worker that has not woken.
class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return queues_.size(); }

  // Enqueues a fire-and-forget task. Every queued task is completed
  // before the destructor returns.
  void Submit(std::function<void()> task);

  // Runs body(i) for every i in [begin, end); returns when every
  // iteration has finished. The range is cut into chunks that the calling
  // thread and up to num_threads() woken workers claim from one cursor,
  // so the caller waits only for chunks already running elsewhere. `body`
  // is invoked concurrently and must be safe to call from several threads
  // at once.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body);

  // std::thread::hardware_concurrency with a fallback of 1.
  static size_t DefaultThreads();

 private:
  struct Queue {
    Mutex mu;
    std::deque<std::function<void()>> tasks NNCELL_GUARDED_BY(mu);
  };

  void WorkerLoop(size_t self);
  // Own queue (back) first, then steals from siblings (front). Returns an
  // empty function when every queue is empty.
  std::function<void()> TryPop(size_t self);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> queued_{0};      // pushed, not yet popped
  std::atomic<size_t> next_queue_{0};  // round-robin submit cursor
  Mutex wake_mu_;
  CondVar wake_cv_;
  bool stop_ NNCELL_GUARDED_BY(wake_mu_) = false;
};

// Evaluates fn(i) -> StatusOr<T> for every i in [0, n) into slot i of the
// result: serially when `pool` is null or n <= 1, else across the pool
// (fn must then be safe to call from several threads at once). Fails with
// the status of the lowest failing index, as the serial loop would.
template <class T, class Fn>
StatusOr<std::vector<T>> ParallelMap(ThreadPool* pool, size_t n,
                                     const Fn& fn) {
  std::vector<T> out(n);
  if (pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      StatusOr<T> r = fn(i);
      if (!r.ok()) return r.status();
      out[i] = std::move(*r);
    }
    return out;
  }
  Mutex mu;
  size_t first_error = n;  // written under mu; read after ParallelFor
  Status error;
  pool->ParallelFor(0, n, [&](size_t i) {
    StatusOr<T> r = fn(i);
    if (r.ok()) {
      out[i] = std::move(*r);
      return;
    }
    MutexLock lock(mu);
    if (i < first_error) {
      first_error = i;
      error = r.status();
    }
  });
  if (first_error < n) return error;
  return out;
}

}  // namespace nncell

#endif  // NNCELL_COMMON_THREAD_POOL_H_
