#ifndef NNCELL_COMMON_THREAD_POOL_H_
#define NNCELL_COMMON_THREAD_POOL_H_

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

// Small thread pool for the parallel phases of the engine (per-point LP
// fan-out during bulk builds, batched query execution). Workers take tasks
// from one FIFO queue. Every task the engine submits is a ParallelFor
// helper that claims units from its call's shared cursor, so the queue only
// decides which idle worker starts a helper. The pool is task-agnostic;
// determinism is the caller's job (submit pure tasks that write to
// disjoint result slots, and read the slots in a fixed order afterwards).
//
// Tasks must not throw. ParallelFor may be called concurrently from
// several threads, pool workers included: each call tracks its own
// completion, and its caller works through unclaimed work itself, so it
// never waits on a worker that has not woken.
class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues a fire-and-forget task. Every queued task is completed
  // before the destructor returns.
  void Submit(std::function<void()> task);

  // Runs body(i) for every i in [begin, end); returns when every
  // iteration has finished, and the caller then sees every write the
  // iterations made. The calling thread and up to num_threads() woken
  // workers claim work from one cursor, so the caller waits only for work
  // already running elsewhere. `body` is invoked concurrently and must be
  // safe to call from several threads at once.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body);

  // std::thread::hardware_concurrency with a fallback of 1.
  static size_t DefaultThreads();

 private:
  // Runs queued tasks until the destructor has stopped the pool and the
  // queue is empty.
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex wake_mu_;
  CondVar wake_cv_;
  std::deque<std::function<void()>> tasks_ NNCELL_GUARDED_BY(wake_mu_);
  bool stop_ NNCELL_GUARDED_BY(wake_mu_) = false;
};

// Points *pool at a pool of `num_threads` workers (0 = DefaultThreads()),
// keeping the current pool when it already has that many, or at nothing
// when that resolves to 1 (serial).
void ResizePool(size_t num_threads, std::unique_ptr<ThreadPool>* pool);

// pool->ParallelFor(0, n, body) when `pool` is non-null and n > 1, else
// the same iterations on the calling thread in ascending order. The one
// choice between the pool and a serial loop.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& body);

// Runs fn(i) -> Status for every i in [0, n) as ParallelFor(pool, n, ...)
// does (fn must be safe to call from several threads at once when it can
// fan out) and returns the status of the lowest failing index, as the
// serial loop would. No index above a failure already seen starts.
Status ParallelTry(ThreadPool* pool, size_t n,
                   const std::function<Status(size_t)>& fn);

// Evaluates fn(i) -> StatusOr<T> for every i in [0, n) into slot i of the
// result, as ParallelTry runs it.
template <class T, class Fn>
StatusOr<std::vector<T>> ParallelMap(ThreadPool* pool, size_t n,
                                     const Fn& fn) {
  std::vector<T> out(n);
  NNCELL_RETURN_IF_ERROR(ParallelTry(pool, n, [&](size_t i) -> Status {
    StatusOr<T> r = fn(i);
    if (!r.ok()) return r.status();
    out[i] = std::move(*r);
    return Status::OK();
  }));
  return out;
}

}  // namespace nncell

#endif  // NNCELL_COMMON_THREAD_POOL_H_
