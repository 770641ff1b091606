// Thread pool with one FIFO task queue.
//
// Workers take tasks in submission order from a single deque under one
// mutex. At the job granularity this pool targets (a gate solve is micro-
// to multi-second work) lock traffic is noise, and a single lock keeps the
// pool trivially ThreadSanitizer-clean. A task submitted from a worker
// queues behind everything already waiting; parallel_for's caller claims
// chunks itself, so it never waits on a helper still in the queue.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace swsim::engine {

class ThreadPool {
 public:
  // threads == 0 picks default_threads(). The pool spawns exactly
  // `threads` workers; the constructing thread never runs jobs.
  explicit ThreadPool(std::size_t threads = 0);
  // Drains nothing: pending tasks are abandoned only if wait_idle() was
  // not called; the destructor stops workers after their current task.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task at the back of the queue. Thread-safe; may be called
  // from worker threads.
  void submit(std::function<void()> fn);

  // Blocks until every submitted task has finished.
  void wait_idle();

  // Runs fn(begin, end) over every chunk of [0, n) with fixed chunk size
  // `grain`, possibly on several threads, and returns when all chunks are
  // done. The calling thread participates (it claims chunks like any
  // helper), so the call is deadlock-free when issued from a pool worker —
  // that is what lets batch-level jobs and intra-solve work share one
  // pool. Helper tasks are queued only for workers idle at the call, so a
  // call from inside a saturated pool queues nothing and runs every chunk
  // on the caller. Chunk boundaries depend only on (n, grain), never on
  // the thread count, so callers whose chunks write disjoint outputs (or
  // that combine per-chunk partials in chunk order) get byte-identical
  // results for any pool size. The first exception thrown by fn is
  // rethrown here after all chunks finish.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  std::size_t thread_count() const { return workers_.size(); }

  // Hardware concurrency, floored at 1.
  static std::size_t default_threads();

  // The most threads one outside setting may ask for (--jobs, --cell-jobs,
  // --dispatchers, SWSIM_CELL_JOBS); each starts as many as it is given.
  static constexpr std::size_t kMaxThreads = 1024;

 private:
  void worker_loop(std::size_t self);

  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // queue gained work / stopping
  std::condition_variable idle_cv_;   // a task finished
  std::size_t pending_ = 0;           // queued + running tasks
  bool stop_ = false;

  // Observability (stable references into the leaky registry; every record
  // is a no-op relaxed load unless metrics are armed).
  obs::Counter& m_submitted_;
  obs::Counter& m_executed_;
  obs::Counter& m_busy_us_;
  obs::Gauge& m_pending_;
  obs::Gauge& m_threads_;
};

}  // namespace swsim::engine
