// Batch job scheduler on top of ThreadPool.
//
// Usage: add() independent jobs, then run_all() once. Every job is queued
// on the pool in add order, and run_all() blocks until each one is
// terminal; the caller then reads the per-job records (state, wall
// seconds, status, attempts). A failed job costs only itself: every other
// job of the batch still runs. Callers that need one step before the rest
// (BatchRunner's shared `prepare`) run it as a batch of its own first.
//
// Resilience (per-job JobOptions):
//  - timeout_seconds: while a job runs past its deadline it is marked
//    kTimedOut and its CancelToken is tripped; the closure keeps its
//    worker until it observes the token (cooperative — no preemption),
//    and its result is discarded.
//  - max_retries / backoff_seconds: a closure that throws with a
//    *retryable* status (robust::is_retryable — numerical divergence,
//    cache corruption, internal errors; never timeouts) is re-executed
//    after a linear backoff, up to the retry budget. The job waits out
//    the backoff in kBackoff, re-queued by run_all()'s timer loop — no
//    pool worker is parked, so concurrent retries cannot starve queued
//    jobs of workers.
//  - not_after: a job picked up after its absolute deadline is shed
//    (kTimedOut, kDeadlineExceeded) without running.
//
// A job picked up after a process-wide cancel request (robust/cancel.h)
// ends kCancelled without running.
#pragma once

#include <condition_variable>
#include <mutex>
#include <optional>
#include <vector>

#include "engine/job.h"
#include "engine/thread_pool.h"

namespace swsim::engine {

class Scheduler {
 public:
  explicit Scheduler(ThreadPool& pool);

  // Registers a job and returns its id: ids count up from 0 in add order.
  // Must not be called after run_all(). Token-aware closures receive the
  // current attempt's CancelToken and should poll it during long solves.
  JobId add(std::string label,
            std::function<void(const robust::CancelToken&)> fn,
            const JobOptions& options);
  JobId add(std::string label, std::function<void()> fn,
            const JobOptions& options = {});

  // Queues every job and blocks until each one is terminal. Never throws
  // on job failure: inspect job(id) afterwards for the per-job account.
  void run_all();

  // Post-run inspection.
  std::size_t size() const;
  const Job& job(JobId id) const;
  std::size_t count(JobState s) const;
  // Sum of wall seconds across jobs that ran (the "work" the batch cost;
  // compare against elapsed wall time for effective parallelism).
  double total_job_seconds() const;

 private:
  void execute(JobId id);                  // runs on a pool thread
  void settle_locked();                    // one outstanding job became terminal
  // Earliest timer among running jobs' deadlines and backoff expiries.
  std::optional<std::chrono::steady_clock::time_point> next_timer_locked()
      const;
  // kRunning past deadline -> kTimedOut; kBackoff past retry_at -> kReady.
  void service_timers_locked();

  ThreadPool& pool_;
  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::vector<Job> jobs_;
  std::size_t outstanding_ = 0;  // jobs not yet settled
  bool running_ = false;
};

}  // namespace swsim::engine
