// The unit of work the scheduler tracks: a closure, a lifecycle state, and
// per-job accounting (run time, failure status).
//
// Jobs are owned by a Scheduler; user code only sees JobId handles. A job
// is queued (kReady) from the moment run_all() starts, runs on the thread
// pool, and ends kDone, kFailed (its closure threw), kTimedOut (its
// deadline passed while running, or before it started), or kCancelled (a
// process-wide cancel request was pending when a worker picked it up).
// Cancellation is cooperative: a job that is already running is not
// preempted; it is handed a robust::CancelToken and is expected to poll
// it. A timed-out job is terminal the moment the deadline expires, but its
// closure keeps the worker until it observes the token (or returns); its
// result is then discarded.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "robust/cancel.h"
#include "robust/status.h"

namespace swsim::engine {

using JobId = std::size_t;

enum class JobState {
  kReady,      // queued for execution
  kRunning,    // executing on a pool thread
  kBackoff,    // failed retryably; waiting (off the pool) until retry_at
  kDone,       // finished successfully
  kFailed,     // closure threw; `status` holds the cause
  kTimedOut,   // deadline expired, queued or running (result discarded)
  kCancelled,  // never ran: a process-wide cancel was pending at pickup
};

// Per-job resilience policy. Defaults: no deadline, no retries.
struct JobOptions {
  // Wall-clock budget per attempt; 0 disables the deadline. Enforcement is
  // cooperative (see JobState::kTimedOut above).
  double timeout_seconds = 0.0;
  // Extra attempts granted when the closure fails with a *retryable*
  // status (robust::is_retryable). Timeouts are never retried: the
  // timed-out closure may still be running, and a concurrent retry would
  // race it on shared result slots.
  std::size_t max_retries = 0;
  // Delay before retry attempt k (1-based) is backoff_seconds * k. The
  // job waits in kBackoff without occupying a pool worker.
  double backoff_seconds = 0.0;
  // Absolute end-to-end deadline (steady clock). Unlike timeout_seconds —
  // which is a *per-attempt* budget measured from the attempt's start —
  // this caps the job's whole life, including pool-queue wait and backoff
  // sleeps. A job whose deadline has already passed when a worker picks it
  // up fails kTimedOut with StatusCode::kDeadlineExceeded *without running*
  // (this is how a served request's deadline keeps the engine from
  // computing answers nobody is waiting for). max() disables it.
  std::chrono::steady_clock::time_point not_after =
      std::chrono::steady_clock::time_point::max();

  bool has_deadline() const {
    return not_after != std::chrono::steady_clock::time_point::max();
  }
};

struct Job {
  JobId id = 0;
  std::string label;
  // The obs flow id (obs::current_flow_id()) of the thread that added the
  // job — a served request's dispatcher sets it so the job's span on the
  // pool worker is linked back to the request's trace across threads
  // (and, after `swsim trace merge`, across processes). 0 = no flow.
  std::uint64_t flow_id = 0;
  std::function<void(const robust::CancelToken&)> fn;
  JobOptions options;
  JobState state = JobState::kReady;
  double seconds = 0.0;       // wall time of fn(), summed over attempts
  std::size_t attempts = 0;   // executions started (1 = no retries)
  // Wall-clock stamp (epoch microseconds) of the moment the job became
  // kFailed / kTimedOut / kCancelled; 0 while healthy. The scheduler takes
  // this stamp once and shares it with the structured event log, so a
  // FailureReport row and its JSONL line carry the identical timestamp.
  std::uint64_t failed_at_us = 0;
  robust::Status status;      // cause when kFailed / kTimedOut / kCancelled
  // Current attempt's cancellation token and start time (valid while
  // kRunning; the deadline is started_at + timeout).
  robust::CancelToken token;
  std::chrono::steady_clock::time_point started_at;
  // When a kBackoff job becomes eligible to run again. The run_all()
  // timer loop re-releases it; no pool worker sleeps through the backoff.
  std::chrono::steady_clock::time_point retry_at;
};

}  // namespace swsim::engine
