#include "engine/scheduler.h"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "obs/obs.h"
#include "robust/fault_injection.h"

namespace swsim::engine {

namespace {

std::string format_seconds(double s) {
  std::ostringstream os;
  os << s;
  return os.str();
}

// Stable metric references (leaky: the registry never moves them, and a
// heap-allocated holder sidesteps static-destruction-order races with pool
// threads still settling jobs at exit).
struct SchedulerMetrics {
  obs::Counter& done =
      obs::MetricsRegistry::global().counter("engine.jobs.done");
  obs::Counter& retried =
      obs::MetricsRegistry::global().counter("engine.jobs.retried");
  obs::Counter& failed =
      obs::MetricsRegistry::global().counter("engine.jobs.failed");
  obs::Counter& timed_out =
      obs::MetricsRegistry::global().counter("engine.jobs.timed_out");
  obs::Counter& cancelled =
      obs::MetricsRegistry::global().counter("engine.jobs.cancelled");
  obs::Histogram& job_seconds =
      obs::MetricsRegistry::global().histogram("engine.job_seconds");
};

SchedulerMetrics& sched_metrics() {
  static SchedulerMetrics* m = new SchedulerMetrics();
  return *m;
}

// Ends `j` unsuccessfully. The failure stamp is taken once, here, and the
// event-log line reuses it, so a FailureReport row and its JSONL line
// carry the identical timestamp.
void mark_failed(Job& j, JobState state, robust::Status status) {
  j.state = state;
  j.failed_at_us = obs::wall_now_us();
  j.status = std::move(status);
}

std::string context(const Job& j) { return "job '" + j.label + "'"; }

}  // namespace

Scheduler::Scheduler(ThreadPool& pool) : pool_(pool) {}

JobId Scheduler::add(std::string label,
                     std::function<void(const robust::CancelToken&)> fn,
                     const JobOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) {
    throw std::logic_error(
        "Scheduler::add: the batch is frozen once run_all() starts");
  }
  Job job;
  job.id = jobs_.size();
  job.label = std::move(label);
  job.flow_id = obs::current_flow_id();
  job.fn = std::move(fn);
  job.options = options;
  jobs_.push_back(std::move(job));
  return jobs_.back().id;
}

JobId Scheduler::add(std::string label, std::function<void()> fn,
                     const JobOptions& options) {
  return add(
      std::move(label),
      std::function<void(const robust::CancelToken&)>(
          [f = std::move(fn)](const robust::CancelToken&) { f(); }),
      options);
}

void Scheduler::settle_locked() {
  obs::ProgressReporter::global().job_done();
  if (--outstanding_ == 0) done_cv_.notify_all();
}

void Scheduler::execute(JobId id) {
  std::function<void(const robust::CancelToken&)> fn;
  robust::CancelToken token;
  std::string label;
  std::uint64_t flow = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Job& j = jobs_[id];
    if (robust::process_cancel_requested()) {
      // Process-wide shutdown (^C / forced drain): skip work that has not
      // started instead of paying each job's setup just to observe the
      // token. Jobs already running abort at their next cooperative poll.
      mark_failed(j, JobState::kCancelled,
                  robust::Status::error(robust::StatusCode::kCancelled,
                                        "cancelled by shutdown request",
                                        context(j)));
      sched_metrics().cancelled.add();
      settle_locked();
      return;
    }
    if (j.options.has_deadline() &&
        std::chrono::steady_clock::now() >= j.options.not_after) {
      // The request-level deadline expired while the job waited in the pool
      // queue: nobody is waiting for this answer, so refuse to compute it.
      mark_failed(j, JobState::kTimedOut,
                  robust::Status::error(
                      robust::StatusCode::kDeadlineExceeded,
                      "request deadline expired before the job started",
                      context(j)));
      sched_metrics().timed_out.add();
      auto& elog = obs::EventLog::global();
      if (elog.enabled(obs::LogLevel::kWarn)) {
        elog.event(obs::LogLevel::kWarn, "job_deadline_shed", j.failed_at_us)
            .str("job", j.label)
            .emit();
      }
      settle_locked();
      return;
    }
    j.state = JobState::kRunning;
    j.token = robust::CancelToken();  // fresh token per attempt
    j.started_at = std::chrono::steady_clock::now();
    ++j.attempts;
    token = j.token;
    label = j.label;
    flow = j.flow_id;
    fn = j.fn;  // copy out: run without holding the lock
    if (j.options.timeout_seconds > 0.0 || j.options.has_deadline()) {
      // Wake the run_all() waiter so it starts watching this deadline.
      done_cv_.notify_all();
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  robust::Status outcome = robust::Status::ok();
  {
    obs::Span span(label, "job");
    // Bind this worker-thread span into the originating request's flow
    // (the arrow chain client → session → dispatcher → solver jobs).
    if (flow != 0) obs::record_flow(label, "job", flow, 't');
    try {
      // Deterministic fault harness: a no-op unless a test or --inject
      // armed a plan for this label.
      robust::FaultPlan::global().on_job_enter(label);
      fn(token);
    } catch (...) {
      outcome = robust::status_of_current_exception();
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  sched_metrics().job_seconds.observe(seconds);

  std::lock_guard<std::mutex> lock(mutex_);
  Job& j = jobs_[id];
  j.seconds += seconds;
  if (j.state == JobState::kTimedOut) {
    // The deadline expired while fn ran; the failure is already recorded.
    // Discard the result and settle.
    settle_locked();
    return;
  }
  if (outcome.is_ok()) {
    j.state = JobState::kDone;
    sched_metrics().done.add();
    settle_locked();
    return;
  }
  if (robust::is_retryable(outcome.code()) &&
      j.attempts <= j.options.max_retries &&
      !(j.options.has_deadline() &&
        std::chrono::steady_clock::now() >= j.options.not_after)) {
    // Budget left: re-queue this job after a linear backoff. outstanding_
    // is untouched — the job is still in flight. The backoff is served by
    // the run_all() timer loop, not by parking a pool worker: the job sits
    // in kBackoff (off the pool) until retry_at, so other queued jobs keep
    // the workers busy during a fault storm.
    const double backoff =
        j.options.backoff_seconds * static_cast<double>(j.attempts);
    sched_metrics().retried.add();
    auto& elog = obs::EventLog::global();
    if (elog.enabled(obs::LogLevel::kInfo)) {
      elog.event(obs::LogLevel::kInfo, "job_retry")
          .str("job", j.label)
          .uint("attempt", j.attempts)
          .str("code", robust::to_string(outcome.code()))
          .num("backoff_s", backoff)
          .emit();
    }
    if (backoff <= 0.0) {
      j.state = JobState::kReady;
      pool_.submit([this, id] { execute(id); });
    } else {
      j.state = JobState::kBackoff;
      j.retry_at = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(backoff));
      done_cv_.notify_all();  // wake the timer loop to watch retry_at
    }
    return;
  }
  mark_failed(j, JobState::kFailed, outcome.with_context(context(j)));
  sched_metrics().failed.add();
  auto& elog = obs::EventLog::global();
  if (elog.enabled(obs::LogLevel::kError)) {
    elog.event(obs::LogLevel::kError, "job_failed", j.failed_at_us)
        .str("job", j.label)
        .str("code", robust::to_string(outcome.code()))
        .str("message", outcome.message())
        .uint("attempts", j.attempts)
        .emit();
  }
  settle_locked();
}

std::optional<std::chrono::steady_clock::time_point>
Scheduler::next_timer_locked() const {
  std::optional<std::chrono::steady_clock::time_point> next;
  const auto consider = [&next](std::chrono::steady_clock::time_point t) {
    if (!next || t < *next) next = t;
  };
  for (const Job& j : jobs_) {
    if (j.state == JobState::kBackoff) {
      // A backoff whose request deadline lands first should fail then, not
      // wait out the full backoff just to be shed at the next attempt.
      consider(j.options.has_deadline() && j.options.not_after < j.retry_at
                   ? j.options.not_after
                   : j.retry_at);
      continue;
    }
    if (j.state != JobState::kRunning) continue;
    if (j.options.timeout_seconds > 0.0) {
      consider(j.started_at + std::chrono::duration_cast<
                                  std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double>(
                                      j.options.timeout_seconds)));
    }
    if (j.options.has_deadline()) consider(j.options.not_after);
  }
  return next;
}

void Scheduler::service_timers_locked() {
  const auto now = std::chrono::steady_clock::now();
  for (Job& j : jobs_) {
    if (j.state == JobState::kBackoff) {
      if (j.options.has_deadline() && now >= j.options.not_after) {
        // The request deadline expired during the backoff sleep: the retry
        // would only be shed at pickup, so fail the job here. It is off the
        // pool (not queued), so it settles right away.
        mark_failed(j, JobState::kTimedOut,
                    robust::Status::error(
                        robust::StatusCode::kDeadlineExceeded,
                        "request deadline expired during retry backoff",
                        context(j)));
        sched_metrics().timed_out.add();
        settle_locked();
      } else if (now >= j.retry_at) {
        j.state = JobState::kReady;
        const JobId id = j.id;
        pool_.submit([this, id] { execute(id); });
      }
      continue;
    }
    if (j.state != JobState::kRunning) continue;
    const double elapsed =
        std::chrono::duration<double>(now - j.started_at).count();
    const bool attempt_over = j.options.timeout_seconds > 0.0 &&
                              elapsed >= j.options.timeout_seconds;
    const bool deadline_over =
        j.options.has_deadline() && now >= j.options.not_after;
    if (!attempt_over && !deadline_over) continue;
    // The request deadline takes classification precedence: the caller
    // stopped waiting, which is retryable with a fresh budget (and never a
    // quarantine strike), unlike a per-attempt kTimeout.
    mark_failed(
        j, JobState::kTimedOut,
        deadline_over
            ? robust::Status::error(robust::StatusCode::kDeadlineExceeded,
                                    "exceeded request deadline while running",
                                    context(j))
            : robust::Status::error(
                  robust::StatusCode::kTimeout,
                  "exceeded " + format_seconds(j.options.timeout_seconds) +
                      " s deadline",
                  context(j)));
    sched_metrics().timed_out.add();
    auto& elog = obs::EventLog::global();
    if (elog.enabled(obs::LogLevel::kWarn)) {
      elog.event(obs::LogLevel::kWarn, "job_timeout", j.failed_at_us)
          .str("job", j.label)
          .str("code", robust::to_string(j.status.code()))
          .num("limit_s", j.options.timeout_seconds)
          .num("elapsed_s", elapsed)
          .emit();
    }
    // Ask the closure to stop; it settles outstanding_ when it returns.
    j.token.request_cancel();
  }
}

void Scheduler::run_all() {
  obs::Span span("scheduler.run", "engine");
  bool any_timer = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) {
      throw std::logic_error("Scheduler::run_all: already run");
    }
    running_ = true;
    outstanding_ = jobs_.size();
    if (outstanding_ == 0) return;
    obs::ProgressReporter::global().add_jobs(outstanding_);
    // A timer loop is needed if any job can time out or enter a timed
    // retry backoff.
    for (const Job& j : jobs_) {
      any_timer = any_timer || j.options.timeout_seconds > 0.0 ||
                  j.options.has_deadline() ||
                  (j.options.max_retries > 0 &&
                   j.options.backoff_seconds > 0.0);
      const JobId id = j.id;
      pool_.submit([this, id] { execute(id); });
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (!any_timer) {
    done_cv_.wait(lock, [&] { return outstanding_ == 0; });
    return;
  }
  // Timer loop: sleep until the earliest running deadline or backoff
  // expiry (or until woken by a settle / a timed job starting / a job
  // entering backoff), then expire overdue jobs and re-queue any backoff
  // job whose wait is over.
  while (outstanding_ > 0) {
    if (const auto next = next_timer_locked()) {
      done_cv_.wait_until(lock, *next);
      service_timers_locked();
    } else {
      done_cv_.wait(lock);
    }
  }
}

std::size_t Scheduler::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

const Job& Scheduler::job(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.at(id);
}

std::size_t Scheduler::count(JobState s) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Job& j : jobs_) n += j.state == s ? 1 : 0;
  return n;
}

double Scheduler::total_job_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double s = 0.0;
  for (const Job& j : jobs_) s += j.seconds;
  return s;
}

}  // namespace swsim::engine
