// Live run progress: a throttled, TTY-aware status line on stderr.
//
// The reporter is a process-global singleton fed from two places:
//   * Scheduler::run_all() registers how many jobs a batch queues
//     (add_jobs) and ticks one off as each settles (job_done);
//   * Simulation::run() ticks once per LLG step (on_llg_steps).
// When enabled it renders at most one line every ~250 ms, carriage-return-
// overwritten on a TTY:
//
//   [progress] jobs 3/9 | 1.24e+04 llg steps/s | eta 42s
//
// and mirrors the same numbers into MetricsRegistry gauges
// (progress.jobs_done, progress.jobs_total, progress.steps_per_second) so
// a --metrics-out dump records the final state.
//
// When stderr is NOT a terminal the reporter writes nothing at all — the
// gauges are still mirrored (every ~2 s) but piped stderr stays byte-clean.
// Daemon embedders (swsim serve) call suppress_output() for the same
// guarantee regardless of what fd 2 happens to be: worker threads must
// never interleave status lines with the daemon's structured logs.
//
// Hot-path contract (same as every other obs hook): disabled, each tick is
// one relaxed atomic load. Enabled, a tick is a couple of relaxed RMWs and
// a clock read; rendering itself is throttled behind a CAS so concurrent
// workers never contend on the line.
//
// The CLI enables it for --progress, disables it for --no-progress, and
// defaults to "on iff stderr is a TTY" — piped runs stay byte-clean.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

namespace swsim::obs {

class ProgressReporter {
 public:
  static ProgressReporter& global();

  // Arms the reporter and resets all counters for a fresh command.
  void enable();
  // Disarms; pending state is kept until the next enable() so a final
  // finish() can still report totals.
  void disable();
  bool enabled() const { return armed_.load(std::memory_order_relaxed); }

  // True when stderr is attached to a terminal (the default-on condition).
  static bool stderr_is_tty();

  // Hard-mutes line output for the rest of the process (gauge mirroring
  // still runs). Irreversible by design: a daemon that suppressed output
  // once must never start writing to stderr from worker threads later.
  void suppress_output() {
    suppressed_.store(true, std::memory_order_relaxed);
  }

  // Engine hooks.
  void add_jobs(std::uint64_t n);
  void job_done();

  // Solver hook: `n` LLG steps were integrated.
  void on_llg_steps(std::uint64_t n) {
    if (!enabled()) return;
    steps_.fetch_add(n, std::memory_order_relaxed);
    maybe_render();
  }

  // Erases/terminates the status line (prints the newline a TTY render
  // withheld). Safe to call when nothing was ever rendered.
  void finish();

 private:
  ProgressReporter() = default;
  void maybe_render();
  void render();

  std::atomic<bool> armed_{false};
  std::atomic<bool> suppressed_{false};
  std::atomic<std::uint64_t> jobs_total_{0};
  std::atomic<std::uint64_t> jobs_done_{0};
  std::atomic<std::uint64_t> steps_{0};

  // Render throttle state (monotonic microseconds; 0 = never rendered).
  std::atomic<std::uint64_t> next_render_us_{0};
  std::mutex render_mutex_;
  double t0_us_ = 0.0;          // enable() time, rate/ETA basis
  double last_rate_t_us_ = 0.0; // previous render, for the step rate window
  std::uint64_t last_rate_steps_ = 0;
  double steps_per_second_ = 0.0;
  bool rendered_ = false;       // a TTY line is pending a terminating \n
};

}  // namespace swsim::obs
