#include "obs/progress.h"

#include <unistd.h>

#include <cstdio>

#include "obs/clock.h"
#include "obs/metrics.h"

namespace swsim::obs {

namespace {

// Render cadence: fast enough to feel live on a terminal. Without one (or
// when suppressed) nothing is written and renders only refresh the gauges,
// so they can run at a lazier pace.
constexpr std::uint64_t kTtyIntervalUs = 250'000;
constexpr std::uint64_t kMirrorIntervalUs = 2'000'000;

Gauge& jobs_done_gauge() {
  static Gauge& g = MetricsRegistry::global().gauge("progress.jobs_done");
  return g;
}
Gauge& jobs_total_gauge() {
  static Gauge& g = MetricsRegistry::global().gauge("progress.jobs_total");
  return g;
}
Gauge& steps_rate_gauge() {
  static Gauge& g =
      MetricsRegistry::global().gauge("progress.steps_per_second");
  return g;
}

}  // namespace

ProgressReporter& ProgressReporter::global() {
  static ProgressReporter* reporter = new ProgressReporter();
  return *reporter;
}

bool ProgressReporter::stderr_is_tty() { return ::isatty(2) == 1; }

void ProgressReporter::enable() {
  std::lock_guard<std::mutex> lock(render_mutex_);
  jobs_total_.store(0, std::memory_order_relaxed);
  jobs_done_.store(0, std::memory_order_relaxed);
  steps_.store(0, std::memory_order_relaxed);
  next_render_us_.store(0, std::memory_order_relaxed);
  t0_us_ = now_us();
  last_rate_t_us_ = t0_us_;
  last_rate_steps_ = 0;
  steps_per_second_ = 0.0;
  rendered_ = false;
  armed_.store(true, std::memory_order_relaxed);
}

void ProgressReporter::disable() {
  armed_.store(false, std::memory_order_relaxed);
}

void ProgressReporter::add_jobs(std::uint64_t n) {
  if (!enabled()) return;
  jobs_total_.fetch_add(n, std::memory_order_relaxed);
  maybe_render();
}

void ProgressReporter::job_done() {
  if (!enabled()) return;
  jobs_done_.fetch_add(1, std::memory_order_relaxed);
  maybe_render();
}

void ProgressReporter::maybe_render() {
  // CAS on the deadline so exactly one caller per interval pays for the
  // render; everyone else is two relaxed loads and out.
  const std::uint64_t now = static_cast<std::uint64_t>(now_us());
  std::uint64_t deadline = next_render_us_.load(std::memory_order_relaxed);
  if (now < deadline) return;
  const std::uint64_t interval =
      stderr_is_tty() ? kTtyIntervalUs : kMirrorIntervalUs;
  if (!next_render_us_.compare_exchange_strong(deadline, now + interval,
                                               std::memory_order_relaxed)) {
    return;
  }
  render();
}

void ProgressReporter::render() {
  std::lock_guard<std::mutex> lock(render_mutex_);
  const double now = now_us();
  const std::uint64_t steps = steps_.load(std::memory_order_relaxed);
  const std::uint64_t done = jobs_done_.load(std::memory_order_relaxed);
  const std::uint64_t total = jobs_total_.load(std::memory_order_relaxed);

  // Step rate over the window since the previous render; smoother than an
  // all-run average once the run warms up, and exact on the first render.
  const double window_s = (now - last_rate_t_us_) * 1e-6;
  if (window_s > 1e-3 && steps >= last_rate_steps_) {
    steps_per_second_ =
        static_cast<double>(steps - last_rate_steps_) / window_s;
  }
  last_rate_t_us_ = now;
  last_rate_steps_ = steps;

  jobs_done_gauge().set(static_cast<std::int64_t>(done));
  jobs_total_gauge().set(static_cast<std::int64_t>(total));
  steps_rate_gauge().set(static_cast<std::int64_t>(steps_per_second_));

  char line[160];
  int n = std::snprintf(line, sizeof line, "[progress]");
  if (total > 0) {
    n += std::snprintf(line + n, sizeof line - n, " jobs %llu/%llu",
                       static_cast<unsigned long long>(done),
                       static_cast<unsigned long long>(total));
  }
  if (steps > 0) {
    n += std::snprintf(line + n, sizeof line - n, " | %.3g llg steps/s",
                       steps_per_second_);
  }
  // ETA from job completion while a batch is running, else unknown.
  if (total > 0 && done > 0 && done < total) {
    const double per_job_s = (now - t0_us_) * 1e-6 / static_cast<double>(done);
    const double eta_s = per_job_s * static_cast<double>(total - done);
    n += std::snprintf(line + n, sizeof line - n, " | eta %.0fs", eta_s);
  }
  if (n <= 10) {  // bare "[progress]" — nothing to say yet
    return;
  }

  // Line output only on an interactive terminal and only when nobody muted
  // us; everything else (pipes, logs, daemon workers) sees zero bytes.
  if (suppressed_.load(std::memory_order_relaxed) || !stderr_is_tty()) {
    return;
  }
  // Overwrite in place; pad to clear a previously longer line.
  std::fprintf(stderr, "\r%-78s", line);
  std::fflush(stderr);
  rendered_ = true;
}

void ProgressReporter::finish() {
  // Final render so the last state is visible even for sub-interval runs,
  // then terminate the TTY line.
  if (enabled()) {
    next_render_us_.store(0, std::memory_order_relaxed);
    render();
  }
  std::lock_guard<std::mutex> lock(render_mutex_);
  if (rendered_) {
    std::fputc('\n', stderr);
    std::fflush(stderr);
    rendered_ = false;
  }
  armed_.store(false, std::memory_order_relaxed);
}

}  // namespace swsim::obs
