#include "engine/thread_pool.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/clock.h"
#include "obs/trace.h"

namespace swsim::engine {

ThreadPool::ThreadPool(std::size_t threads)
    : m_submitted_(obs::MetricsRegistry::global().counter("pool.tasks.submitted")),
      m_executed_(obs::MetricsRegistry::global().counter("pool.tasks.executed")),
      m_busy_us_(obs::MetricsRegistry::global().counter("pool.busy_us")),
      m_pending_(obs::MetricsRegistry::global().gauge("pool.pending")),
      m_threads_(obs::MetricsRegistry::global().gauge("pool.threads")) {
  if (threads == 0) threads = default_threads();
  m_threads_.set(static_cast<std::int64_t>(threads));
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::default_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(fn));
    ++pending_;
    m_submitted_.add();
    m_pending_.set(static_cast<std::int64_t>(pending_));
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop(std::size_t self) {
  obs::set_thread_name("worker-" + std::to_string(self));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      obs::ScopedTimerUs busy(m_busy_us_);
      task();
    }
    m_executed_.add();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_;
      m_pending_.set(static_cast<std::int64_t>(pending_));
    }
    idle_cv_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return pending_ == 0; });
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks <= 1 || workers_.empty()) {
    fn(0, n);
    return;
  }

  // Shared by the caller and the helper tasks. Helpers hold their own
  // shared_ptr (and a copy of fn lives inside), so a helper that wakes up
  // after the caller has already returned touches nothing dangling.
  struct State {
    std::function<void(std::size_t, std::size_t)> fn;
    std::size_t n = 0, grain = 0, chunks = 0;
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t done = 0;
    std::exception_ptr error;
  };
  auto st = std::make_shared<State>();
  st->fn = fn;
  st->n = n;
  st->grain = grain;
  st->chunks = chunks;

  auto drain = [st] {
    for (;;) {
      const std::size_t c = st->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= st->chunks) return;
      const std::size_t begin = c * st->grain;
      const std::size_t end = std::min(st->n, begin + st->grain);
      try {
        st->fn(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(st->mu);
        if (!st->error) st->error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(st->mu);
        ++st->done;
      }
      st->done_cv.notify_all();
    }
  };

  // Helpers only for the workers idle now: in a pool saturated with
  // batch jobs (the caller may be one of them) a helper would queue
  // behind them and find every chunk claimed by the time it runs.
  std::size_t helpers = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t idle =
        pending_ < workers_.size() ? workers_.size() - pending_ : 0;
    helpers = std::min(chunks - 1, idle);
  }
  for (std::size_t h = 0; h < helpers; ++h) submit(drain);
  drain();  // the caller claims chunks too — no idle wait, no deadlock
  std::unique_lock<std::mutex> lock(st->mu);
  st->done_cv.wait(lock, [&] { return st->done == st->chunks; });
  if (st->error) std::rethrow_exception(st->error);
}

}  // namespace swsim::engine
