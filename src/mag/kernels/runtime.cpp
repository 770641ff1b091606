#include "mag/kernels/runtime.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "engine/thread_pool.h"

namespace swsim::mag::kernels {

namespace {

std::size_t env_cell_jobs() {
  const char* v = std::getenv("SWSIM_CELL_JOBS");
  if (!v || !*v) return 1;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || n < 0 ||
      static_cast<unsigned long>(n) > engine::ThreadPool::kMaxThreads) {
    return 1;
  }
  return static_cast<std::size_t>(n);
}

std::atomic<std::size_t>& cell_jobs_raw() {
  static std::atomic<std::size_t> v{env_cell_jobs()};
  return v;
}

// -1: consult SWSIM_KERNEL_REF; 0/1: explicit override (tests).
std::atomic<int> g_force_mode{-1};

bool env_kernel_ref() {
  static const bool forced = [] {
    const char* v = std::getenv("SWSIM_KERNEL_REF");
    return v && *v && !(v[0] == '0' && v[1] == '\0');
  }();
  return forced;
}

// The shared (engine-installed) pool, and the lazily owned fallback pool.
std::atomic<engine::ThreadPool*> g_shared_pool{nullptr};
std::mutex g_owned_mu;
std::unique_ptr<engine::ThreadPool> g_owned_pool;

}  // namespace

std::size_t cell_jobs() {
  const std::size_t n = cell_jobs_raw().load(std::memory_order_relaxed);
  return n == 0 ? engine::ThreadPool::default_threads() : n;
}

void set_cell_jobs(std::size_t n) {
  cell_jobs_raw().store(n, std::memory_order_relaxed);
}

bool reference_forced() {
  const int mode = g_force_mode.load(std::memory_order_relaxed);
  if (mode >= 0) return mode == 1;
  return env_kernel_ref();
}

void set_force_reference(int mode) {
  g_force_mode.store(mode, std::memory_order_relaxed);
}

engine::ThreadPool* intra_pool() {
  const std::size_t jobs = cell_jobs();
  if (jobs <= 1) return nullptr;
  if (engine::ThreadPool* shared =
          g_shared_pool.load(std::memory_order_acquire)) {
    return shared;
  }
  // Owned pool: jobs - 1 helper threads; parallel_for's caller
  // participation makes the total width `jobs`.
  std::lock_guard<std::mutex> lock(g_owned_mu);
  if (!g_owned_pool || g_owned_pool->thread_count() != jobs - 1) {
    g_owned_pool.reset();  // join the old width before spawning the new
    g_owned_pool = std::make_unique<engine::ThreadPool>(jobs - 1);
  }
  return g_owned_pool.get();
}

ScopedSharedPool::ScopedSharedPool(engine::ThreadPool* pool) {
  if (!pool || cell_jobs() <= 1) return;
  engine::ThreadPool* expected = nullptr;
  installed_ = g_shared_pool.compare_exchange_strong(
      expected, pool, std::memory_order_acq_rel);
}

ScopedSharedPool::~ScopedSharedPool() {
  if (installed_) g_shared_pool.store(nullptr, std::memory_order_release);
}

}  // namespace swsim::mag::kernels
