// ThreadPool and Scheduler: completion, work stealing under load,
// dependency ordering, failure propagation and cancellation cascades.
// These are the tests scripts/check.sh also runs under ThreadSanitizer.
#include "engine/scheduler.h"
#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace swsim::engine {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, TasksMaySubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&] {
      for (int j = 0; j < 5; ++j) {
        pool.submit([&count] { ++count; });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, WaitIdleOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPool, UnevenTasksAreStolen) {
  // Many slow tasks land round-robin on 4 deques; with stealing, total
  // wall time approaches work/threads even though submission order is
  // unbalanced in task cost.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&count, i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(i % 4 == 0 ? 20 : 1));
      ++count;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, DefaultThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10'000);
  pool.parallel_for(hits.size(), 256, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForChunksDependOnlyOnSizeAndGrain) {
  // The kernel layer's determinism contract rests on this: the same
  // (n, grain) must produce the same chunk boundaries for ANY pool size,
  // so disjoint-write callers emit identical bytes regardless of threads.
  auto chunks_of = [](std::size_t threads, std::size_t n, std::size_t grain) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(n, grain, [&](std::size_t b, std::size_t e) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  for (const std::size_t n :
       std::vector<std::size_t>{0, 1, 255, 256, 1000, 4096}) {
    const auto one = chunks_of(1, n, 256);
    EXPECT_EQ(one, chunks_of(2, n, 256)) << "n = " << n;
    EXPECT_EQ(one, chunks_of(7, n, 256)) << "n = " << n;
    // Chunks tile [0, n) in order with no gap or overlap.
    std::size_t pos = 0;
    for (const auto& [b, e] : one) {
      EXPECT_EQ(b, pos);
      EXPECT_LT(b, e);
      pos = e;
    }
    EXPECT_EQ(pos, n);
  }
}

TEST(ThreadPool, ParallelForCallerParticipates) {
  // parallel_for must make progress even when every worker is busy — the
  // calling thread runs chunks itself, which is what keeps the shared
  // engine-pool + intra-solve arrangement deadlock-free.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);  // backstop, never reached
  for (int i = 0; i < 2; ++i) {
    pool.submit([&release, deadline] {
      while (!release.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  std::atomic<int> covered{0};
  pool.parallel_for(512, 64, [&](std::size_t b, std::size_t e) {
    covered += static_cast<int>(e - b);
  });
  EXPECT_EQ(covered.load(), 512);
  release = true;
  pool.wait_idle();
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(1024, 64,
                                 [&](std::size_t b, std::size_t) {
                                   if (b == 512) {
                                     throw std::runtime_error("chunk failed");
                                   }
                                 }),
               std::runtime_error);
  pool.wait_idle();  // pool stays usable after a throwing sweep
}

TEST(Scheduler, RunsIndependentJobs) {
  ThreadPool pool(4);
  Scheduler sched(pool);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    sched.add("job", [&count] { ++count; });
  }
  sched.run();
  EXPECT_EQ(count.load(), 20);
  EXPECT_EQ(sched.count(JobState::kDone), 20u);
}

TEST(Scheduler, DependencyOrdering) {
  ThreadPool pool(4);
  Scheduler sched(pool);
  std::mutex mu;
  std::vector<int> order;
  const auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  // Diamond: 0 -> {1, 2} -> 3.
  const JobId a = sched.add("a", [&] { record(0); });
  const JobId b = sched.add("b", [&] { record(1); }, {a});
  const JobId c = sched.add("c", [&] { record(2); }, {a});
  sched.add("d", [&] { record(3); }, {b, c});
  sched.run();

  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
}

TEST(Scheduler, RecordsTimings) {
  ThreadPool pool(2);
  Scheduler sched(pool);
  const JobId a = sched.add("sleepy", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  sched.run();
  EXPECT_GE(sched.job(a).seconds, 0.005);
  EXPECT_GE(sched.total_job_seconds(), 0.005);
  EXPECT_EQ(sched.job(a).state, JobState::kDone);
}

TEST(Scheduler, FailureCancelsDependentsAndThrows) {
  ThreadPool pool(2);
  Scheduler sched(pool);
  std::atomic<bool> downstream_ran{false};
  const JobId bad = sched.add("bad", [] {
    throw std::runtime_error("boom");
  });
  const JobId dep =
      sched.add("dep", [&] { downstream_ran = true; }, {bad});
  const JobId dep2 =
      sched.add("dep2", [&] { downstream_ran = true; }, {dep});
  const JobId ok = sched.add("ok", [] {});

  EXPECT_THROW(sched.run(), std::runtime_error);
  EXPECT_FALSE(downstream_ran.load());
  EXPECT_EQ(sched.job(bad).state, JobState::kFailed);
  EXPECT_EQ(sched.job(bad).status.message(), "boom");
  EXPECT_EQ(sched.job(dep).state, JobState::kCancelled);
  EXPECT_EQ(sched.job(dep2).state, JobState::kCancelled);
  EXPECT_EQ(sched.job(ok).state, JobState::kDone);
}

TEST(Scheduler, CancelBeforeRunCascades) {
  ThreadPool pool(2);
  Scheduler sched(pool);
  std::atomic<int> count{0};
  const JobId a = sched.add("a", [&] { ++count; });
  const JobId b = sched.add("b", [&] { ++count; }, {a});
  const JobId c = sched.add("c", [&] { ++count; }, {b});
  const JobId free_job = sched.add("free", [&] { ++count; });
  sched.cancel(a);
  sched.run();

  EXPECT_EQ(count.load(), 1);  // only the free job ran
  EXPECT_EQ(sched.job(a).state, JobState::kCancelled);
  EXPECT_EQ(sched.job(b).state, JobState::kCancelled);
  EXPECT_EQ(sched.job(c).state, JobState::kCancelled);
  EXPECT_EQ(sched.job(free_job).state, JobState::kDone);
}

TEST(Scheduler, DependingOnDeadJobIsDeadOnArrival) {
  ThreadPool pool(2);
  Scheduler sched(pool);
  std::atomic<bool> ran{false};
  const JobId a = sched.add("a", [] {});
  sched.cancel(a);
  const JobId b = sched.add("b", [&] { ran = true; }, {a});
  sched.run();
  EXPECT_EQ(sched.job(b).state, JobState::kCancelled);
  EXPECT_FALSE(ran.load());
}

TEST(Scheduler, RejectsUnknownDependencyAndDoubleRun) {
  ThreadPool pool(1);
  Scheduler sched(pool);
  EXPECT_THROW(sched.add("x", [] {}, {42}), std::invalid_argument);
  sched.add("ok", [] {});
  sched.run();
  EXPECT_THROW(sched.run(), std::logic_error);
  EXPECT_THROW(sched.add("late", [] {}), std::logic_error);
}

}  // namespace
}  // namespace swsim::engine
