// ThreadPool and Scheduler: completion, FIFO order, uneven load, failure
// isolation within a batch, and shedding after a process-wide cancel.
// These are the tests scripts/check.sh also runs under ThreadSanitizer.
#include "engine/scheduler.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "robust/cancel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <string>
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
  // Slow and quick tasks interleaved on 4 workers: no task is bound to a
  // worker, so an idle worker always takes the oldest queued task and a
  // slow one never holds back the rest.
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

TEST(ThreadPool, ParallelForInsideASaturatedPoolQueuesNothing) {
  // Each of the two workers runs a job that issues its own parallel_for
  // while both jobs are running: no worker is idle, so neither call
  // queues a helper task, and each runs every chunk itself with the
  // serial result.
  struct Disarm {
    ~Disarm() { obs::MetricsRegistry::disarm(); }
  } disarm;
  obs::MetricsRegistry::arm();
  obs::Counter& submitted =
      obs::MetricsRegistry::global().counter("pool.tasks.submitted");
  constexpr std::size_t kN = 1000, kGrain = 64;
  std::vector<std::uint64_t> serial((kN + kGrain - 1) / kGrain, 0);
  for (std::size_t i = 0; i < kN; ++i) serial[i / kGrain] += i * i;

  ThreadPool pool(2);
  const std::uint64_t before = submitted.value();
  std::latch running(2), swept(2);
  std::vector<std::uint64_t> sums[2];
  for (int j = 0; j < 2; ++j) {
    pool.submit([&, j] {
      running.arrive_and_wait();
      std::vector<std::uint64_t> out(serial.size(), 0);
      pool.parallel_for(kN, kGrain, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) out[b / kGrain] += i * i;
      });
      sums[j] = std::move(out);
      swept.arrive_and_wait();  // neither job ends before both have swept
    });
  }
  pool.wait_idle();
  EXPECT_EQ(submitted.value() - before, 2u);  // the two jobs only
  EXPECT_EQ(sums[0], serial);
  EXPECT_EQ(sums[1], serial);
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
  sched.run_all();
  EXPECT_EQ(count.load(), 20);
  EXPECT_EQ(sched.count(JobState::kDone), 20u);
}

TEST(Scheduler, StartsJobsInAddOrder) {
  // One worker takes the queue front to back: jobs start in add order.
  ThreadPool pool(1);
  Scheduler sched(pool);
  std::vector<JobId> order;  // written by the one worker only
  for (int i = 0; i < 6; ++i) {
    sched.add("job " + std::to_string(i),
              [&order, i] { order.push_back(static_cast<JobId>(i)); });
  }
  sched.run_all();
  EXPECT_EQ(order, (std::vector<JobId>{0, 1, 2, 3, 4, 5}));
}

TEST(Scheduler, RecordsTimings) {
  ThreadPool pool(2);
  Scheduler sched(pool);
  const JobId a = sched.add("sleepy", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  sched.run_all();
  EXPECT_GE(sched.job(a).seconds, 0.005);
  EXPECT_GE(sched.total_job_seconds(), 0.005);
  EXPECT_EQ(sched.job(a).state, JobState::kDone);
}

TEST(Scheduler, FailureIsRecordedAndOtherJobsRun) {
  ThreadPool pool(2);
  Scheduler sched(pool);
  std::atomic<int> ran{0};
  const JobId bad = sched.add("bad", [] {
    throw std::runtime_error("boom");
  });
  const JobId ok = sched.add("ok", [&] { ++ran; });
  const JobId ok2 = sched.add("ok2", [&] { ++ran; });

  sched.run_all();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(sched.job(bad).state, JobState::kFailed);
  EXPECT_EQ(sched.job(bad).status.message(), "boom");
  EXPECT_EQ(sched.job(bad).status.code(), robust::StatusCode::kInternal);
  EXPECT_EQ(sched.job(bad).attempts, 1u);
  EXPECT_EQ(sched.job(ok).state, JobState::kDone);
  EXPECT_EQ(sched.job(ok2).state, JobState::kDone);
}

TEST(Scheduler, ProcessCancelShedsJobsNotYetStarted) {
  // A job a worker picks up after request_process_cancel() (the second
  // SIGTERM's force-cancel) ends kCancelled without its closure running.
  struct ResetProcessCancel {
    ~ResetProcessCancel() { robust::reset_process_cancel(); }
  } reset;
  ThreadPool pool(1);
  Scheduler sched(pool);
  std::atomic<bool> ran{false};
  const JobId id = sched.add("late", [&ran] { ran = true; });
  robust::request_process_cancel();
  sched.run_all();

  EXPECT_FALSE(ran.load());
  EXPECT_EQ(sched.job(id).state, JobState::kCancelled);
  EXPECT_EQ(sched.job(id).status.code(), robust::StatusCode::kCancelled);
  EXPECT_EQ(sched.job(id).status.message(), "cancelled by shutdown request");
  EXPECT_EQ(sched.job(id).attempts, 0u);
}

TEST(Scheduler, RejectsSecondRunAndLateAdd) {
  ThreadPool pool(1);
  Scheduler sched(pool);
  sched.add("ok", [] {});
  sched.run_all();
  EXPECT_THROW(sched.run_all(), std::logic_error);
  EXPECT_THROW(sched.add("late", [] {}), std::logic_error);
}

}  // namespace
}  // namespace swsim::engine
