// Concurrent access to a shared ResultCache spill store — the situation
// `swsim serve` creates on purpose: many threads in one process, and
// several processes (daemon + CLI runs) pointed at one --cache-dir.
//
// The invariants under test:
//   * thread-safety of one instance under mixed insert/lookup pressure;
//   * torn-read freedom across instances: spill files are published with
//     write-to-temp + atomic rename, so a racing reader sees either the
//     whole file or no file, never a partial one (spill_corrupt stays 0);
//   * checksum-evict-recompute: a corrupted file is detected, deleted,
//     reported as a miss, and cleanly republished.
#include "engine/result_cache.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

namespace swsim::engine {
namespace {

namespace fs = std::filesystem;

#if defined(__SANITIZE_THREAD__)
constexpr bool kUnderTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kUnderTsan = true;
#else
constexpr bool kUnderTsan = false;
#endif
#else
constexpr bool kUnderTsan = false;
#endif

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<double> payload_for(std::uint64_t key) {
  // Deterministic content per key: the content-addressing contract says
  // every writer of `key` writes exactly these bytes.
  std::vector<double> v;
  for (int i = 0; i < 16; ++i) {
    v.push_back(static_cast<double>(key) * 1.25 + i);
  }
  return v;
}

TEST(ResultCacheConcurrent, ThreadsShareOneInstanceWithoutLoss) {
  const auto dir = fresh_dir("swsim_cache_threads");
  // Tiny capacity forces constant eviction/spill/promote churn.
  ResultCache cache(2, dir.string());
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 12;
  std::atomic<int> wrong{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &wrong, t] {
      for (int round = 0; round < 40; ++round) {
        const std::uint64_t key =
            1 + (static_cast<std::uint64_t>(t) * 7 + round) % kKeys;
        const auto hit = cache.lookup(key);
        if (hit.has_value()) {
          if (*hit != payload_for(key)) wrong.fetch_add(1);
        } else {
          cache.insert(key, payload_for(key));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cache.stats().spill_corrupt, 0u);
  // Every key is retrievable afterwards, from memory or disk.
  for (std::uint64_t key = 1; key <= kKeys; ++key) {
    cache.insert(key, payload_for(key));  // no-op when present
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value()) << "key " << key;
    EXPECT_EQ(*hit, payload_for(key));
  }
  fs::remove_all(dir);
}

TEST(ResultCacheConcurrent, TwoInstancesRaceOnOneSpillDirWithoutTornReads) {
  // The daemon and a CLI run share a --cache-dir: two independent caches,
  // one directory, concurrent evictions (writes) and lookups (reads) of
  // the same keys. Atomic-rename publishing must keep every read whole.
  const auto dir = fresh_dir("swsim_cache_xinstance");
  constexpr std::uint64_t kKeys = 8;
  std::atomic<int> wrong{0};

  auto churn = [&dir, &wrong](unsigned seed) {
    ResultCache cache(1, dir.string());  // capacity 1: every insert spills
    for (int round = 0; round < 120; ++round) {
      const std::uint64_t key = 1 + (seed + round) % kKeys;
      const auto hit = cache.lookup(key);
      if (hit.has_value()) {
        if (*hit != payload_for(key)) wrong.fetch_add(1);
      } else {
        cache.insert(key, payload_for(key));
      }
    }
    if (cache.stats().spill_corrupt != 0) wrong.fetch_add(1000);
  };

  std::thread a(churn, 0u);
  std::thread b(churn, 3u);
  std::thread c(churn, 5u);
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(wrong.load(), 0);

  // No temp droppings left behind; every published file verifies.
  ResultCache verify(kKeys * 2, dir.string());
  for (std::uint64_t key = 1; key <= kKeys; ++key) {
    const auto hit = verify.lookup(key);
    if (hit.has_value()) {
      EXPECT_EQ(*hit, payload_for(key));
    }
  }
  EXPECT_EQ(verify.stats().spill_corrupt, 0u);
  fs::remove_all(dir);
}

TEST(ResultCacheConcurrent, CorruptSpillFileIsEvictedAndRepublished) {
  const auto dir = fresh_dir("swsim_cache_corrupt");
  ResultCache cache(1, dir.string());
  cache.insert(1, payload_for(1));
  cache.insert(2, payload_for(2));  // evicts key 1 to disk
  const fs::path spilled = dir / ResultCache::spill_filename(1);
  ASSERT_TRUE(fs::exists(spilled));

  // Flip one payload byte past the header: the checksum must catch it.
  {
    std::fstream f(spilled, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24 + 3);
    char byte = 0;
    f.seekg(24 + 3);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(24 + 3);
    f.write(&byte, 1);
  }

  // Detected: miss, file deleted, counted — never a wrong payload.
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.stats().spill_corrupt, 1u);
  EXPECT_FALSE(fs::exists(spilled));

  // The caller recomputes and the key publishes cleanly again.
  cache.insert(1, payload_for(1));
  cache.insert(2, payload_for(2));  // evict key 1 again
  ASSERT_TRUE(fs::exists(spilled));
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload_for(1));
  EXPECT_EQ(cache.stats().spill_corrupt, 1u);  // no new corruption
  fs::remove_all(dir);
}

TEST(ResultCacheConcurrent, TruncatedSpillFileIsAMissNotAPayload) {
  const auto dir = fresh_dir("swsim_cache_trunc");
  ResultCache cache(1, dir.string());
  cache.insert(1, payload_for(1));
  cache.insert(2, payload_for(2));
  const fs::path spilled = dir / ResultCache::spill_filename(1);
  ASSERT_TRUE(fs::exists(spilled));
  fs::resize_file(spilled, fs::file_size(spilled) / 2);

  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.stats().spill_corrupt, 1u);
  EXPECT_FALSE(fs::exists(spilled));
  fs::remove_all(dir);
}

TEST(ResultCacheConcurrent, ProcessesRaceOnOneSpillDirWithoutTornReads) {
  // The real multi-process shape: forked children, each with its own
  // ResultCache over the same directory, all churning the same keys.
  // (TSan does not follow forks; the cross-instance thread test above
  // covers the same code paths under the race detector.)
  if (kUnderTsan) GTEST_SKIP() << "fork is not supported under TSan";

  const auto dir = fresh_dir("swsim_cache_procs");
  constexpr int kChildren = 4;
  constexpr std::uint64_t kKeys = 6;

  std::vector<pid_t> pids;
  for (int c = 0; c < kChildren; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: churn, then exit 0 iff every observation was consistent.
      ResultCache cache(1, dir.string());
      int bad = 0;
      for (int round = 0; round < 150; ++round) {
        const std::uint64_t key =
            1 + (static_cast<std::uint64_t>(c) * 5 + round) % kKeys;
        const auto hit = cache.lookup(key);
        if (hit.has_value()) {
          if (*hit != payload_for(key)) ++bad;
        } else {
          cache.insert(key, payload_for(key));
        }
      }
      if (cache.stats().spill_corrupt != 0) bad += 100;
      ::_exit(bad == 0 ? 0 : 1);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "child saw a torn or wrong payload";
  }

  // The surviving directory verifies end to end from a fresh process-like
  // cache: whole files, correct contents, zero integrity failures.
  ResultCache verify(kKeys * 2, dir.string());
  std::size_t found = 0;
  for (std::uint64_t key = 1; key <= kKeys; ++key) {
    const auto hit = verify.lookup(key);
    if (hit.has_value()) {
      ++found;
      EXPECT_EQ(*hit, payload_for(key));
    }
  }
  EXPECT_GT(found, 0u);
  EXPECT_EQ(verify.stats().spill_corrupt, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace swsim::engine
