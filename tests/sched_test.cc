#include <atomic>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace_log.h"
#include "sched/task_group.h"
#include "sched/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace elephant {
namespace {

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    sched::ThreadPool pool(4);
    for (int i = 0; i < 1000; i++) {
      pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // dtor drains the queue
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, AsyncReturnsValues) {
  sched::ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; i++) {
    futures.push_back(pool.Async([i] { return i * i; }));
  }
  for (int i = 0; i < 64; i++) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
  EXPECT_EQ(pool.num_threads(), 3u);
  EXPECT_GE(pool.tasks_executed(), 64u);
}

TEST(ThreadPoolTest, AsyncPropagatesExceptions) {
  sched::ThreadPool pool(2);
  auto fut = pool.Async([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, WorkerTraceTracksCarryPoolNames) {
  // The pool names its workers' trace tracks before starting them; each
  // worker must then record on the track reserved for it.
  obs::TraceLog& log = obs::TraceLog::Global();
  log.Clear();
  log.Enable();
  std::set<uint32_t> tracks;
  {
    sched::ThreadPool pool(2, "named");
    std::vector<std::future<uint32_t>> futures;
    for (int i = 0; i < 16; i++) {
      futures.push_back(pool.Async([&log] {
        log.Instant("probe", "test");
        return obs::TraceLog::CurrentThreadTrackId();
      }));
    }
    for (auto& f : futures) tracks.insert(f.get());
  }
  log.Disable();
  const std::string json = log.ToJson();
  log.Clear();
  ASSERT_FALSE(tracks.empty());
  for (uint32_t track : tracks) {
    EXPECT_NE(track, obs::TraceLog::CurrentThreadTrackId());
    EXPECT_NE(json.find("\"tid\":" + std::to_string(track) +
                        ",\"args\":{\"name\":\"named-"),
              std::string::npos)
        << "track " << track << " unnamed in:\n" << json;
  }
}

TEST(ThreadPoolTest, DefaultThreadsIsBounded) {
  size_t n = sched::ThreadPool::DefaultThreads();
  EXPECT_GE(n, 2u);
  EXPECT_LE(n, 16u);
}

TEST(TaskGroupTest, WaitReturnsOkWhenAllSucceed) {
  sched::ThreadPool pool(4);
  sched::TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; i++) {
    group.Submit([&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_EQ(ran.load(), 32);
  EXPECT_FALSE(group.cancelled());
}

TEST(TaskGroupTest, FirstErrorPropagatesAndCancelsGroup) {
  sched::ThreadPool pool(2);
  sched::TaskGroup group(&pool);
  group.Submit([] { return Status::ExecError("worker 0 failed"); });
  // Later tasks see the cancellation flag; tasks dequeued after the error
  // are skipped entirely, so `late` stays well below the submitted count.
  std::atomic<int> late{0};
  for (int i = 0; i < 16; i++) {
    group.Submit([&group, &late] {
      if (!group.cancelled()) late.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  Status s = group.Wait();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kExecError);
  EXPECT_NE(s.message().find("worker 0"), std::string::npos);
  EXPECT_TRUE(group.cancelled());
}

TEST(TaskGroupTest, CancelSkipsPendingTasks) {
  sched::ThreadPool pool(2);
  sched::TaskGroup group(&pool);
  group.Cancel();
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; i++) {
    group.Submit([&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  ASSERT_TRUE(group.Wait().ok());  // cancellation itself is not an error
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskGroupTest, RunInlineContributesUnderErrorProtocol) {
  sched::ThreadPool pool(2);
  sched::TaskGroup group(&pool);
  std::atomic<int> ran{0};
  group.Submit([&ran] {
    ran.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  group.RunInline([&ran] {
    ran.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_EQ(ran.load(), 2);

  // An inline error cancels the group just like a pool-thread error.
  sched::TaskGroup g2(&pool);
  g2.RunInline([] { return Status::Internal("inline failure"); });
  EXPECT_TRUE(g2.cancelled());
  EXPECT_FALSE(g2.Wait().ok());
}

// Concurrent pin/unpin/read stress over a pool much smaller than the page
// set, so threads constantly race on misses, evictions, and LRU updates.
// Each page carries a recognizable stamp; any torn read, double-mapped
// frame, or lost eviction shows up as a stamp mismatch.
TEST(BufferPoolConcurrencyTest, ConcurrentPinUnpinEvictStress) {
  DiskManager disk;
  constexpr int kPages = 64;
  std::vector<page_id_t> ids;
  {
    BufferPool loader(&disk, 8);
    for (int i = 0; i < kPages; i++) {
      page_id_t pid;
      auto frame = loader.NewPage(&pid);
      ASSERT_TRUE(frame.ok());
      std::memset(frame.value()->data(), i & 0xff, kPageSize);
      loader.UnpinPage(pid, /*dirty=*/true);
      ids.push_back(pid);
    }
    ASSERT_TRUE(loader.FlushAll().ok());
  }

  BufferPool pool(&disk, 8);  // 8 frames for 64 pages: constant eviction
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) * 7919u + 13u);
      std::uniform_int_distribution<int> pick(0, kPages - 1);
      for (int i = 0; i < kIters; i++) {
        int slot = pick(rng);
        auto frame = pool.FetchPage(ids[static_cast<size_t>(slot)]);
        if (!frame.ok()) {
          // With 8 threads and 8 frames the pool can be transiently
          // exhausted (all frames pinned); that is an expected, clean error.
          continue;
        }
        const char* data = frame.value()->data();
        const char expected = static_cast<char>(slot & 0xff);
        if (data[0] != expected || data[kPageSize - 1] != expected) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        pool.UnpinPage(ids[static_cast<size_t>(slot)], false);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  // Every fetch was either a hit or a miss; no accesses lost or duplicated.
  EXPECT_LE(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIters);
}

// EvictAll racing against fetchers must never corrupt the pool: it either
// succeeds (no pins at that instant) or fails cleanly on a pinned page.
TEST(BufferPoolConcurrencyTest, EvictAllRacesWithFetchers) {
  DiskManager disk;
  std::vector<page_id_t> ids;
  BufferPool pool(&disk, 16);
  for (int i = 0; i < 32; i++) {
    page_id_t pid;
    auto frame = pool.NewPage(&pid);
    ASSERT_TRUE(frame.ok());
    std::memset(frame.value()->data(), i & 0xff, kPageSize);
    pool.UnpinPage(pid, true);
    ids.push_back(pid);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) + 1);
      std::uniform_int_distribution<int> pick(0, 31);
      while (!stop.load(std::memory_order_relaxed)) {
        int slot = pick(rng);
        auto frame = pool.FetchPage(ids[static_cast<size_t>(slot)]);
        if (!frame.ok()) continue;
        if (frame.value()->data()[0] != static_cast<char>(slot & 0xff)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        pool.UnpinPage(ids[static_cast<size_t>(slot)], false);
      }
    });
  }
  for (int i = 0; i < 50; i++) {
    // Eviction racing live fetches may find pinned pages — that exact code
    // (FailedPrecondition) is the only acceptable failure; anything else
    // (IoError, Internal) means the race corrupted the pool.
    Status evict = pool.EvictAll();
    ASSERT_TRUE(evict.ok() || evict.IsFailedPrecondition()) << evict.ToString();
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Per-thread IoSink attribution: each worker's sink counts exactly its own
// page reads, and the sinks sum to the global counter delta.
TEST(IoSinkTest, PerThreadAttributionSumsToGlobal) {
  DiskManager disk;
  BufferPool pool(&disk, 4);  // tiny pool: every fetch below is a miss
  std::vector<page_id_t> ids;
  for (int i = 0; i < 32; i++) {
    page_id_t pid;
    auto frame = pool.NewPage(&pid);
    ASSERT_TRUE(frame.ok());
    pool.UnpinPage(pid, true);
    ids.push_back(pid);
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  IoStats before = disk.stats();

  constexpr int kThreads = 4;
  IoSink sinks[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      IoScope scope(&sinks[t]);
      // Each thread reads a disjoint slice of pages repeatedly.
      for (int round = 0; round < 3; round++) {
        for (int i = t * 8; i < (t + 1) * 8; i++) {
          auto frame = pool.FetchPage(ids[static_cast<size_t>(i)]);
          if (frame.ok()) pool.UnpinPage(ids[static_cast<size_t>(i)], false);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  IoStats delta = disk.stats() - before;
  uint64_t sink_reads = 0;
  uint64_t sink_pool_accesses = 0;
  for (const IoSink& s : sinks) {
    IoStats st = s.ToStats();
    sink_reads += st.TotalReads();
    sink_pool_accesses += s.pool_hits.load() + s.pool_misses.load();
  }
  EXPECT_EQ(sink_reads, delta.TotalReads());
  EXPECT_EQ(sink_pool_accesses, static_cast<uint64_t>(kThreads) * 3 * 8);
  // Each thread performed at least one real disk read (slices are disjoint
  // and wider than the pool, so they cannot all be hits).
  for (const IoSink& s : sinks) {
    EXPECT_GT(s.ToStats().TotalReads(), 0u);
  }
}

TEST(IoSinkTest, ScopesNestAndRestore) {
  EXPECT_EQ(CurrentIoSink(), nullptr);
  IoSink outer, inner;
  {
    IoScope a(&outer);
    EXPECT_EQ(CurrentIoSink(), &outer);
    {
      IoScope b(&inner);
      EXPECT_EQ(CurrentIoSink(), &inner);
    }
    EXPECT_EQ(CurrentIoSink(), &outer);
  }
  EXPECT_EQ(CurrentIoSink(), nullptr);
}

}  // namespace
}  // namespace elephant
