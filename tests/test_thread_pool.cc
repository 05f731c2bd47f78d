#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/telemetry.h"

namespace omnifair {
namespace {

TEST(ThreadPool, GlobalIsASingletonWithAtLeastOneWorker) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.NumThreads(), 1);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvironmentOverride) {
  ASSERT_EQ(setenv("OMNIFAIR_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  ASSERT_EQ(setenv("OMNIFAIR_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);  // falls back to hardware
  ASSERT_EQ(setenv("OMNIFAIR_THREADS", "-2", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
  ASSERT_EQ(unsetenv("OMNIFAIR_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

TEST(ThreadPool, ExplicitSizeConstructorJoinsCleanly) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.NumThreads(), 4);
  // Destructor must drain and join without deadlock even with queued work.
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&ran]() { ran.fetch_add(1); });
  }
  // Pool goes out of scope here; all 64 tasks must have run by then.
}

TEST(ThreadPool, SubmitReturnsFutureWithResult) {
  ThreadPool pool(2);
  std::future<int> answer = pool.Submit([]() { return 41 + 1; });
  EXPECT_EQ(answer.get(), 42);

  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughTheFuture) {
  ThreadPool pool(2);
  std::future<int> bad =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.Submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForExactlyOnceUnderRepeatedContention) {
  // Many short loops back to back stress the claim protocol and the
  // help-first join against worker wake-up races.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    constexpr size_t kN = 37;
    std::atomic<size_t> sum{0};
    pool.ParallelFor(kN, [&sum](size_t i) { sum.fetch_add(i + 1); });
    ASSERT_EQ(sum.load(), kN * (kN + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, ParallelForWithUnitParallelismRunsInlineOnCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  pool.ParallelFor(
      100, [&](size_t) { seen.insert(std::this_thread::get_id()); },
      /*max_parallelism=*/1);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
}

TEST(ThreadPool, ParallelForZeroAndOneIterationDegenerateCases) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&calls](size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForRangesCutsDependOnlyOnBoundsAndGrain) {
  // [5, 1005) in grains of 64: 15 full ranges and a 40-index tail, each
  // index covered once, with the same cuts inline and on the pool.
  ThreadPool pool(4);
  for (const int parallelism : {1, 0}) {
    std::mutex mu;
    std::set<std::pair<size_t, size_t>> cuts;
    std::vector<std::atomic<int>> hits(1005);
    for (auto& h : hits) h.store(0);
    pool.ParallelForRanges(
        5, 1005, 64,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          std::lock_guard<std::mutex> lock(mu);
          cuts.emplace(begin, end);
        },
        parallelism);
    ASSERT_EQ(cuts.size(), 16u);
    EXPECT_EQ(*cuts.begin(), std::make_pair(size_t{5}, size_t{69}));
    EXPECT_EQ(*cuts.rbegin(), std::make_pair(size_t{965}, size_t{1005}));
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), i < 5 ? 0 : 1) << "index " << i;
    }
  }
  int calls = 0;
  pool.ParallelForRanges(7, 7, 64, [&calls](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForRethrowsBodyExceptionAndStaysUsable) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.ParallelFor(1000,
                       [&executed](size_t i) {
                         executed.fetch_add(1);
                         if (i == 3) throw std::runtime_error("iteration 3");
                       }),
      std::runtime_error);
  // Unclaimed iterations are abandoned after the throw, so not all ran.
  EXPECT_LE(executed.load(), 1000);
  // The pool survives: a fresh loop still covers everything.
  std::atomic<int> after{0};
  pool.ParallelFor(100, [&after](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ThreadPool, ParallelForFromInsideSubmittedTask) {
  // A pooled task driving a ParallelFor must not deadlock even when every
  // worker is busy (help-first join degrades to serial-in-caller).
  ThreadPool pool(2);
  std::vector<std::future<int>> futures;
  for (int t = 0; t < 4; ++t) {
    futures.push_back(pool.Submit([&pool]() {
      std::atomic<int> count{0};
      pool.ParallelFor(50, [&count](size_t) { count.fetch_add(1); });
      return count.load();
    }));
  }
  for (auto& f : futures) EXPECT_EQ(f.get(), 50);
}

TEST(ThreadPool, SubmitCountsTasksInTelemetry) {
  Counter* tasks = MetricsRegistry::Global().GetCounter("pool.tasks");
  const long long before = tasks->Value();
  ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) pool.Submit([]() {}).wait();
  EXPECT_GE(tasks->Value(), before + 10);
}

TEST(ThreadPool, TasksInheritSubmitterTelemetryLevel) {
  ThreadPool pool(2);
  Counter* tasks = MetricsRegistry::Global().GetCounter("pool.tasks");
  const long long before = tasks->Value();
  {
    // With telemetry forced off at the submit site, the pool's own
    // instrumentation inside the task must not count.
    ScopedTelemetryLevel off(TelemetryLevel::kOff);
    pool.Submit([]() {}).wait();
  }
  EXPECT_EQ(tasks->Value(), before);
}

}  // namespace
}  // namespace omnifair
