#ifndef OMNIFAIR_UTIL_THREAD_POOL_H_
#define OMNIFAIR_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace omnifair {

/// Process-wide work-stealing task pool (DESIGN.md §10).
///
/// Each worker owns a deque: it pushes/pops its own back (LIFO, cache-warm)
/// and steals from other workers' fronts (FIFO, oldest-first). Tasks carry
/// the submitter's effective telemetry level so OF_* instrumentation inside
/// a task honours a ScopedTelemetryLevel active at the call site.
///
/// Blocking inside a pooled task on other pooled tasks deadlocks a fixed-size
/// pool, so ParallelFor never waits idly: the calling thread participates in
/// the loop and helper workers merely accelerate it. Nested ParallelFor from
/// inside a pool worker therefore degrades to serial-in-caller, not deadlock.
class ThreadPool {
 public:
  /// The shared pool. Created on first use with `DefaultThreadCount()`
  /// workers; lives until process exit.
  static ThreadPool& Global();

  /// OMNIFAIR_THREADS if set to a positive integer, otherwise
  /// std::thread::hardware_concurrency() (minimum 1).
  static int DefaultThreadCount();

  /// A pool with `num_threads` workers (minimum 1). Prefer Global().
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int NumThreads() const { return static_cast<int>(workers_.size()); }

  /// Schedules `fn` and returns a future for its result. Exceptions thrown
  /// by `fn` surface through the future.
  template <typename Fn, typename R = std::invoke_result_t<Fn>>
  std::future<R> Submit(Fn&& fn) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    Enqueue([task]() { (*task)(); });
    return result;
  }

  /// Runs body(i) for every i in [0, n) across the calling thread plus up to
  /// `max_parallelism - 1` pool workers (0 = use the whole pool). Iterations
  /// are claimed one at a time from a shared atomic index, so the set of
  /// executed indices is exactly [0, n) regardless of thread interleaving.
  /// Each index costs one atomic claim and one std::function call, so keep
  /// bodies coarse; ParallelForRanges batches fine-grained loops.
  ///
  /// If any invocation throws, remaining unclaimed iterations are abandoned
  /// and the first exception (by claim order observed) is rethrown on the
  /// calling thread after all in-flight iterations finish.
  ///
  /// With `max_parallelism == 1` (or n <= 1, or no free workers) the loop
  /// runs inline on the caller with no synchronization — the exact serial
  /// code path.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                   int max_parallelism = 0);

  /// ParallelFor over [begin, end) cut into consecutive ranges of `grain`
  /// indices (grain > 0; the last range may be shorter): body(range_begin,
  /// range_end) runs once per range. The cuts depend only on begin, end and
  /// grain — never on the thread count — so a body that writes only its own
  /// range gives the same result at any parallelism. A single range runs
  /// inline on the caller.
  template <typename Body>
  void ParallelForRanges(size_t begin, size_t end, size_t grain, Body&& body,
                         int max_parallelism = 0) {
    if (end <= begin) return;
    if (end - begin <= grain) {
      body(begin, end);
      return;
    }
    ParallelFor(
        (end - begin + grain - 1) / grain,
        [&](size_t k) {
          const size_t range_begin = begin + k * grain;
          body(range_begin, std::min(end, range_begin + grain));
        },
        max_parallelism);
  }

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void Enqueue(std::function<void()> task);
  void WorkerLoop(int worker_index);
  /// Pops from own back or steals from another queue's front; blocks until
  /// a task is available or shutdown. Returns false on shutdown.
  bool NextTask(int worker_index, std::function<void()>* task);
  /// Pops and runs one queued task on the calling thread, if any is pending.
  /// Used by ParallelFor's help-first join.
  bool TryRunOneTask();

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> round_robin_{0};

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  size_t queued_ = 0;  // guarded by wake_mu_
  bool stop_ = false;  // guarded by wake_mu_
};

}  // namespace omnifair

#endif  // OMNIFAIR_UTIL_THREAD_POOL_H_
