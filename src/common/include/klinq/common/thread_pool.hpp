// Minimal work-sharing thread pool with a blocking parallel_for and an
// asynchronous submit().
//
// The pool is used by the GEMM kernels, the dataset generator and the serve
// shard scheduler. A single process-wide pool (global_thread_pool) avoids
// oversubscription; individual components never spawn their own threads.
//
// Nesting: code already running on a pool worker (a submitted task or a
// parallel_for chunk) may call parallel_for again — the nested call queues
// its chunks like any other and then work-steals while blocked: instead of
// sleeping, a waiting caller drains the shared task queue (its own
// sub-chunks, or anyone else's). Two saturated workers can therefore never
// deadlock on each other's queued sub-chunks — a blocked thread always makes
// progress on whatever is queued, and only sleeps once every outstanding
// chunk of its own dispatch is already executing elsewhere. Results are
// chunking-invariant, so stealing changes scheduling, never values.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace klinq {

class thread_pool {
 public:
  /// Creates `worker_count` workers; 0 means std::thread::hardware_concurrency.
  explicit thread_pool(std::size_t worker_count = 0);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Enqueues one task for asynchronous execution and returns immediately.
  /// Tasks share the FIFO queue with parallel_for chunks. The task runs
  /// inline on the calling thread before submit() returns when the pool has
  /// no spawned workers (single-CPU host) or when the caller is itself a
  /// pool worker (queueing there and blocking on completion could deadlock
  /// a saturated pool, like nested parallel_for) — callers must not rely on
  /// concurrency, only on eventual completion. Exceptions escaping the task
  /// terminate (there is nowhere to rethrow them); wrap fallible work and
  /// route errors through your own completion state.
  void submit(std::function<void()> task);

  /// True when the current thread is one of this pool's workers (or is
  /// running an inline-executed submit on a workerless pool).
  static bool on_worker() noexcept;

  /// Runs body(i) for i in [begin, end), partitioned into contiguous chunks
  /// across the pool plus the calling thread. Blocks until all work is done,
  /// draining the task queue while blocked (work-stealing wait) so nested
  /// dispatch from a pool worker parallelizes instead of degrading to the
  /// serial inline path. Exceptions from body are rethrown on the caller
  /// (first one wins).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Like parallel_for but hands each worker a [chunk_begin, chunk_end) range,
  /// which amortizes the per-index std::function call on hot loops.
  void parallel_for_chunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& chunk_body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  bool stopping_ = false;
};

/// Process-wide pool sized to the hardware; created on first use.
thread_pool& global_thread_pool();

/// Convenience wrappers over the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);
void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& chunk_body);

}  // namespace klinq
