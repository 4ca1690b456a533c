#include "klinq/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace klinq {

namespace {

// Set for the lifetime of a worker thread (and during inline submit
// execution on a workerless pool). submit() consults it to decide between
// queueing and running inline; parallel_for dispatches chunks regardless
// because its work-stealing wait keeps nested dispatch deadlock-free.
thread_local bool t_on_pool_worker = false;

struct worker_scope {
  bool previous;
  worker_scope() noexcept : previous(t_on_pool_worker) {
    t_on_pool_worker = true;
  }
  ~worker_scope() { t_on_pool_worker = previous; }
};

// The open deferred_wake guards of this thread: the pool they defer (null:
// none), their nesting depth, and the tasks submitted under them.
struct wake_deferral {
  const thread_pool* pool = nullptr;
  std::size_t depth = 0;
  std::size_t queued = 0;
};
thread_local wake_deferral t_deferral;

}  // namespace

thread_pool::deferred_wake::deferred_wake(thread_pool& pool) noexcept
    : pool_(&pool) {
  if (t_deferral.pool == nullptr) {
    t_deferral.pool = &pool;
  } else if (t_deferral.pool != &pool) {
    pool_ = nullptr;
    return;
  }
  ++t_deferral.depth;
}

thread_pool::deferred_wake::~deferred_wake() {
  if (pool_ == nullptr || --t_deferral.depth > 0) return;
  t_deferral.pool = nullptr;
  // min(queued, workers) wake-ups: the tasks were pushed under the pool's
  // mutex, so a worker that checks the queue after this finds them.
  const std::size_t queued = std::exchange(t_deferral.queued, 0);
  if (queued >= pool_->workers_.size()) {
    pool_->task_ready_.notify_all();
    return;
  }
  for (std::size_t i = 0; i < queued; ++i) pool_->task_ready_.notify_one();
}

bool thread_pool::on_worker() noexcept { return t_on_pool_worker; }

thread_pool::thread_pool(std::size_t worker_count) {
  if (worker_count == 0) {
    worker_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread participates in parallel_for, so spawn one fewer.
  const std::size_t spawned = worker_count > 1 ? worker_count - 1 : 0;
  workers_.reserve(spawned);
  for (std::size_t i = 0; i < spawned; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

thread_pool::~thread_pool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void thread_pool::worker_loop() {
  const worker_scope scope;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void thread_pool::submit(std::function<void()> task) {
  if (workers_.empty() || t_on_pool_worker) {
    // Run inline before returning when there is nobody safe to hand the
    // task to: either the pool has no background workers (single-CPU host),
    // or the submitter *is* a pool worker. Unlike parallel_for — whose
    // work-stealing wait makes queueing from a worker safe — submit()'s
    // caller may block on the task's completion through a channel the pool
    // cannot see (e.g. readout_server::wait on a condition variable), so a
    // queued-from-worker task could deadlock a saturated pool. Mark the
    // thread as a worker for the duration so the task behaves exactly as it
    // would on a real worker.
    const worker_scope scope;
    task();
    return;
  }
  {
    const std::lock_guard lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  if (t_deferral.pool == this) {
    ++t_deferral.queued;  // the guard's end wakes a worker for it
    return;
  }
  task_ready_.notify_one();
}

void thread_pool::parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& chunk_body) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t parallelism = workers_.size() + 1;
  const std::size_t chunk_count = std::min(total, parallelism);
  if (chunk_count <= 1) {
    chunk_body(begin, end);
    return;
  }

  // Heap-allocated and shared with every task: a stack-allocated state
  // would be destroyed the instant the waiting caller observes completion,
  // racing the last worker's unlock/notify on the same mutex/cv
  // (use-after-free that intermittently deadlocks the pool).
  struct shared_state {
    std::mutex done_mutex;
    std::condition_variable done;
    std::size_t remaining = 0;  // guarded by done_mutex
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<shared_state>();
  state->remaining = chunk_count - 1;

  const std::size_t base = total / chunk_count;
  const std::size_t extra = total % chunk_count;
  std::size_t cursor = begin;
  std::size_t first_begin = 0;
  std::size_t first_end = 0;
  for (std::size_t c = 0; c < chunk_count; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    const std::size_t chunk_begin = cursor;
    const std::size_t chunk_end = cursor + len;
    cursor = chunk_end;
    if (c == 0) {
      // Reserve the first chunk for the calling thread.
      first_begin = chunk_begin;
      first_end = chunk_end;
      continue;
    }
    const std::lock_guard lock(mutex_);
    tasks_.push_back([state, &chunk_body, chunk_begin, chunk_end] {
      std::exception_ptr error;
      try {
        chunk_body(chunk_begin, chunk_end);
      } catch (...) {
        error = std::current_exception();
      }
      const std::lock_guard done_lock(state->done_mutex);
      if (error && !state->first_error) state->first_error = error;
      --state->remaining;
      if (state->remaining == 0) state->done.notify_one();
    });
  }
  task_ready_.notify_all();

  try {
    // The caller's reserved chunk runs under the worker flag so its own
    // nested dispatch behaves exactly like a queued chunk's.
    const worker_scope scope;
    chunk_body(first_begin, first_end);
  } catch (...) {
    const std::lock_guard done_lock(state->done_mutex);
    if (!state->first_error) state->first_error = std::current_exception();
  }

  // Work-stealing wait: instead of sleeping while chunks are outstanding,
  // drain the shared task queue. This is what makes nested dispatch safe —
  // a worker blocked here executes queued tasks (its own sub-chunks, or
  // anyone else's), so a saturated pool can never end up with every thread
  // asleep waiting for work only another sleeper could pop. Sleeping on the
  // completion signal is reserved for the moment the queue is empty, which
  // means every outstanding chunk is already executing on some other thread
  // and will signal completion itself. A drained task may be an unrelated
  // long-running chunk (the usual help-first caveat: joining can execute
  // foreign work), which delays this caller but never deadlocks it.
  for (;;) {
    {
      const std::lock_guard done_lock(state->done_mutex);
      if (state->remaining == 0) break;
    }
    std::function<void()> task;
    {
      const std::lock_guard lock(mutex_);
      if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
    }
    if (task) {
      const worker_scope scope;
      try {
        task();
      } catch (...) {
        // parallel_for chunks trap their own exceptions; a throwing
        // submit() task terminates exactly as it would on a worker thread.
        std::terminate();
      }
      continue;
    }
    std::unique_lock done_lock(state->done_mutex);
    state->done.wait(done_lock, [&] { return state->remaining == 0; });
    break;
  }

  std::exception_ptr error;
  {
    const std::lock_guard done_lock(state->done_mutex);
    error = state->first_error;
  }
  if (error) std::rethrow_exception(error);
}

void thread_pool::parallel_for(std::size_t begin, std::size_t end,
                               const std::function<void(std::size_t)>& body) {
  parallel_for_chunked(begin, end,
                       [&body](std::size_t chunk_begin, std::size_t chunk_end) {
                         for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
                           body(i);
                         }
                       });
}

thread_pool& global_thread_pool() {
  static thread_pool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  global_thread_pool().parallel_for(begin, end, body);
}

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& chunk_body) {
  global_thread_pool().parallel_for_chunked(begin, end, chunk_body);
}

}  // namespace klinq
