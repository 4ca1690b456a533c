// Test helper shared by the serve and net suites: holds dispatched work in
// flight by parking every global_thread_pool() worker in a spinning task.
//
// While parked, a request the server dispatches to the pool stays queued —
// deterministically in flight, so poll() is false and cancel() lands before
// any of its shards start — and only work that needs no pool worker (an
// inline feedback request) makes progress. Two cautions for callers:
//   * a parallel_for on the test thread drains the pool queue while it
//     waits, so compute expected values before parking;
//   * on a workerless pool (one CPU) the pool runs every task inline at
//     submit, so nothing can be held. Tests that need a held request skip
//     there (see holds_work()).
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>

#include "klinq/common/thread_pool.hpp"

namespace klinq::test_support {

class parked_workers {
 public:
  parked_workers() {
    thread_pool& pool = global_thread_pool();
    for (std::size_t w = 0; w < pool.worker_count(); ++w) {
      pool.submit([this] {
        ++parked_;
        while (!release_.load()) std::this_thread::yield();
        --parked_;
      });
    }
    while (parked_.load() < pool.worker_count()) std::this_thread::yield();
  }
  ~parked_workers() { release(); }
  parked_workers(const parked_workers&) = delete;
  parked_workers& operator=(const parked_workers&) = delete;

  /// Lets every worker go and returns once each has left its spinning task.
  /// Idempotent; the destructor calls it too.
  void release() {
    release_ = true;
    while (parked_.load() > 0) std::this_thread::yield();
  }

  /// True when the pool has workers to park, so dispatched work is held.
  static bool holds_work() { return global_thread_pool().worker_count() > 0; }

 private:
  std::atomic<bool> release_{false};
  std::atomic<std::size_t> parked_{0};
};

}  // namespace klinq::test_support
