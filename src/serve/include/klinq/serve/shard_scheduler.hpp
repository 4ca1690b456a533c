// Shard scheduler: splits a request's trace block into shard-sized row
// ranges and enqueues one asynchronous task per shard on the shared thread
// pool.
//
// A shard is a group of the engine's cache-sized tiles
// (hw::quantized_network::kBatchTile shots each — the unit that keeps the
// input tile L1/L2-resident while each weight row streams across it once);
// shard_shots therefore controls scheduling granularity, not cache behavior.
// Each shard task borrows a reusable arena (quantized/discriminator scratch
// for the fixed path, student scratch for the float path) from a free-list,
// so the steady state of a saturated server performs zero heap allocations
// inside shard execution.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "klinq/common/thread_pool.hpp"
#include "klinq/fixed/fixed.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"

namespace klinq::serve {

/// Per-shard reusable scratch: both engines' arenas live side by side so one
/// arena pool serves mixed fixed/float workloads.
struct shard_arena {
  hw::discriminator_scratch<fx::q16_16> fixed;
  kd::student_scratch student;
};

class shard_scheduler {
 public:
  /// `shard_shots` = rows per shard; 0 selects the default (four engine
  /// tiles). Values are rounded up to a whole number of tiles so shard
  /// boundaries never split a cache tile.
  explicit shard_scheduler(thread_pool& pool, std::size_t shard_shots = 0);

  /// Blocks until every dispatched shard task has fully finished (including
  /// arena return) — enqueued tasks hold a pointer into this scheduler.
  ~shard_scheduler();

  shard_scheduler(const shard_scheduler&) = delete;
  shard_scheduler& operator=(const shard_scheduler&) = delete;

  std::size_t shard_shots() const noexcept { return shard_shots_; }

  /// Number of shards a block of `shots` rows splits into.
  std::size_t shard_count(std::size_t shots) const noexcept {
    return (shots + shard_shots_ - 1) / shard_shots_;
  }

  /// Splits [0, shots) into shard ranges and enqueues one pool task per
  /// shard. Each task acquires an arena, runs
  /// `run_shard(row_begin, row_end, arena)`, and returns the arena to the
  /// pool. run_shard must be internally synchronized for completion
  /// accounting and must not throw (route errors through your own state);
  /// it may run on the calling thread when the pool has no workers.
  void dispatch(std::size_t shots,
                std::function<void(std::size_t, std::size_t, shard_arena&)>
                    run_shard);

  /// Runs `run` with one borrowed arena on the calling thread, needing no
  /// pool worker; same contract as dispatch's run_shard, and drain() waits
  /// for it.
  template <typename Fn>
  void run_inline(Fn&& run) {
    {
      const std::lock_guard lock(mutex_);
      ++pending_;
    }
    std::unique_ptr<shard_arena> arena = acquire();
    run(*arena);
    finish_shard(std::move(arena));
  }

  /// Blocks until every shard task dispatched so far has finished.
  void drain();

  /// Arenas currently parked in the free-list (telemetry/tests).
  std::size_t pooled_arena_count() const;

 private:
  std::unique_ptr<shard_arena> acquire();
  void finish_shard(std::unique_ptr<shard_arena> arena);

  thread_pool* pool_;
  std::size_t shard_shots_;
  mutable std::mutex mutex_;
  std::condition_variable idle_;  // pending_ dropped to zero
  std::size_t pending_ = 0;       // dispatched, not yet finished shard tasks
  std::vector<std::unique_ptr<shard_arena>> free_arenas_;
};

}  // namespace klinq::serve
