#include "klinq/serve/shard_scheduler.hpp"

#include <algorithm>
#include <utility>

#include "klinq/hw/quantized_network.hpp"

namespace klinq::serve {

namespace {

constexpr std::size_t kTile = hw::quantized_network<fx::q16_16>::kBatchTile;

std::size_t normalize_shard_shots(std::size_t requested) {
  if (requested == 0) {
    // Default: four cache tiles per shard — large enough to amortize the
    // queue round-trip, small enough that a single 4096-shot request still
    // fans out 16 ways.
    return 4 * kTile;
  }
  // Clamp absurd sizes (e.g. a -1 that wrapped through a CLI cast) so the
  // tile round-up below cannot overflow to zero; anything this large means
  // "one shard per request" anyway.
  constexpr std::size_t kMaxShardShots = std::size_t{1} << 30;
  requested = std::min(requested, kMaxShardShots);
  // Round up to whole tiles so shard boundaries never split a cache tile.
  return ((requested + kTile - 1) / kTile) * kTile;
}

}  // namespace

shard_scheduler::shard_scheduler(thread_pool& pool, std::size_t shard_shots)
    : pool_(&pool), shard_shots_(normalize_shard_shots(shard_shots)) {}

shard_scheduler::~shard_scheduler() { drain(); }

void shard_scheduler::dispatch(
    std::size_t shots,
    std::function<void(std::size_t, std::size_t, shard_arena&)> run_shard) {
  if (shots == 0) return;
  // One shared copy of the callable: shard tasks outlive this call, and the
  // last one to finish releases it.
  auto shared_run =
      std::make_shared<std::function<void(std::size_t, std::size_t,
                                          shard_arena&)>>(std::move(run_shard));
  // Account for every shard up front: on a workerless pool submit() runs
  // tasks inline, so incrementing inside the loop could see pending_ touch
  // zero between shards and wake a concurrent drain() early.
  {
    const std::lock_guard lock(mutex_);
    pending_ += shard_count(shots);
  }
  for (std::size_t begin = 0; begin < shots; begin += shard_shots_) {
    const std::size_t end = std::min(begin + shard_shots_, shots);
    pool_->submit([this, shared_run, begin, end] {
      std::unique_ptr<shard_arena> arena = acquire();
      (*shared_run)(begin, end, *arena);
      finish_shard(std::move(arena));
    });
  }
}

void shard_scheduler::drain() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return pending_ == 0; });
}

std::size_t shard_scheduler::pooled_arena_count() const {
  const std::lock_guard lock(mutex_);
  return free_arenas_.size();
}

std::unique_ptr<shard_arena> shard_scheduler::acquire() {
  {
    const std::lock_guard lock(mutex_);
    if (!free_arenas_.empty()) {
      std::unique_ptr<shard_arena> arena = std::move(free_arenas_.back());
      free_arenas_.pop_back();
      return arena;
    }
  }
  return std::make_unique<shard_arena>();
}

void shard_scheduler::finish_shard(std::unique_ptr<shard_arena> arena) {
  const std::lock_guard lock(mutex_);
  free_arenas_.push_back(std::move(arena));
  --pending_;
  if (pending_ == 0) idle_.notify_all();
}

}  // namespace klinq::serve
