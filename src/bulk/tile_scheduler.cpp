#include "bulk/tile_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "obs/trace.hpp"

namespace bulkgcd::bulk {

namespace {

/// Interned event ids for one run's trace wiring, resolved once up front so
/// the worker loops record by id only.
struct SchedulerTrace {
  obs::TraceRecorder* rec = nullptr;
  std::uint32_t tile_id = 0;
  std::uint32_t steal_id = 0;
  std::uint32_t done_id = 0;

  explicit SchedulerTrace(obs::TraceRecorder* trace) : rec(trace) {
    if (rec == nullptr) return;
    tile_id = rec->intern("tile");
    steal_id = rec->intern("steal");
    done_id = rec->intern("worker_done");
    rec->set_arg_names(tile_id, "tile", "lo", "items");
    rec->set_arg_names(steal_id, "thief", "victim", "tiles");
    rec->set_arg_names(done_id, "worker", "executed", "");
  }
};

}  // namespace

SweepExecutor::SweepExecutor(std::size_t pool_threads) {
  if (pool_threads == 1) return;
  if (pool_threads == 0) {
    pool = &global_pool();
    workers = pool->size();
  } else {
    local_pool.emplace(pool_threads);
    pool = &*local_pool;
    workers = pool_threads;
  }
}

TileScheduler::TileScheduler(std::size_t total_items, std::size_t tile_items,
                             std::size_t workers)
    : total_(total_items), workers_(std::max<std::size_t>(1, workers)) {
  tile_items_ = tile_items == 0 ? auto_tile_items(total_, workers_)
                                : std::max<std::size_t>(1, tile_items);
  tile_items_ = std::min(tile_items_, std::max<std::size_t>(1, total_));
  tiles_ = total_ == 0 ? 0 : (total_ + tile_items_ - 1) / tile_items_;
}

std::size_t TileScheduler::auto_tile_items(std::size_t total_items,
                                           std::size_t workers) noexcept {
  if (total_items == 0) return 1;
  const std::size_t target_tiles = std::max<std::size_t>(1, workers) * 4;
  return std::max<std::size_t>(1, total_items / target_tiles);
}

TileRange TileScheduler::tile(std::size_t t) const noexcept {
  const std::size_t lo = t * tile_items_;
  return {t, lo, std::min(lo + tile_items_, total_)};
}

std::size_t TileScheduler::home_worker(std::size_t t) const noexcept {
  // Balanced contiguous runs: the first `rem` workers own one extra tile.
  const std::size_t q = tiles_ / workers_;
  const std::size_t rem = tiles_ % workers_;
  const std::size_t fat_span = (q + 1) * rem;  // tiles owned by fat workers
  if (t < fat_span) return t / (q + 1);
  if (q == 0) return workers_ - 1;  // more workers than tiles
  return rem + (t - fat_span) / q;
}

TileSchedulerStats TileScheduler::run(ThreadPool* pool, const Body& body,
                                      obs::TraceRecorder* trace) const {
  TileSchedulerStats stats;
  if (tiles_ == 0) return stats;

  const SchedulerTrace tr(trace);

  // Degraded/serial path: one worker, no pool, or a nested call from inside
  // the pool itself. Unlike parallel_for, whose caller waits only for the
  // helpers that claimed a piece, a schedule joins every one of its worker
  // loops (each owns a worker slot's state until the final merge), so
  // loops queued behind a saturated pool would never start and the join
  // would deadlock.
  if (workers_ == 1 || pool == nullptr || pool->inside_pool()) {
    for (std::size_t t = 0; t < tiles_; ++t) {
      const TileRange range = tile(t);
      obs::TraceSpan span(tr.rec, tr.tile_id);
      span.set_args(range.index, range.lo, range.hi - range.lo);
      body(0, range);
    }
    if (tr.rec != nullptr) tr.rec->instant(tr.done_id, 0, 0, tiles_);
    stats.tiles_executed = tiles_;
    return stats;
  }

  struct WorkerDeque {
    std::mutex mu;
    std::deque<std::size_t> q;  // tile ordinals, front = next in home order
  };
  std::vector<WorkerDeque> deques(workers_);
  for (std::size_t t = 0; t < tiles_; ++t) {
    deques[home_worker(t)].q.push_back(t);
  }

  // Tiles not yet popped for execution. Stolen tiles land back in the
  // thief's deque (still unclaimed, re-stealable); the transient window
  // where a steal holds tiles in a local buffer is why idle workers spin
  // on unclaimed > 0 instead of exiting on an all-empty scan.
  std::atomic<std::size_t> unclaimed{tiles_};
  std::atomic<bool> abort{false};
  std::mutex merge_mu;
  std::exception_ptr first_error;

  auto worker_loop = [&](std::size_t me) {
    TileSchedulerStats local;
    std::vector<std::size_t> loot;
    if (tr.rec != nullptr) {
      tr.rec->set_thread_name("worker-" + std::to_string(me));
    }
    while (!abort.load(std::memory_order_relaxed)) {
      std::size_t t = 0;
      bool got = false;
      {
        std::lock_guard lock(deques[me].mu);
        if (!deques[me].q.empty()) {
          t = deques[me].q.front();
          deques[me].q.pop_front();
          got = true;
        }
      }
      if (got) {
        unclaimed.fetch_sub(1, std::memory_order_relaxed);
        try {
          const TileRange range = tile(t);
          obs::TraceSpan span(tr.rec, tr.tile_id);
          span.set_args(range.index, range.lo, range.hi - range.lo);
          body(me, range);
        } catch (...) {
          {
            std::lock_guard lock(merge_mu);
            if (!first_error) first_error = std::current_exception();
          }
          abort.store(true, std::memory_order_relaxed);
          break;
        }
        ++local.tiles_executed;
        continue;
      }
      // Own deque empty: steal half of some victim's remaining tiles from
      // the back (the blocks furthest from the victim's working position).
      loot.clear();
      std::size_t victim_index = 0;
      for (std::size_t off = 1; off < workers_ && loot.empty(); ++off) {
        victim_index = (me + off) % workers_;
        WorkerDeque& victim = deques[victim_index];
        std::lock_guard lock(victim.mu);
        const std::size_t take = (victim.q.size() + 1) / 2;
        for (std::size_t k = 0; k < take; ++k) {
          loot.push_back(victim.q.back());
          victim.q.pop_back();
        }
      }
      if (!loot.empty()) {
        ++local.steals;
        local.tiles_stolen += loot.size();
        if (tr.rec != nullptr) {
          tr.rec->instant(tr.steal_id, 0, me, victim_index, loot.size());
        }
        std::lock_guard lock(deques[me].mu);
        // Back-of-victim order reversed so the lowest tile ordinal is at
        // the front — the thief walks its loot in home order too.
        for (auto it = loot.rbegin(); it != loot.rend(); ++it) {
          deques[me].q.push_back(*it);
        }
        continue;
      }
      // Nothing anywhere. If every tile has been claimed, the in-flight
      // ones are being executed by their claimants — done here. Otherwise a
      // steal is mid-transfer; yield and rescan.
      if (unclaimed.load(std::memory_order_acquire) == 0) break;
      std::this_thread::yield();
    }
    if (tr.rec != nullptr) {
      tr.rec->instant(tr.done_id, 0, me, local.tiles_executed);
    }
    std::lock_guard lock(merge_mu);
    stats.tiles_executed += local.tiles_executed;
    stats.steals += local.steals;
    stats.tiles_stolen += local.tiles_stolen;
  };

  std::vector<std::future<void>> futures;
  futures.reserve(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    futures.push_back(pool->submit([&, w] { worker_loop(w); }));
  }
  for (auto& f : futures) f.get();  // worker loops themselves don't throw
  if (first_error) std::rethrow_exception(first_error);
  return stats;
}

}  // namespace bulkgcd::bulk
