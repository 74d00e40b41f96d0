// Work-stealing tile scheduler for the sharded all-pairs sweep.
//
// The Section-VI block triangle is a flat sequence of blocks; saturating the
// machine means every core runs a sweeper over its own shard of that
// sequence, not one thread dispatching batches while the rest idle. The
// scheduler partitions the block range into contiguous *tiles* and hands
// each worker a deque of them:
//
//   * Initial assignment is contiguous and balanced — worker w owns one
//     consecutive run of tiles. Blocks are enumerated row-major over the
//     group triangle, so consecutive blocks share their i-group and a
//     worker's tiles therefore revisit the same CorpusPanels panels
//     (cache-conscious by construction; see docs/GPU_PORTING.md for the
//     tile → CUDA thread-block mapping).
//   * A worker pops tiles from the *front* of its own deque, preserving the
//     locality order of its run.
//   * A worker whose deque is empty steals *half* of a victim's remaining
//     tiles from the *back* of the victim's deque — the blocks furthest
//     from where the victim is currently working — classic steal-half, so
//     a skewed tile (one block full of slow worst-case pairs) ends up
//     shared instead of serializing the sweep.
//
// Determinism: the scheduler only decides WHERE a tile runs. Every tile is
// executed exactly once, all merged quantities downstream (FactorHit sets,
// SimtStats, scan_*/simt_* counters, LocalHistogram bins) are commutative
// integer sums followed by a canonical sort, so results are bit-identical
// across worker counts, tile shapes, and steal interleavings — asserted by
// tests/tile_scheduler_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "core/thread_pool.hpp"

namespace bulkgcd::obs {
class TraceRecorder;
}

namespace bulkgcd::bulk {

/// Thread placement shared by the sharded sweeps and the scan driver:
/// pool_threads 1 = inline on the caller (pool stays null, a schedule runs
/// serial), 0 = one worker per global-pool thread, N = a private pool of N
/// workers.
struct SweepExecutor {
  std::optional<ThreadPool> local_pool;
  ThreadPool* pool = nullptr;
  std::size_t workers = 1;

  explicit SweepExecutor(std::size_t pool_threads);
};

/// One tile: the contiguous item (block) range [lo, hi).
struct TileRange {
  std::size_t index = 0;  ///< tile ordinal in [0, tile_count())
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// Execution accounting for one TileScheduler::run (steal traffic is the
/// load-balance signal the tests assert on).
struct TileSchedulerStats {
  std::uint64_t tiles_executed = 0;
  std::uint64_t steals = 0;        ///< successful steal operations
  std::uint64_t tiles_stolen = 0;  ///< tiles moved by those steals
};

class TileScheduler {
 public:
  /// Partition [0, total_items) into ⌈total/tile_items⌉ tiles driven by
  /// `workers` workers. tile_items == 0 picks auto_tile_items(); workers is
  /// clamped to at least 1 (a 1-worker schedule runs inline on the caller).
  TileScheduler(std::size_t total_items, std::size_t tile_items,
                std::size_t workers);

  /// Default tile size: ~4 tiles per worker so stealing has granularity to
  /// work with, clamped to [1, total].
  static std::size_t auto_tile_items(std::size_t total_items,
                                     std::size_t workers) noexcept;

  std::size_t total_items() const noexcept { return total_; }
  std::size_t tile_items() const noexcept { return tile_items_; }
  std::size_t tile_count() const noexcept { return tiles_; }
  std::size_t worker_count() const noexcept { return workers_; }

  /// Tile t's block range. Tiles partition [0, total) exactly: tile 0
  /// starts at 0, tile t+1 starts where tile t ends, the last tile ends at
  /// total (and may be short).
  TileRange tile(std::size_t t) const noexcept;

  /// Worker that tile t is initially assigned to (before any stealing):
  /// contiguous balanced runs, earlier workers take the remainder.
  std::size_t home_worker(std::size_t t) const noexcept;

  /// body(worker, tile): worker ∈ [0, worker_count()) identifies the
  /// executing worker so callers can keep per-worker state (sweepers,
  /// engines, local histograms) without locks — a worker slot is only ever
  /// touched by its own worker, and run() joining all workers sequences the
  /// final merge after every body call.
  using Body = std::function<void(std::size_t worker, const TileRange& tile)>;

  /// Execute body over every tile exactly once; blocks until all tiles are
  /// done. Runs inline on the caller when worker_count() == 1, pool is
  /// null, or the caller is already one of pool's workers: run() joins
  /// every worker loop it submits (each owns its worker slot until the
  /// merge), and loops queued on a saturated pool could never start.
  /// (ThreadPool::parallel_for can help instead, as its caller waits only
  /// for helpers that claimed a piece.) Otherwise submits one
  /// worker loop per worker to `pool` and waits. An exception thrown by
  /// body aborts the schedule (remaining tiles are not started) and is
  /// rethrown here, first one wins.
  ///
  /// trace (optional, obs/trace.hpp): each tile execution becomes a
  /// "tile" span on its worker's track (args tile/lo/items), each
  /// successful steal a "steal" instant (args thief/victim/tiles), each
  /// worker-loop exit a "worker_done" instant (args worker/executed) — the
  /// idle-vs-steal timeline the aggregate steal counters can't show.
  /// Scheduling decisions never depend on it; null is the zero-cost path.
  TileSchedulerStats run(ThreadPool* pool, const Body& body,
                         obs::TraceRecorder* trace = nullptr) const;

 private:
  std::size_t total_ = 0;
  std::size_t tile_items_ = 1;
  std::size_t tiles_ = 0;
  std::size_t workers_ = 1;
};

}  // namespace bulkgcd::bulk
