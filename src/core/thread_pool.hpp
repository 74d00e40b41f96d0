// Minimal fixed-size thread pool with a blocking work queue and a
// self-balancing parallel_for. All heavy fan-out in this repo (all-pairs GCD
// tiles, corpus generation, batch-GCD tree levels and the transforms of
// their largest products) goes through this pool so thread creation cost is
// paid once per process.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bulkgcd {

class ThreadPool {
 public:
  /// parallel_for cuts a range into about this many pieces per worker, so
  /// a worker that stalls (a shared vCPU, a node that runs long) holds up
  /// about a sixteenth of its share instead of the whole call. Against one
  /// contiguous piece per worker, perfbench batch_tree (seed 1, 4-vCPU
  /// AVX-512 Xeon) rose from 14.50M to 16.27M pairs/s, higher in 8 of 8
  /// interleaved pairs (EXPERIMENTS.md "Balanced pool and per-prime
  /// fan-out").
  static constexpr std::size_t kPiecesPerWorker = 16;

  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion.
  template <typename Fn>
  std::future<void> submit(Fn&& fn) {
    auto task = std::make_shared<std::packaged_task<void()>>(std::forward<Fn>(fn));
    std::future<void> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Runs `body(lo, hi)` over pieces that tile [begin, end), at most
  /// `chunks` of them (0: kPiecesPerWorker · size()), each
  /// ⌈(end − begin) / chunks⌉ indices long but the last, and blocks until
  /// every piece is done. The caller and up to size() pool tasks claim
  /// pieces in index order from one shared counter, so a slow piece delays
  /// only itself. With no one to share with (a single piece, or a call
  /// from the only worker) body runs once over the whole range. An
  /// exception from a piece stops further claims and is rethrown here once
  /// the pieces already claimed are done (the first one wins).
  ///
  /// Nestable: a call from inside one of this pool's workers claims pieces
  /// on that worker, and idle workers join in. The caller waits only for
  /// the helpers that claimed a piece, which are running it; a helper that
  /// starts after the range is used up returns without calling `body`. So
  /// a call can always finish on its caller alone: it never deadlocks on a
  /// saturated pool, and a waiting caller runs no unrelated queued task.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t chunks = 0);

  /// True when the calling thread is one of this pool's workers.
  bool inside_pool() const noexcept;

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::queue<std::function<void()>> queue_;  // guarded by mutex_
  bool stop_ = false;                        // guarded by mutex_
  std::condition_variable cv_;
};

/// Process-wide default pool (lazily constructed, sized to hardware).
ThreadPool& global_pool();

}  // namespace bulkgcd
