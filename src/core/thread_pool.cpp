#include "core/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace bulkgcd {

namespace {
/// Pool whose worker_loop is running on this thread (nullptr outside pools).
thread_local const ThreadPool* tls_worker_pool = nullptr;

/// One parallel_for call, shared by its caller and its helper tasks. A
/// helper may start after the caller has returned, so it holds the state;
/// it touches `body` only after claiming a piece, and the caller waits for
/// every helper that registered before claiming.
struct ForState {
  ForState(std::size_t first, std::size_t last, std::size_t piece,
           const std::function<void(std::size_t, std::size_t)>& fn)
      : next(first), end(last), grain(piece), body(&fn) {}

  std::atomic<std::size_t> next;  // the next piece's first index
  const std::size_t end;
  const std::size_t grain;
  const std::function<void(std::size_t, std::size_t)>* body;

  std::mutex mu;
  std::size_t active = 0;     // guarded by mu: helpers that may run a piece
  std::exception_ptr error;   // guarded by mu: the first exception
  std::condition_variable idle;  // active fell to 0

  /// Claims and runs pieces until the range is used up or a piece threw.
  void drain() {
    for (;;) {
      const std::size_t lo = next.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) return;
      try {
        (*body)(lo, std::min(lo + grain, end));
      } catch (...) {
        next.store(end, std::memory_order_relaxed);  // no further claims
        const std::lock_guard lock(mu);
        if (!error) error = std::current_exception();
      }
    }
  }

  void help() {
    {
      const std::lock_guard lock(mu);
      ++active;
    }
    drain();
    const std::lock_guard lock(mu);
    if (--active == 0) idle.notify_all();
  }
};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::inside_pool() const noexcept {
  return tls_worker_pool == this;
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t, std::size_t)>& body,
                              std::size_t chunks) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (chunks == 0) chunks = kPiecesPerWorker * size();
  const std::size_t grain = (n + chunks - 1) / chunks;
  const std::size_t pieces = (n + grain - 1) / grain;
  // A worker caller is one of the size() threads itself.
  const std::size_t helpers =
      std::min(pieces - 1, inside_pool() ? size() - 1 : size());
  if (helpers == 0) {
    body(begin, end);
    return;
  }
  const auto state = std::make_shared<ForState>(begin, end, grain, body);
  for (std::size_t h = 0; h < helpers; ++h) {
    enqueue([state] { state->help(); });
  }
  state->drain();
  std::unique_lock lock(state->mu);
  state->idle.wait(lock, [&] { return state->active == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace bulkgcd
