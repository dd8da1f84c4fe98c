// Persistent thread pool shared by every parallel entry point (app lanes,
// DSE point lanes, per-variant trace builds): one mutex, one condition
// variable, one FIFO of tasks and N workers spawned once (DESIGN.md §7).
// A ParallelFor caller waits for its items, never for a helper to start,
// so a ParallelFor nested in a pool task cannot deadlock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace swiftsim {

class ThreadPool {
 public:
  /// `num_threads == 0` means hardware concurrency.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const;

  /// Grows the pool to at least `n` workers, at most 256 (never shrinks).
  void EnsureWorkers(unsigned n);

  /// Runs fn(i) for every i in [0, n) on at most `max_workers` threads
  /// (0 = pool size + caller). The caller claims items too, so 1 runs
  /// them inline and in order. Blocks until every item completed, then
  /// rethrows the first exception an item threw (an SS_CHECK failure in a
  /// worker surfaces as a normal SimError).
  void ParallelFor(std::size_t n, unsigned max_workers,
                   const std::function<void(std::size_t)>& fn);

  /// The process-wide shared pool (created on first use, sized to the
  /// hardware; grow with EnsureWorkers).
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;  // guards tasks_, shutdown_ and threads_
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace swiftsim
