// Persistent work-stealing thread pool shared by every parallel entry
// point in the framework (app-level batches, DSE point lanes and trace
// builds, including those of the daemon's lanes). Workers are spawned
// once and reused across submissions — no parallel path spawns a
// std::thread per batch or per kernel.
//
// Exceptions thrown inside a worker are captured and rethrown on the
// thread that joins the batch (TaskGroup::Wait / ParallelFor), so an
// SS_CHECK failure in a worker surfaces as a normal SimError instead of
// std::terminate.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
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

  unsigned size() const {
    return num_workers_.load(std::memory_order_acquire);
  }

  /// Grows the pool to at least `n` workers (never shrinks). Needed before
  /// submitting `n` tasks that block on a common barrier: each such task
  /// occupies one worker until the whole team finishes.
  void EnsureWorkers(unsigned n);

  /// Fire-and-forget submission; prefer TaskGroup/ParallelFor, which also
  /// propagate exceptions.
  void Submit(std::function<void()> fn);

  /// A batch of tasks that can be awaited together. The first exception
  /// thrown by any task is captured and rethrown from Wait().
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    ~TaskGroup();
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Submits one task to the pool.
    void Run(std::function<void()> fn);

    /// Executes `fn` on the calling thread with the same exception capture
    /// (used so the caller can work alongside the pool).
    void RunInline(const std::function<void()>& fn);

    /// Blocks until every task finished; rethrows the first captured
    /// exception.
    void Wait();

   private:
    void Capture();

    ThreadPool& pool_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::size_t outstanding_ = 0;
    std::exception_ptr error_;
  };

  /// Runs fn(i) for every i in [0, n) using at most `max_workers`
  /// concurrent threads (0 = pool size + caller). The calling thread
  /// participates, so max_workers == 1 executes entirely inline. Blocks
  /// until done; rethrows the first exception.
  void ParallelFor(std::size_t n, unsigned max_workers,
                   const std::function<void(std::size_t)>& fn);

  /// The process-wide shared pool (created on first use, sized to the
  /// hardware; grow with EnsureWorkers).
  static ThreadPool& Shared();

 private:
  // Hard cap on growth — far above any real machine, keeps the queue
  // vector's reserved storage stable so workers can index it lock-free.
  static constexpr unsigned kMaxWorkers = 256;

  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> q;
  };

  void SpawnLocked(unsigned count);
  void WorkerLoop(unsigned me);
  bool TryRunOne(unsigned home);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<unsigned> num_workers_{0};
  std::atomic<unsigned> rr_{0};
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::mutex grow_mu_;
};

}  // namespace swiftsim
