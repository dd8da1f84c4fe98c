#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>
#include <memory>

namespace swiftsim {

namespace {

constexpr unsigned kMaxWorkers = 256;  // far above any real machine

/// One ParallelFor call, shared by its caller and helpers. A helper that
/// starts after the call returned finds every item claimed and returns
/// without touching `fn`.
struct Batch {
  Batch(std::size_t n, const std::function<void(std::size_t)>& fn)
      : n(n), fn(fn), left(static_cast<std::ptrdiff_t>(n)) {}
  const std::size_t n;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};
  std::latch left;  // items not yet completed
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // the first one thrown; set once, by `failed`
};

/// Claims and runs items until none is left to claim.
void RunItems(Batch& b) {
  for (;;) {
    const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= b.n) return;
    try {
      b.fn(i);
    } catch (...) {
      if (!b.failed.exchange(true)) b.error = std::current_exception();
    }
    b.left.count_down();
  }
}

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  EnsureWorkers(num_threads != 0
                    ? num_threads
                    : std::max(1u, std::thread::hardware_concurrency()));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

unsigned ThreadPool::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<unsigned>(threads_.size());
}

void ThreadPool::EnsureWorkers(unsigned n) {
  std::lock_guard<std::mutex> lk(mu_);
  while (threads_.size() < std::min(n, kMaxWorkers)) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] { return shutdown_ || !tasks_.empty(); });
    if (tasks_.empty()) return;  // shut down and drained
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lk.unlock();
    task();  // RunItems: never throws
    lk.lock();
  }
}

void ThreadPool::ParallelFor(std::size_t n, unsigned max_workers,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (max_workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const auto batch = std::make_shared<Batch>(n, fn);
  {
    std::lock_guard<std::mutex> lk(mu_);
    const std::size_t workers = std::min<std::size_t>(
        max_workers == 0 ? threads_.size() + 1 : max_workers, n);
    for (std::size_t t = 1; t < workers; ++t) {
      tasks_.emplace_back([batch] { RunItems(*batch); });
    }
  }
  cv_.notify_all();
  RunItems(*batch);
  batch->left.wait();
  if (batch->error) std::rethrow_exception(batch->error);
}

ThreadPool& ThreadPool::Shared() {
  // Leaked intentionally: parallel runs may still be draining during
  // static destruction in odd embeddings; a leak is safer than a join.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace swiftsim
