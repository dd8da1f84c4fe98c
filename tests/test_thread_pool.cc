// Unit tests for the shared persistent thread pool: completion, ordering,
// exception propagation, nested calls and reuse across submissions.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

#include "common/status.h"

namespace swiftsim {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), 0,
                   [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForSingleWorkerRunsInlineInOrder) {
  ThreadPool pool(2);
  std::vector<std::size_t> order;
  pool.ParallelFor(64, 1, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ParallelForZeroItemsIsANoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, 0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  // An SS_CHECK failure inside an item surfaces as a SimError on the
  // caller, not std::terminate, and the pool keeps executing work.
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100, 0,
                                [&](std::size_t i) {
                                  SS_CHECK(i != 37, "index 37 rejected");
                                }),
               SimError);
  std::atomic<int> done{0};
  pool.ParallelFor(8, 0, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, WorkerExceptionRethrownOnJoiningThread) {
  // Both items wait for each other, so one runs on the caller and the
  // other on a worker. Only the worker's item throws; its SimError must
  // reach the caller, and the pool must keep executing work afterwards.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::latch both(2);
  EXPECT_THROW(pool.ParallelFor(2, 0,
                                [&](std::size_t) {
                                  both.arrive_and_wait();
                                  SS_CHECK(std::this_thread::get_id() ==
                                               caller,
                                           "boom in worker");
                                }),
               SimError);
  std::atomic<int> done{0};
  pool.ParallelFor(8, 0, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, NestedParallelForFinishesWhileEveryWorkerIsBusy) {
  // Every outer item waits until all of them have started, so each worker
  // and the caller hold one before any inner call. The inner helpers then
  // cannot start, and each inner ParallelFor must finish on its own caller.
  ThreadPool pool(2);
  const std::size_t outer = pool.size() + 1;
  std::latch started(static_cast<std::ptrdiff_t>(outer));
  std::vector<std::atomic<int>> hits(outer * 4);
  pool.ParallelFor(outer, 0, [&](std::size_t o) {
    started.arrive_and_wait();
    pool.ParallelFor(4, 0,
                     [&](std::size_t i) { hits[o * 4 + i].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManySubmissions) {
  ThreadPool pool(2);
  std::uint64_t total = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint64_t> out(16, 0);
    pool.ParallelFor(out.size(), 0, [&](std::size_t i) { out[i] = i; });
    total += std::accumulate(out.begin(), out.end(), std::uint64_t{0});
  }
  EXPECT_EQ(total, 50u * (15u * 16u / 2));
}

TEST(ThreadPool, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  pool.EnsureWorkers(4);
  EXPECT_EQ(pool.size(), 4u);
  pool.EnsureWorkers(2);
  EXPECT_EQ(pool.size(), 4u);
}

TEST(ThreadPool, SharedPoolIsAProcessSingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

}  // namespace
}  // namespace swiftsim
