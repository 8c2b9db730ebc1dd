#include "moldsched/engine/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace moldsched::engine {
namespace {

TEST(CancelTokenTest, DefaultNeverCancels) {
  const CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.seconds_left(), std::numeric_limits<double>::infinity());
}

TEST(CancelTokenTest, RequestCancelIsSharedAcrossCopies) {
  const CancelToken token;
  const CancelToken copy = token;
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
  EXPECT_EQ(copy.seconds_left(), 0.0);
}

TEST(CancelTokenTest, ExpiredDeadlineCancels) {
  const auto token = CancelToken::deadline_in(-1.0);
  EXPECT_TRUE(token.cancelled());
  EXPECT_LE(token.seconds_left(), 0.0);
}

TEST(CancelTokenTest, FutureDeadlineDoesNotCancelYet) {
  const auto token = CancelToken::deadline_in(3600.0);
  EXPECT_FALSE(token.cancelled());
  EXPECT_GT(token.seconds_left(), 3000.0);
}

TEST(CancelTokenTest, ParentCancellationPropagates) {
  const CancelToken parent;
  const auto child = CancelToken::deadline_in(3600.0, parent);
  EXPECT_FALSE(child.cancelled());
  parent.request_cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(CancelToken::deadline_in(3600.0).cancelled());
}

TEST(ExecutorTest, ExplicitThreadCountIsHonoured) {
  Executor pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ExecutorTest, SubmitAndWaitIdleRunsEverything) {
  Executor pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_GE(pool.tasks_executed(), 100u);
}

TEST(ExecutorTest, TasksSeeWorkerThreadFlag) {
  Executor pool(2);
  std::atomic<bool> on_worker{false};
  pool.submit([&] { on_worker.store(pool.on_worker_thread()); });
  pool.wait_idle();
  EXPECT_TRUE(on_worker.load());
}

TEST(ExecutorTest, ParallelForCoversEveryIndexExactlyOnce) {
  Executor pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ExecutorTest, ParallelForExplicitChunking) {
  Executor pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); }, 4,
                    /*chunk=*/7);
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 100);
}

TEST(ExecutorTest, ParallelForSerialWhenOneWorker) {
  Executor pool(4);
  std::vector<int> order;
  pool.parallel_for(10, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  }, 1);
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ExecutorTest, ParallelForRethrowsFirstExceptionInIterationOrder) {
  Executor pool(4);
  try {
    pool.parallel_for(64, [](std::size_t i) {
      if (i == 7 || i == 23 || i == 55)
        throw std::runtime_error("boom at " + std::to_string(i));
    }, 4, /*chunk=*/1);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 7");
  }
}

TEST(ExecutorTest, NestedParallelForFromWorkerDoesNotDeadlock) {
  Executor pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { counter.fetch_add(1); }, 2);
  }, 2);
  EXPECT_EQ(counter.load(), 32);
}

TEST(ExecutorTest, GlobalPoolIsASingleton) {
  EXPECT_EQ(&Executor::global(), &Executor::global());
  EXPECT_GE(Executor::global().thread_count(), 1u);
}

TEST(ExecutorTest, EmptyFunctionThrows) {
  Executor pool(2);
  EXPECT_THROW(pool.parallel_for(3, nullptr), std::invalid_argument);
  EXPECT_THROW(pool.submit(nullptr), std::invalid_argument);
}

TEST(ExecutorTest, ZeroCountIsANoOp) {
  Executor pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ExecutorTest, LockstepPingPongNeverLosesAWakeup) {
  // One worker and one client in strict lockstep: the client submits the
  // next task only after the previous one has finished, so the worker
  // goes back to sleep between every pair. A wake-up lost between the
  // worker's predicate test and its block would stall the run for good,
  // because no later submit comes to repair it.
  constexpr int kRounds = 100000;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  int stalled_round = -1;
  Executor pool(1);
  for (int i = 0; i < kRounds; ++i) {
    pool.submit([&] {
      {
        const std::lock_guard<std::mutex> lock(mu);
        ++done;
      }
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return done == i + 1; })) {
      stalled_round = i;
      break;
    }
  }
  EXPECT_EQ(stalled_round, -1) << "worker slept through a queued task";
}

}  // namespace
}  // namespace moldsched::engine
