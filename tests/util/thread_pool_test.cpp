#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace billcap::util {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTask) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i)
      (void)pool.submit([&counter] { ++counter; });
  }  // destructor must finish all 50
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotWedgeThePool) {
  // A worker that lets an exception escape must stay alive: the next
  // submitted task still runs on the same (single) worker thread.
  ThreadPool pool(1);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  auto good = pool.submit([] { return 7; });
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPoolTest, SubmitNoexceptReturnsTypedResult) {
  ThreadPool pool(2);
  auto ok = pool.submit_noexcept([] { return 41 + 1; });
  const TaskResult<int> good = ok.get();
  EXPECT_TRUE(good.ok);
  EXPECT_EQ(good.value, 42);
  EXPECT_TRUE(good.error.empty());

  auto fail = pool.submit_noexcept(
      []() -> int { throw std::runtime_error("chunk fell over"); });
  const TaskResult<int> bad = fail.get();
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, "chunk fell over");
}

TEST(ThreadPoolTest, SubmitNoexceptVoidCapturesFailure) {
  ThreadPool pool(1);
  auto fut = pool.submit_noexcept([] { throw 17; });  // non-std exception
  const TaskResult<void> res = fut.get();
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

}  // namespace
}  // namespace billcap::util
