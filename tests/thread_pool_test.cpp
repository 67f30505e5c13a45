#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace drcell::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(workers);
    constexpr std::size_t n = 100;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, ResultsAreIndexOrderedAndThreadCountIndependent) {
  constexpr std::size_t n = 64;
  std::vector<double> serial(n);
  for (std::size_t i = 0; i < n; ++i)
    serial[i] = static_cast<double>(i * i) + 0.5;

  for (std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    ThreadPool pool(workers);
    std::vector<double> out(n, -1.0);
    pool.parallel_for(
        n, [&](std::size_t i) { out[i] = static_cast<double>(i * i) + 0.5; });
    EXPECT_EQ(out, serial);
  }
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(16,
                                 [](std::size_t i) {
                                   if (i == 5)
                                     throw CheckError("boom");
                                 }),
               CheckError);
  // The pool is still usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, AggregatesExceptionsWithoutStarvingOtherTasks) {
  // The aggregation contract: every index runs even when several throw, and
  // the first captured exception is rethrown. The indices that ran are
  // counted here, inside the batch.
  for (std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
    ThreadPool pool(workers);
    constexpr std::size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    std::atomic<int> thrown{0};
    EXPECT_THROW(pool.parallel_for(n,
                                   [&](std::size_t i) {
                                     hits[i].fetch_add(1);
                                     if (i % 16 == 3) {  // 4 throwers
                                       thrown.fetch_add(1);
                                       throw CheckError("task " +
                                                        std::to_string(i));
                                     }
                                   }),
                 CheckError);
    EXPECT_EQ(thrown.load(), 4);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " was starved";
    // The pool is clean afterwards: the next batch runs in full, no throw.
    std::atomic<int> ran{0};
    EXPECT_NO_THROW(
        pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); }));
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(ThreadPool, NestedBatchAggregatesExceptions) {
  // A nested batch runs inline on whichever lane started it, under the same
  // contract: all of its indices run and its first exception reaches the
  // outer task. The outer batch then rethrows one exception after every
  // outer index ran.
  for (std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
    ThreadPool pool(workers);
    constexpr std::size_t outer = 16, inner = 8;
    std::vector<std::atomic<int>> hits(outer * inner);
    std::atomic<int> inner_throws_seen{0};
    EXPECT_THROW(
        pool.parallel_for(outer,
                          [&](std::size_t o) {
                            try {
                              pool.parallel_for(inner, [&](std::size_t i) {
                                hits[o * inner + i].fetch_add(1);
                                if (i == 2 || i == 5)
                                  throw CheckError("inner " +
                                                   std::to_string(i));
                              });
                            } catch (const CheckError& e) {
                              // Inline batches run in index order, so the
                              // lowest throwing index is the first.
                              EXPECT_NE(std::string(e.what()).find("inner 2"),
                                        std::string::npos);
                              inner_throws_seen.fetch_add(1);
                              if (o % 4 == 1) throw;
                            }
                          }),
        CheckError);
    EXPECT_EQ(inner_throws_seen.load(), static_cast<int>(outer));
    for (std::size_t k = 0; k < hits.size(); ++k)
      EXPECT_EQ(hits[k].load(), 1) << "nested task " << k << " was starved";
  }
}

TEST(ThreadPool, SerialBatchRethrowsLowestIndexException) {
  // With 0 workers claim order IS index order, so "first captured" is
  // deterministic and observable.
  ThreadPool pool(0);
  try {
    pool.parallel_for(32, [](std::size_t i) {
      if (i == 7 || i == 21) throw CheckError("task " + std::to_string(i));
    });
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("task 7"), std::string::npos);
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Nested submissions can land on a worker lane (inline via the worker
  // flag) or on the caller's own lane (inline via the re-entry flag; a
  // second try_lock on the non-recursive submission mutex would be UB).
  // With n well above the lane count both paths are exercised.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(16, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> count{0};
  ThreadPool::global().parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ChunkedDispatchCoversLargeRangesExactlyOnce) {
  // n well above lanes*chunks so several fetch_add ranges per lane are
  // claimed; every index must still run exactly once.
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(workers);
    constexpr std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, FunctionRefCallsThroughWithoutCopyingTheTarget) {
  int calls = 0;
  auto lambda = [&calls](std::size_t i) { calls += static_cast<int>(i) + 1; };
  FunctionRef<void(std::size_t)> ref = lambda;
  ref(0);
  ref(2);
  EXPECT_EQ(calls, 4);  // mutations land in the original: no copy was made
}

TEST(ThreadPool, WorkersFromLanesSpecParsesTotalLanes) {
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("1", 7), 0u);   // serial
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("4", 7), 3u);   // 3 workers
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec(nullptr, 7), 7u);
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("", 7), 7u);
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("0", 7), 7u);   // invalid
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("abc", 7), 7u);
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("4x", 7), 7u);
  // Signed, out-of-range and above-cap specs fall back instead of wrapping
  // into a huge worker count. Parsed only: no pool is built from them.
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("-1", 7), 7u);
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("+4", 7), 7u);
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("-0", 7), 7u);
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("18446744073709551616", 7),
            7u);
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("18446744073709551615", 7),
            7u);
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("99999", 7), 7u);
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("1025", 7), 7u);  // cap + 1
  EXPECT_EQ(ThreadPool::workers_from_lanes_spec("1024", 7), 1023u);  // cap
}

TEST(ThreadPool, SetGlobalWorkerCountForTestingResizesAndRestores) {
  const std::size_t before = ThreadPool::global().worker_count();
  ThreadPool::set_global_worker_count_for_testing(2);
  EXPECT_EQ(ThreadPool::global().worker_count(), 2u);
  std::atomic<int> count{0};
  ThreadPool::global().parallel_for(32, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
  ThreadPool::set_global_worker_count_for_testing(before);
  EXPECT_EQ(ThreadPool::global().worker_count(), before);
}

}  // namespace
}  // namespace drcell::util
