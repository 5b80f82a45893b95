/**
 * @file
 * Tests for the shared thread pool: construction/teardown, exact-once
 * ParallelFor coverage with the documented block structure, nested
 * submission safety, a tiny-task stress run, and exception propagation.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace sinan {
namespace {

/** Pins the global pool to @p n threads for one test. */
class ScopedThreads {
  public:
    explicit ScopedThreads(int n) : saved_(NumThreads())
    {
        SetNumThreads(n);
    }
    ~ScopedThreads() { SetNumThreads(saved_); }

  private:
    int saved_;
};

TEST(ThreadPoolTest, ConstructsAndJoinsForVariousSizes)
{
    for (int n : {1, 2, 3, 8}) {
        ThreadPool pool(n);
        EXPECT_EQ(pool.NumThreads(), n);
    }
    // Clamped to at least the calling thread.
    ThreadPool tiny(0);
    EXPECT_EQ(tiny.NumThreads(), 1);
}

TEST(ThreadPoolTest, SubmittedTasksAllRun)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    std::mutex mu;
    std::condition_variable cv;
    constexpr int kTasks = 64;
    for (int i = 0; i < kTasks; ++i) {
        // Count under the lock: counted outside it, the waiter could
        // see the last count, return and destroy cv and mu before the
        // last task notified through them.
        pool.Submit([&] {
            std::lock_guard<std::mutex> lock(mu);
            if (ran.fetch_add(1) + 1 == kTasks)
                cv.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ran.load() == kTasks; });
    EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPoolTest, TeardownWithQueuedTasksDoesNotHang)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.Submit([&] { ran.fetch_add(1); });
    } // destructor joins; queued tasks either ran or were discarded
    SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 4, 8}) {
        ScopedThreads scoped(threads);
        for (int64_t grain : {1, 3, 7, 100, 1000}) {
            constexpr int64_t kBegin = 5, kEnd = 777;
            std::vector<std::atomic<int>> hits(kEnd - kBegin);
            for (auto& h : hits)
                h.store(0);
            ParallelFor(kBegin, kEnd, grain,
                        [&](int64_t lo, int64_t hi) {
                ASSERT_LT(lo, hi);
                // Documented block structure: lo sits on a grain
                // boundary and the block is at most `grain` wide.
                EXPECT_EQ((lo - kBegin) % grain, 0);
                EXPECT_LE(hi - lo, grain);
                for (int64_t i = lo; i < hi; ++i)
                    hits[i - kBegin].fetch_add(1);
            });
            for (const auto& h : hits)
                ASSERT_EQ(h.load(), 1)
                    << "threads=" << threads << " grain=" << grain;
        }
    }
}

TEST(ThreadPoolTest, ParallelForEmptyAndDegenerateRanges)
{
    std::atomic<int> calls{0};
    ParallelFor(0, 0, 4, [&](int64_t, int64_t) { calls.fetch_add(1); });
    ParallelFor(10, 10, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
    ParallelFor(10, 5, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, NestedParallelForRunsSeriallyWithoutDeadlock)
{
    ScopedThreads scoped(4);
    constexpr int kOuter = 16, kInner = 32;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    for (auto& h : hits)
        h.store(0);
    ParallelFor(0, kOuter, 1, [&](int64_t olo, int64_t ohi) {
        for (int64_t o = olo; o < ohi; ++o) {
            ParallelFor(0, kInner, 4, [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i)
                    hits[o * kInner + i].fetch_add(1);
            });
        }
    });
    for (const auto& h : hits)
        ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SubmitFromWorkerDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    std::mutex mu;
    std::condition_variable cv;
    pool.Submit([&] {
        // Nested submission from a worker thread must be legal.
        pool.Submit([&] {
            done.fetch_add(1);
            std::lock_guard<std::mutex> lock(mu);
            cv.notify_all();
        });
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done.load() == 1; });
    EXPECT_EQ(done.load(), 1);
}

TEST(ThreadPoolTest, TenThousandTinyTasksStress)
{
    ScopedThreads scoped(8);
    constexpr int64_t kTasks = 10000;
    std::atomic<int64_t> sum{0};
    // grain=1 → every index is its own block/task.
    ParallelFor(0, kTasks, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller)
{
    for (int threads : {1, 4}) {
        ScopedThreads scoped(threads);
        EXPECT_THROW(
            ParallelFor(0, 100, 1,
                        [&](int64_t lo, int64_t) {
                if (lo == 37)
                    throw std::runtime_error("block 37 failed");
            }),
            std::runtime_error);
    }
}

TEST(ThreadPoolTest, ExceptionCancelsRemainingBlocksAndPoolSurvives)
{
    ScopedThreads scoped(4);
    std::atomic<int> ran{0};
    try {
        ParallelFor(0, 100000, 1, [&](int64_t, int64_t) {
            ran.fetch_add(1);
            throw std::runtime_error("boom");
        });
        FAIL() << "expected throw";
    } catch (const std::runtime_error&) {
    }
    // Cancellation: nowhere near all blocks ran.
    EXPECT_LT(ran.load(), 100000);
    // The pool is still usable after an exceptional region.
    std::atomic<int> ok{0};
    ParallelFor(0, 100, 10, [&](int64_t lo, int64_t hi) {
        ok.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(ok.load(), 100);
}

TEST(ThreadPoolTest, SetNumThreadsResizesAndRestoresDefault)
{
    const int def = NumThreads();
    SetNumThreads(3);
    EXPECT_EQ(NumThreads(), 3);
    SetNumThreads(1);
    EXPECT_EQ(NumThreads(), 1);
    // <= 0 restores the default (SINAN_THREADS or hardware).
    SetNumThreads(0);
    EXPECT_EQ(NumThreads(), def);
}

TEST(ThreadPoolTest, OnWorkerThreadFlag)
{
    EXPECT_FALSE(ThreadPool::OnWorkerThread());
    ThreadPool pool(2);
    std::atomic<int> seen{-1};
    std::mutex mu;
    std::condition_variable cv;
    pool.Submit([&] {
        seen.store(ThreadPool::OnWorkerThread() ? 1 : 0);
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return seen.load() >= 0; });
    EXPECT_EQ(seen.load(), 1);
}

TEST(ThreadPoolTest, ThreadCountParsesOnlyOneToMax)
{
    // Parse level only: no pool is built from a rejected value.
    int n = 7;
    EXPECT_TRUE(ParseThreadCount("1", &n));
    EXPECT_EQ(n, 1);
    EXPECT_TRUE(ParseThreadCount(std::to_string(kMaxThreads), &n));
    EXPECT_EQ(n, kMaxThreads);
    for (const std::string t :
         {"0", "-1", "257", "100000", "8x", " 8", "+8", "", "nan", "4.0"})
        EXPECT_FALSE(ParseThreadCount(t, &n)) << t;
    EXPECT_EQ(n, kMaxThreads);
}

} // namespace
} // namespace sinan
