/**
 * @file
 * Heap-allocation count of HybridModel::Evaluate. Each candidate's
 * prediction is a fixed-width PercentileRow held inside the result
 * vector, so scoring 96 candidates (the social network's Table-1 set)
 * must make exactly as many allocations as scoring 8: nothing is
 * allocated per candidate. This binary replaces the global operator
 * new with a counting one, which is why it is a test executable of its
 * own.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "app/apps.h"
#include "bundled_model.h"
#include "common/thread_pool.h"
#include "harness/harness.h"
#include "models/hybrid.h"
#include "test_util.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

} // namespace

// The replacements stay out of line: inlined into a container's
// deallocation, GCC would pair the free() below with the caller's
// operator new and warn about a mismatched allocation.
[[gnu::noinline]] void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void*
operator new[](std::size_t size)
{
    return operator new(size);
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p) noexcept
{
    operator delete(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    operator delete(p);
}

[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept
{
    operator delete(p);
}

namespace sinan {
namespace {

using testutil::MakeCandidates;
using testutil::MakeWindow;
using testutil::ThreadGuard;

/** Allocations made by one Evaluate call of @p model. */
uint64_t
CountEvaluateAllocations(HybridModel& model, const MetricWindow& w,
                         const std::vector<std::vector<double>>& cands)
{
    const uint64_t before = g_allocations.load();
    const std::vector<Prediction> preds = model.Evaluate(w, cands);
    const uint64_t after = g_allocations.load();
    EXPECT_EQ(preds.size(), cands.size());
    return after - before;
}

/** Warms @p model's workspace up to 96 candidates, then checks that 8
 *  and 96 candidates allocate equally often. */
void
ExpectAllocationsIndependentOfCandidateCount(HybridModel& model)
{
    const FeatureConfig& f = model.Features();
    const MetricWindow w = MakeWindow(f, 200, 0.3 * f.qos_ms);
    const auto few = MakeCandidates(f, 8);
    const auto many = MakeCandidates(f, 96);
    (void)model.Evaluate(w, many);
    (void)model.Evaluate(w, few);

    const uint64_t n_few = CountEvaluateAllocations(model, w, few);
    const uint64_t n_many = CountEvaluateAllocations(model, w, many);
    EXPECT_EQ(n_few, n_many);
    EXPECT_GT(n_few, 0u) << "the counting operator new is not linked in";
}

TEST(EvaluateAllocations, IndependentOfCandidateCount)
{
    // One thread: the pool's own bookkeeping then stays out of the
    // count, and every allocation happens on this thread.
    ThreadGuard guard;
    SetNumThreads(1);
    const Application app = BuildSocialNetwork();
    HybridModel untrained(AppFeatures(app, PipelineConfig{}),
                          DefaultHybridConfig(), 1);
    ExpectAllocationsIndependentOfCandidateCount(untrained);

    std::unique_ptr<HybridModel> bundled =
        testutil::LoadBundledModel(app, "social");
    if (!bundled)
        GTEST_SKIP() << "bundled social model not present";
    ExpectAllocationsIndependentOfCandidateCount(*bundled);
}

} // namespace
} // namespace sinan
