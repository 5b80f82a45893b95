/**
 * @file
 * Heap-allocation counts of HybridModel::Evaluate and of the model
 * path of SinanScheduler::Decide. Each candidate's prediction is a
 * fixed-width PercentileRow held inside the result vector, and each
 * candidate's allocation is a reused row of the scheduler's Evaluate
 * input, so scoring 96 candidates (the social network's Table-1 set)
 * must make exactly as many allocations as scoring 8, and a decision
 * over a smaller candidate set exactly as many as one over the full
 * set: nothing is allocated per candidate. This binary replaces the
 * global operator new with a counting one, which is why it is a test
 * executable of its own.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <algorithm>
#include <memory>
#include <new>
#include <vector>

#include "app/apps.h"
#include "bundled_model.h"
#include "common/thread_pool.h"
#include "core/scheduler.h"
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

/** Forwards to HybridModel::Evaluate, recording the candidate count
 *  of the last call. */
class CountingModel : public HybridModel {
  public:
    explicit CountingModel(const HybridModel& source) : HybridModel(source)
    {
    }

    std::vector<Prediction>
    Evaluate(const MetricWindow& window,
             const std::vector<std::vector<double>>& allocations) override
    {
        last_candidates = allocations.size();
        return HybridModel::Evaluate(window, allocations);
    }

    size_t last_candidates = 0;
};

/** A fresh social-network observation at @p time_s: every tier at
 *  utilization 0.5 of @p alloc, except that every other tier sits at
 *  0.95 when @p saturated (above kUtilCap, so it offers no single-tier
 *  scale-down), and a p99 between 0.8 x QoS and QoS (not violated,
 *  never healthy, so no reclaim is allowed and no tier becomes a
 *  victim). */
IntervalObservation
SocialObservation(const Application& app, const std::vector<double>& alloc,
                  double time_s, bool saturated)
{
    IntervalObservation obs;
    obs.time_s = time_s;
    obs.rps = 150.0;
    obs.completed_rps = 150.0;
    for (size_t i = 0; i < alloc.size(); ++i) {
        const double util = saturated && i % 2 == 0 ? 0.95 : 0.5;
        TierMetrics m;
        m.cpu_limit = alloc[i];
        m.cpu_used = alloc[i] * util;
        m.rss_mb = 100.0;
        m.cache_mb = 50.0;
        m.rx_pps = 600.0;
        m.tx_pps = 600.0;
        m.queue_len = 0.5;
        m.active = 2.0;
        obs.tiers.push_back(m);
    }
    const double p99 = 0.9 * app.qos_ms;
    obs.latency_ms = {0.8 * p99, 0.85 * p99, 0.9 * p99, 0.95 * p99, p99};
    return obs;
}

TEST(DecideAllocations, IndependentOfCandidateCount)
{
    ThreadGuard guard;
    SetNumThreads(1);
    const Application app = BuildSocialNetwork();
    std::unique_ptr<HybridModel> bundled =
        testutil::LoadBundledModel(app, "social");
    if (!bundled)
        GTEST_SKIP() << "bundled social model not present";
    CountingModel model(*bundled);
    SinanScheduler sched(model, SchedulerConfig{});
    std::vector<double> alloc;
    for (const TierSpec& t : app.tiers)
        alloc.push_back(std::clamp(2.0, t.min_cpu, t.max_cpu));

    // Fill the window, then alternate the two observations until every
    // scratch buffer has seen both candidate sets.
    double t = 0.0;
    auto decide = [&](bool saturated) {
        t += 1.0;
        (void)sched.Decide(SocialObservation(app, alloc, t, saturated),
                           alloc, app);
    };
    for (int i = 0; i < model.Features().history + 4; ++i)
        decide(i % 2 == 1);

    auto count = [&](bool saturated) {
        t += 1.0;
        const IntervalObservation obs =
            SocialObservation(app, alloc, t, saturated);
        const uint64_t before = g_allocations.load();
        (void)sched.Decide(obs, alloc, app);
        return g_allocations.load() - before;
    };
    const uint64_t n_full = count(false);
    const size_t full_set = model.last_candidates;
    const uint64_t n_small = count(true);
    const size_t small_set = model.last_candidates;
    ASSERT_GT(full_set, small_set + 10) << "the observations must give "
                                           "different candidate counts";
    EXPECT_EQ(n_full, n_small)
        << full_set << " vs " << small_set << " candidates";
    EXPECT_GT(n_full, 0u) << "the counting operator new is not linked in";
}

} // namespace
} // namespace sinan
