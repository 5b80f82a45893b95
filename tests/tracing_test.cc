/**
 * @file
 * Tests for the sampled distributed tracer: span structure, timing
 * consistency with the queueing model, async handling, sampling, and
 * per-tier attribution.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/cluster.h"
#include "cluster/tracing.h"

namespace sinan {
namespace {

/** frontend -> {worker, async logger} topology. */
Application
FanoutApp()
{
    Application app;
    app.name = "traced";
    app.qos_ms = 1000.0;
    for (const char* n : {"frontend", "worker", "logger"}) {
        TierSpec t;
        t.name = n;
        t.init_cpu = 4.0;
        t.max_cpu = 8.0;
        app.tiers.push_back(t);
    }
    CallNode worker;
    worker.tier = 1;
    worker.demand_s = 0.02;
    worker.demand_cv = 0.0;
    CallNode logger;
    logger.tier = 2;
    logger.demand_s = 0.01;
    logger.demand_cv = 0.0;
    logger.async = true;
    RequestType rt;
    rt.name = "req";
    rt.root.tier = 0;
    rt.root.demand_s = 0.005;
    rt.root.demand_cv = 0.0;
    rt.root.children = {worker, logger};
    app.request_types.push_back(rt);
    return app;
}

void
Drain(Cluster& cluster, double seconds, double start = 0.0)
{
    const int ticks = static_cast<int>(std::llround(seconds / 0.01));
    for (int i = 0; i < ticks; ++i)
        cluster.Tick(start + i * 0.01, 0.01);
}

TEST(Tracing, DisabledByDefault)
{
    const Application app = FanoutApp();
    Cluster cluster(app, ClusterConfig{}, 1);
    cluster.Inject(0, 0.0);
    Drain(cluster, 0.3);
    EXPECT_TRUE(cluster.TakeTraces().empty());
}

TEST(Tracing, FullSamplingTracesEveryRequest)
{
    ClusterConfig cfg;
    cfg.trace_sample = 1.0;
    const Application app = FanoutApp();
    Cluster cluster(app, cfg, 1);
    for (int i = 0; i < 5; ++i)
        cluster.Inject(0, 0.0);
    Drain(cluster, 0.5);
    const std::vector<Trace> traces = cluster.TakeTraces();
    ASSERT_EQ(traces.size(), 5u);
    // Second call returns nothing (take semantics).
    EXPECT_TRUE(cluster.TakeTraces().empty());
}

TEST(Tracing, SpanStructureMatchesCallTree)
{
    ClusterConfig cfg;
    cfg.trace_sample = 1.0;
    const Application app = FanoutApp();
    Cluster cluster(app, cfg, 1);
    cluster.Inject(0, 0.0);
    Drain(cluster, 0.5);
    const std::vector<Trace> traces = cluster.TakeTraces();
    ASSERT_EQ(traces.size(), 1u);
    const Trace& t = traces[0];
    ASSERT_EQ(t.spans.size(), 3u);
    EXPECT_EQ(t.spans[0].tier, 0);
    EXPECT_EQ(t.spans[0].parent_span, -1);
    EXPECT_FALSE(t.spans[0].async);
    // Children parented on the root span; the logger is async.
    for (size_t i = 1; i < 3; ++i)
        EXPECT_EQ(t.spans[i].parent_span, 0);
    int async_count = 0;
    for (const Span& s : t.spans)
        async_count += s.async;
    EXPECT_EQ(async_count, 1);
    EXPECT_GT(t.trace_id, 0);
    EXPECT_EQ(t.request_type, 0);
}

TEST(Tracing, TimingIsConsistent)
{
    ClusterConfig cfg;
    cfg.trace_sample = 1.0;
    const Application app = FanoutApp();
    Cluster cluster(app, cfg, 1);
    cluster.Inject(0, 0.0);
    Drain(cluster, 0.5);
    const Trace t = cluster.TakeTraces().at(0);
    for (const Span& s : t.spans) {
        EXPECT_GE(s.start_s, s.enqueue_s);
        EXPECT_GE(s.end_s, s.start_s);
    }
    // Root span duration ~ trace latency; worker (20 ms demand) spans
    // at least 20 ms.
    const Span& root = t.spans[0];
    EXPECT_NEAR(root.end_s - t.begin_s, t.LatencyMs() / 1000.0, 1e-9);
    const Span& worker = t.spans[1].tier == 1 ? t.spans[1] : t.spans[2];
    EXPECT_GE(worker.DurationS(), 0.02 - 1e-9);
}

TEST(Tracing, QueueWaitShowsUpInSpans)
{
    Application app = FanoutApp();
    app.tiers[1].concurrency_per_replica = 1;
    app.tiers[1].replicas = 1;
    ClusterConfig cfg;
    cfg.trace_sample = 1.0;
    Cluster cluster(app, cfg, 1);
    // Two requests: the second's worker span must wait for the slot.
    cluster.Inject(0, 0.0);
    cluster.Inject(0, 0.0);
    Drain(cluster, 0.5);
    const std::vector<Trace> traces = cluster.TakeTraces();
    ASSERT_EQ(traces.size(), 2u);
    double max_wait = 0.0;
    for (const Trace& t : traces)
        for (const Span& s : t.spans)
            if (s.tier == 1)
                max_wait = std::max(max_wait, s.QueueWaitS());
    EXPECT_GE(max_wait, 0.01 - 1e-9);
}

TEST(Tracing, SamplingRateApproximatelyRespected)
{
    ClusterConfig cfg;
    cfg.trace_sample = 0.2;
    const Application app = FanoutApp();
    Cluster cluster(app, cfg, 7);
    for (int i = 0; i < 500; ++i)
        cluster.Inject(0, 0.0);
    Drain(cluster, 3.0);
    const size_t traced = cluster.TakeTraces().size();
    EXPECT_GT(traced, 60u);
    EXPECT_LT(traced, 140u);
}

TEST(Tracing, SlowestSyncSpanIgnoresAsync)
{
    Trace t;
    Span a;
    a.tier = 0;
    a.enqueue_s = 0;
    a.end_s = 1.0;
    Span b;
    b.tier = 1;
    b.enqueue_s = 0;
    b.end_s = 5.0;
    b.async = true;
    t.spans = {a, b};
    EXPECT_EQ(t.SlowestSyncSpan(), 0);
}

TEST(Tracing, AttributionSumsPerTier)
{
    ClusterConfig cfg;
    cfg.trace_sample = 1.0;
    const Application app = FanoutApp();
    Cluster cluster(app, cfg, 1);
    for (int i = 0; i < 10; ++i)
        cluster.Inject(0, 0.0);
    Drain(cluster, 1.0);
    const std::vector<Trace> traces = cluster.TakeTraces();
    const auto attr = AttributeByTier(traces, 3);
    ASSERT_EQ(attr.size(), 3u);
    // The root span covers the whole request, so the frontend's total
    // is at least the worker's; the worker accounts for its 20 ms
    // demand per request; the async logger contributes nothing.
    EXPECT_GE(attr[0].sync_time_s, attr[1].sync_time_s);
    EXPECT_GE(attr[1].sync_time_s, 10 * 0.02 - 1e-6);
    EXPECT_EQ(attr[2].spans, 0);
    EXPECT_EQ(attr[1].spans, 10);
    EXPECT_THROW(AttributeByTier(traces, 0), std::invalid_argument);
}

} // namespace
} // namespace sinan
