#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.h"

namespace sinan {

namespace {

/** Progress below this is treated as zero to terminate sharing rounds. */
constexpr double kEpsWork = 1e-12;

/** Upper bound on sharing rounds per tier per tick (safety net). */
constexpr int kMaxRounds = 64;

/** Slack of the per-tier-tick CPU conservation check (core-seconds). */
constexpr double kEpsCpu = 1e-9;

} // namespace

Cluster::Cluster(const Application& app, const ClusterConfig& cfg,
                 uint64_t seed)
    : app_(app), cfg_(cfg), rng_(seed)
{
    if (app.tiers.empty())
        throw std::invalid_argument("Cluster: application has no tiers");
    if (app.request_types.empty())
        throw std::invalid_argument("Cluster: application has no requests");
    if (cfg.replica_scale < 1)
        throw std::invalid_argument("Cluster: replica_scale must be >= 1");

    tiers_.resize(app.tiers.size());
    for (size_t i = 0; i < app.tiers.size(); ++i) {
        TierState& t = tiers_[i];
        t.spec = &app.tiers[i];
        t.cpu_limit = t.spec->init_cpu;
        t.slots = t.spec->concurrency_per_replica * t.spec->replicas *
                  cfg.replica_scale;
        t.cache_mb = t.spec->base_cache_mb;
        t.next_sync_at = t.spec->log_sync_period_s;
    }

    roots_.reserve(app.request_types.size());
    for (const RequestType& rt : app.request_types) {
        const int32_t root = FlattenTree(rt.root, -1);
        nodes_[root].root = true;
        roots_.push_back(root);
    }
}

int32_t
Cluster::FlattenTree(const CallNode& node, int caller_tier)
{
    if (node.tier < 0 || node.tier >= static_cast<int>(tiers_.size()))
        throw std::invalid_argument("Cluster: call node has bad tier index");
    // A node without positive finite work would be admitted but never
    // runnable, holding its slot and its request forever.
    if (!(std::isfinite(node.demand_s) && node.demand_s > 0.0))
        throw std::invalid_argument(
            "Cluster: call node demand_s must be finite and > 0");
    if (!(std::isfinite(node.demand_cv) && node.demand_cv >= 0.0))
        throw std::invalid_argument(
            "Cluster: call node demand_cv must be finite and >= 0");
    if (!(node.hit_prob >= 0.0 && node.hit_prob <= 1.0))
        throw std::invalid_argument(
            "Cluster: call node hit_prob must be in [0, 1]");
    // Stage::node and Stage::pending_children are 16 and 8 bits wide.
    if (nodes_.size() >= kMaxNodes)
        throw std::invalid_argument(
            "Cluster: call trees have more than " +
            std::to_string(kMaxNodes) + " nodes in all");
    if (std::count_if(node.children.begin(), node.children.end(),
                      [](const CallNode& c) { return !c.async; }) >
        kMaxSyncChildren)
        throw std::invalid_argument(
            "Cluster: call node has more than " +
            std::to_string(kMaxSyncChildren) + " sync children");
    const int32_t idx = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(FlatNode{
        node.tier, caller_tier,
        LogNormalParams::FromMeanCv(node.demand_s, node.demand_cv),
        node.hit_prob, node.async, false, -1, -1});
    // Depth-first layout: a node's first child is at idx+1 and sibling
    // k+1 starts right after sibling k's whole subtree; each child links
    // to the next, so FinishLocalWork walks siblings without subtrees.
    int32_t prev = -1;
    for (const CallNode& c : node.children) {
        const int32_t child = FlattenTree(c, c.async ? -1 : node.tier);
        if (prev < 0)
            nodes_[idx].child_begin = child;
        else
            nodes_[prev].next_sibling = child;
        prev = child;
    }
    return idx;
}

inline int32_t
Cluster::AllocStage()
{
    // No reset: SpawnStage writes every field of the recycled slot.
    if (free_head_ >= 0) {
        const int32_t h = free_head_;
        free_head_ = stages_[h].next;
        return h;
    }
    stages_.emplace_back();
    if (cfg_.trace_sample > 0.0)
        stage_spans_.emplace_back();
    return static_cast<int32_t>(stages_.size()) - 1;
}

inline void
Cluster::FreeStage(int32_t handle)
{
    Stage& s = stages_[handle];
    s.state = 0;
    s.next = free_head_;
    free_head_ = handle;
}

inline int32_t
Cluster::SpawnStage(int32_t node, int32_t parent, double now)
{
    const FlatNode& fn = nodes_[node];
    const int32_t h = AllocStage();
    Stage& s = stages_[h];
    s.parent = parent;
    s.node = static_cast<uint16_t>(node);
    s.state = 1; // queued
    s.pending_children = 0;
    s.next = -1;
    // Tick keeps tick_id_ + 1 within kMaxTicks.
    s.ready_tick = static_cast<int32_t>(in_tick_ ? tick_id_ + 1 : tick_id_);
    s.remaining_s = rng_.LogNormal(fn.demand);
    s.enqueue_time = now;
    if (!stage_spans_.empty())
        stage_spans_[h] = StageSpan{};

    TierState& tier = tiers_[fn.tier];
    if (tier.queue_tail >= 0)
        stages_[tier.queue_tail].next = h;
    else
        tier.queue_head = h;
    tier.queue_tail = h;
    ++tier.queue_len;
    tier.rx_pkts += tier.spec->pkts_per_rpc;
    if (fn.caller_tier >= 0)
        tiers_[fn.caller_tier].tx_pkts +=
            tiers_[fn.caller_tier].spec->pkts_per_rpc;
    return h;
}

void
Cluster::Inject(int request_type, double now)
{
    if (request_type < 0 ||
        request_type >= static_cast<int>(roots_.size())) {
        throw std::out_of_range("Cluster::Inject: bad request type");
    }
    const int32_t h = SpawnStage(roots_[request_type], -1, now);
    ++injected_;
    ++in_flight_;

    if (cfg_.trace_sample > 0.0 && rng_.Bernoulli(cfg_.trace_sample)) {
        int32_t idx;
        if (!trace_free_.empty()) {
            idx = trace_free_.back();
            trace_free_.pop_back();
            active_traces_[idx] = Trace{};
            trace_open_spans_[idx] = 0;
        } else {
            idx = static_cast<int32_t>(active_traces_.size());
            active_traces_.emplace_back();
            trace_open_spans_.push_back(0);
        }
        Trace& trace = active_traces_[idx];
        trace.trace_id = ++trace_counter_;
        trace.request_type = request_type;
        trace.begin_s = now;
        AttachSpan(h, idx, -1, false, now);
    }
}

void
Cluster::AttachSpan(int32_t handle, int32_t trace_idx, int parent_span,
                    bool async, double now)
{
    Trace& trace = active_traces_[trace_idx];
    Span span;
    span.tier = nodes_[stages_[handle].node].tier;
    span.span_id = static_cast<int>(trace.spans.size());
    span.parent_span = parent_span;
    span.async = async;
    span.enqueue_s = now;
    span.start_s = now;
    span.end_s = now;
    stage_spans_[handle] = StageSpan{trace_idx, span.span_id};
    trace.spans.push_back(span);
    ++trace_open_spans_[trace_idx];
}

void
Cluster::CloseSpan(const StageSpan& ss, bool root, double end_time)
{
    Trace& trace = active_traces_[ss.trace_idx];
    Span& span = trace.spans[ss.span_idx];
    span.end_s = end_time;
    if (root)
        trace.end_s = end_time;
    if (--trace_open_spans_[ss.trace_idx] == 0) {
        completed_traces_.push_back(std::move(trace));
        trace_free_.push_back(ss.trace_idx);
    }
}

std::vector<Trace>
Cluster::TakeTraces()
{
    std::vector<Trace> out;
    out.swap(completed_traces_);
    return out;
}

void
Cluster::AdmitFromQueue(TierState& tier, double now)
{
    while (tier.CanAdmit()) {
        const int32_t h = tier.queue_head;
        Stage& s = stages_[h];
        tier.queue_head = s.next;
        if (tier.queue_head < 0)
            tier.queue_tail = -1;
        --tier.queue_len;
        s.state = 2; // running
        // Children spawned mid-tick carry the tick-end timestamp while
        // admission runs at tick start, so the difference is clamped.
        tier.wait_acc += std::max(0.0, now - s.enqueue_time);
        ++tier.wait_count;
        ++tier.active;
        tier.running.push_back(h);
        if (!stage_spans_.empty() && stage_spans_[h].trace_idx >= 0) {
            const StageSpan& ss = stage_spans_[h];
            Span& span = active_traces_[ss.trace_idx].spans[ss.span_idx];
            span.start_s = std::max(now, span.enqueue_s);
        }
    }
}

void
Cluster::FinishLocalWork(int32_t handle, double end_time)
{
    const Stage& s = stages_[handle];
    const FlatNode& fn = nodes_[s.node];
    if (fn.child_begin < 0 || rng_.Bernoulli(fn.hit_prob)) {
        CompleteStage(handle, end_time);
        return;
    }

    // Spawn all children in parallel. Copy the span handles up front:
    // SpawnStage can grow the arenas and invalidate references.
    const StageSpan parent_span =
        stage_spans_.empty() ? StageSpan{} : stage_spans_[handle];
    int sync_children = 0;
    for (int32_t child = fn.child_begin; child >= 0;
         child = nodes_[child].next_sibling) {
        const bool async = nodes_[child].async;
        const int32_t ch = SpawnStage(child, async ? -1 : handle, end_time);
        if (parent_span.trace_idx >= 0)
            AttachSpan(ch, parent_span.trace_idx, parent_span.span_idx,
                       async, end_time);
        if (!async)
            ++sync_children;
    }

    if (sync_children == 0) {
        CompleteStage(handle, end_time);
    } else {
        // FlattenTree caps sync children at kMaxSyncChildren.
        Stage& p = stages_[handle];
        p.pending_children = static_cast<uint8_t>(sync_children);
        p.state = 3; // blocked, still holding its slot
    }
}

void
Cluster::CompleteStage(int32_t handle, double end_time)
{
    for (;;) {
        // Nothing below allocates a stage, so the reference stays valid;
        // fields are read before FreeStage recycles the slot.
        const Stage& s = stages_[handle];
        const FlatNode& fn = nodes_[s.node];
        TierState& tier = tiers_[fn.tier];

        --tier.active;
        tier.tx_pkts += tier.spec->pkts_per_rpc;
        tier.written_mb += tier.spec->written_mb_per_req;
        tier.cache_mb = std::min(tier.spec->max_cache_mb,
                                 tier.cache_mb + tier.spec->cache_per_req_mb);
        if (fn.caller_tier >= 0)
            tiers_[fn.caller_tier].rx_pkts +=
                tiers_[fn.caller_tier].spec->pkts_per_rpc;

        // A root's enqueue time is its request's injection time.
        if (fn.root) {
            latency_.Add((end_time - s.enqueue_time) * 1000.0);
            ++completed_;
            --in_flight_;
        }
        if (!stage_spans_.empty() && stage_spans_[handle].trace_idx >= 0)
            CloseSpan(stage_spans_[handle], fn.root, end_time);

        const int32_t parent = s.parent;
        FreeStage(handle);
        if (parent < 0)
            return;
        Stage& p = stages_[parent];
        if (--p.pending_children != 0 || p.state != 3)
            return;
        handle = parent; // its last sync child is done
    }
}

void
Cluster::Tick(double now, double dt)
{
    if (tick_id_ >= kMaxTicks)
        throw std::overflow_error("Cluster::Tick: more than " +
                                  std::to_string(kMaxTicks) + " ticks");
    in_tick_ = true;
    const double end_time = now + dt;
    for (TierState& tier : tiers_) {
        // Log-sync stall model: at each period boundary the tier forks and
        // copies dirty memory, serving nothing while it does.
        if (tier.spec->log_sync && now >= tier.next_sync_at) {
            const double stall = tier.spec->stall_base_s +
                                 tier.spec->stall_s_per_mb * tier.written_mb;
            // max: an injected stall (InjectStall) may already reach
            // further than this sync's own pause.
            tier.stall_until = std::max(tier.stall_until, now + stall);
            tier.written_mb = 0.0;
            tier.next_sync_at += tier.spec->log_sync_period_s;
        }

        // Idle: nothing runs and nothing can be admitted, so admission
        // and the sharing rounds would be no-ops and the checks below
        // hold trivially. Only occupancy is sampled.
        const bool admissible = tier.CanAdmit();
        if (tier.running.empty() && !admissible) {
            tier.queue_len_acc += tier.queue_len;
            tier.active_acc += tier.active;
            continue;
        }

        // Fraction of this tick the tier is able to run.
        double avail = 1.0;
        if (tier.stall_until > now)
            avail = std::max(0.0, (end_time - tier.stall_until) / dt);

        if (admissible)
            AdmitFromQueue(tier, now);

        const double cap0_s = tier.cpu_limit * cfg_.speed_factor *
                              tier.capacity_factor * dt * avail;
        const double per_stage_cap = dt * avail; // one core per stage
        const double used_before = tier.cpu_used_acc;
        double cap_s = cap0_s;

        // Water-filling: each round splits the remaining capacity evenly
        // over the runnable stages, in running order. A stage leaves the
        // runnable set when it finishes or hits the per-stage cap, and
        // neither can be undone within the tick, so the set is built once
        // and then only filtered in place and extended by the stages each
        // round's admission appends to running — the same set, in the same
        // order, that a re-scan of running would produce. The set holds
        // positions in running; a finished stage's entry becomes -1 there,
        // and one stable pass drops those marks after the last round.
        // Each entry also counts its stage's CPU for this tick.
        runnable_.clear();
        const auto consider = [&](size_t pos) {
            const Stage& s = stages_[tier.running[pos]];
            if (s.ready_tick <= tick_id_ && s.remaining_s > kEpsWork)
                runnable_.push_back({static_cast<int32_t>(pos), 0.0});
        };
        if (cap_s > kEpsWork && per_stage_cap > kEpsWork) {
            for (size_t i = 0; i < tier.running.size(); ++i)
                consider(i);
        }

        bool finished = false;
        for (int round = 0; round < kMaxRounds && cap_s > kEpsWork;
             ++round) {
            if (runnable_.empty())
                break;

            const double share =
                cap_s / static_cast<double>(runnable_.size());
            bool progressed = false;
            size_t kept = 0;
            for (size_t k = 0; k < runnable_.size(); ++k) {
                Runnable r = runnable_[k];
                const int32_t h = tier.running[r.pos];
                Stage& s = stages_[h];
                const double give = std::min(
                    {share, s.remaining_s, per_stage_cap - r.consumed});
                if (give <= kEpsWork) {
                    runnable_[kept++] = r; // unchanged, still runnable
                    continue;
                }
                s.remaining_s -= give;
                r.consumed += give;
                cap_s -= give;
                tier.cpu_used_acc += give;
                progressed = true;
                if (s.remaining_s <= kEpsWork) {
                    s.remaining_s = 0.0;
                    tier.running[r.pos] = -1;
                    finished = true;
                    // May spawn into the arena (invalidating s) and free h
                    // for reuse; neither touches this tier's running list.
                    FinishLocalWork(h, end_time);
                } else if (r.consumed < per_stage_cap - kEpsWork) {
                    runnable_[kept++] = r;
                }
            }
            runnable_.resize(kept);
            if (!progressed)
                break;
            if (tier.CanAdmit()) {
                const size_t admitted_from = tier.running.size();
                AdmitFromQueue(tier, now);
                for (size_t i = admitted_from; i < tier.running.size(); ++i)
                    consider(i);
            }
        }
        if (finished)
            std::erase(tier.running, -1);

        // O(1) conservation checks (on in Release builds too).
        SINAN_CHECK(tier.cpu_used_acc - used_before <= cap0_s + kEpsCpu);
        SINAN_CHECK_BOUNDS(tier.active, 0, tier.slots);
        SINAN_CHECK(tier.running.size() <=
                    static_cast<size_t>(tier.active));
        SINAN_CHECK((tier.queue_head < 0) == (tier.queue_len == 0));

        tier.queue_len_acc += tier.queue_len;
        tier.active_acc += tier.active;
    }
    ++tick_samples_;
    ++tick_id_;
    in_tick_ = false;
}

IntervalObservation
Cluster::Harvest(double now, double interval_s)
{
    IntervalObservation obs;
    obs.time_s = now;
    obs.rps = static_cast<double>(injected_) / interval_s;
    obs.completed_rps = static_cast<double>(completed_) / interval_s;
    obs.tiers.reserve(tiers_.size());
    const double samples =
        std::max<double>(1.0, static_cast<double>(tick_samples_));

    auto noisy = [&](double v) {
        if (cfg_.metric_noise <= 0.0)
            return v;
        return std::max(0.0, v * (1.0 + rng_.Normal(0.0,
                                                    cfg_.metric_noise)));
    };

    for (TierState& tier : tiers_) {
        TierMetrics m;
        m.cpu_limit = tier.cpu_limit;
        m.cpu_used = noisy(tier.cpu_used_acc / interval_s);
        m.queue_len = static_cast<double>(tier.queue_len_acc) / samples;
        m.active = static_cast<double>(tier.active_acc) / samples;
        m.rss_mb = noisy(tier.spec->base_rss_mb + tier.written_mb +
                         tier.spec->rss_per_inflight_mb *
                             (m.queue_len + m.active));
        m.cache_mb = noisy(tier.cache_mb);
        m.rx_pps = noisy(tier.rx_pkts / interval_s);
        m.tx_pps = noisy(tier.tx_pkts / interval_s);
        m.queue_wait_s =
            tier.wait_count ? tier.wait_acc /
                                  static_cast<double>(tier.wait_count)
                            : 0.0;
        obs.tiers.push_back(m);

        tier.cpu_used_acc = 0.0;
        tier.queue_len_acc = 0;
        tier.active_acc = 0;
        tier.rx_pkts = 0.0;
        tier.tx_pkts = 0.0;
        tier.wait_acc = 0.0;
        tier.wait_count = 0;
    }
    tick_samples_ = 0;

    // Only the ascending p95..p99 tail is read, so order just that part.
    latency_.SealFrom(LatencyQuantiles().front());
    obs.latency_ms = latency_.Quantiles(LatencyQuantiles());
    latency_.Reset();
    injected_total_ += injected_;
    completed_total_ += completed_;
    SINAN_CHECK_EQ(injected_total_, completed_total_ + in_flight_);
    injected_ = 0;
    completed_ = 0;
    return obs;
}

void
Cluster::SetCpuLimit(int tier, double cores)
{
    if (tier < 0 || tier >= NumTiers())
        throw std::out_of_range("Cluster::SetCpuLimit: bad tier");
    TierState& t = tiers_[tier];
    t.cpu_limit = std::clamp(cores, t.spec->min_cpu, t.spec->max_cpu);
}

void
Cluster::SetCapacityFactor(int tier, double factor)
{
    if (tier < 0 || tier >= NumTiers())
        throw std::out_of_range("Cluster::SetCapacityFactor: bad tier");
    tiers_[tier].capacity_factor = std::clamp(factor, 0.0, 1.0);
}

void
Cluster::InjectStall(int tier, double until_s)
{
    if (tier < 0 || tier >= NumTiers())
        throw std::out_of_range("Cluster::InjectStall: bad tier");
    TierState& t = tiers_[tier];
    t.stall_until = std::max(t.stall_until, until_s);
}

void
Cluster::SetAllocation(const std::vector<double>& cores)
{
    if (static_cast<int>(cores.size()) != NumTiers())
        throw std::invalid_argument("Cluster::SetAllocation: size mismatch");
    for (int i = 0; i < NumTiers(); ++i)
        SetCpuLimit(i, cores[i]);
}

std::vector<double>
Cluster::Allocation() const
{
    std::vector<double> out;
    out.reserve(tiers_.size());
    for (const TierState& t : tiers_)
        out.push_back(t.cpu_limit);
    return out;
}

} // namespace sinan
