/**
 * @file
 * Sinan's online scheduler (paper Sec. 4.3 and Table 1).
 *
 * Every decision interval it enumerates a pruned set of candidate
 * actions — hold, scale down one tier or a batch of the least-utilized
 * tiers, scale up one tier, all tiers, or the recently-downsized
 * "victim" tiers — queries the hybrid model for each candidate's
 * predicted tail latency and violation probability, filters with
 *   predicted p99 <= QoS - RMSE_valid, and
 *   p_V < p_d (downscale) / p_V < p_u (hold, upscale),
 * and applies the acceptable action using the least total CPU. A safety
 * mechanism upscales every tier after an observed (mispredicted) QoS
 * violation and tracks the model's trust.
 *
 * Decide() runs that loop as one pipeline for every interval, whatever
 * the telemetry looks like: it grades the observation into a mode
 * (fresh, graded or blind), derives the interval's reference
 * observation and evaluation window, takes the safety exits (watchdog,
 * warm-up / heuristic / hold, observed-violation upscale), and
 * otherwise filters the candidates with the mode's margins and
 * down-action rule, then commits once.
 */
#ifndef SINAN_CORE_SCHEDULER_H
#define SINAN_CORE_SCHEDULER_H

#include <array>

#include "core/manager.h"
#include "core/telemetry_guard.h"
#include "models/hybrid.h"

namespace sinan {

/**
 * Switch for the graded telemetry-confidence policy (DESIGN.md §5j;
 * its numbers are the SinanScheduler::kUncertaintyMarginFrac,
 * kConfidenceFloor and kStaleDecay constants). Off by default, which
 * reproduces the binary fresh/degraded ladder bit for bit. The ladder
 * is not the zero-confidence limit of the graded policy, so the switch
 * changes decisions: a stale frame at confidence 0.6 is graded only
 * when on.
 */
struct UncertaintyConfig {
    bool enabled = false;
};

/** Per-run options; the policy is the SinanScheduler constants. */
struct SchedulerConfig {
    /** Graded-confidence policy (off by default; see above). */
    UncertaintyConfig uncertainty;
};

/** The Sinan resource manager. */
class SinanScheduler : public ResourceManager {
  public:
    // ---- policy constants (paper Sec. 4.3 and Table 1) ---------------
    /** Violation-probability threshold enabling scale-down actions. */
    static constexpr double kPDown = 0.08;
    /** Threshold above which holding is unacceptable (scale up). */
    static constexpr double kPUp = 0.50;
    /** Single-tier CPU step sizes evaluated (cores). */
    static constexpr std::array<double, 2> kCpuSteps = {0.2, 0.6};
    /** Batch scale-down ratio applied to the k least-utilized tiers. */
    static constexpr double kBatchDownRatio = 0.10;
    /** Scale-up-all ratio (AWS step-scaling inspired). */
    static constexpr double kUpAllRatio = 0.30;
    /** Look-back window (intervals) defining "victim" tiers. */
    static constexpr int kVictimWindow = 3;
    /** Utilization above which a tier is never scaled down. */
    static constexpr double kUtilCap = 0.90;
    /** A scale-down candidate is rejected if it would push any tier's
     *  utilization (current usage / candidate limit) above this. */
    static constexpr double kPostDownUtilCap = 0.85;
    /** Consecutive comfortably-healthy intervals (p99 below
     *  kHealthyFrac * QoS) required before reclaiming resources —
     *  hysteresis against reclaiming into a transient burst. */
    static constexpr int kReclaimAfterHealthy = 3;
    static constexpr double kHealthyFrac = 0.8;
    /** Consecutive observed violations before the escalated fallback. */
    static constexpr int kMaxFallbackAfter = 3;
    /** Mispredictions tolerated before trust is reduced. */
    static constexpr int kTrustThreshold = 25;
    /** Every this many consecutive comfortably-healthy intervals, one
     *  recorded misprediction is forgiven. The paper restores trust as
     *  predictions prove out; without decay a single bad phase early
     *  in a long run would keep the doubled margin forever. */
    static constexpr int kTrustDecayEvery = 3;
    /** Consecutive comfortably-healthy intervals after which reduced
     *  trust is restored (once mispredictions have decayed back to the
     *  threshold). */
    static constexpr int kTrustRestoreHealthy = 8;
    /** Upper bound on the latency filter margin as a fraction of QoS
     *  (the paper subtracts RMSE_valid; with the simulator's unbounded
     *  queueing spikes the raw RMSE can exceed QoS, which would filter
     *  out every action). */
    static constexpr double kMarginCapFrac = 0.3;
    /** Consecutive degraded-telemetry intervals (absent, stale, or
     *  non-finite observations) after which the watchdog forces a
     *  blanket scale-up every further silent interval — the last
     *  resort against load shifting under a frozen allocation while
     *  the manager is blind. */
    static constexpr int kWatchdogSilentAfter = 3;

    // ---- graded-confidence policy (UncertaintyConfig::enabled) -------
    // For confidence c in [kConfidenceFloor, 1) Decide() repairs the
    // zero-confidence tiers from the last good picture, widens the
    // latency filter by kUncertaintyMarginFrac * QoS * (1 - c) and the
    // p_d / p_u thresholds by kUncertaintyMarginFrac * (1 - c), and caps
    // the reclaim at c times the largest step-down on offer. Below the
    // floor (or without a full window or a last good picture) the blind
    // ladder decides: no extra margin, no p_V widening, every
    // scale-down rejected.
    static constexpr double kUncertaintyMarginFrac = 0.15;
    static constexpr double kConfidenceFloor = 0.35;
    /** A frame stale by k intervals has confidence kStaleDecay^k: a
     *  stale-only run grades 0.6, then 0.36, and the watchdog takes the
     *  third silent interval, so decay alone never reaches the ladder. */
    static constexpr double kStaleDecay = 0.6;

    /**
     * @param model trained hybrid model (not owned; must outlive this).
     * @param cfg the graded-confidence policy.
     */
    SinanScheduler(HybridModel& model, const SchedulerConfig& cfg);

    std::vector<double> Decide(const IntervalObservation& obs,
                               const std::vector<double>& alloc,
                               const Application& app) override;

    const char* Name() const override { return "Sinan"; }

    void Reset() override;

    double LastPredictedP99() const override { return last_pred_p99_; }
    double LastViolationProb() const override { return last_pred_pv_; }

    /** Observed mispredictions (for the trust mechanism's report). */
    int Mispredictions() const { return mispredictions_; }

    /** True while reduced-trust conservatism is active. */
    bool TrustReduced() const { return trust_reduced_; }

    /** Consecutive degraded-telemetry intervals handled so far (0 on
     *  the fresh path; see TelemetryGuard). */
    int SilentIntervals() const { return guard_.SilentIntervals(); }

    /**
     * Swaps the hybrid model consulted by subsequent Decide() calls.
     * The replacement must be weight-identical to the original (a
     * Clone()) — the fleet harness rebinds each shard's scheduler to a
     * per-worker clone for the duration of one batched decision, so
     * concurrent shards never share Evaluate() workspaces. Decisions
     * are unaffected because Evaluate() output depends only on the
     * weights and inputs, never on workspace residue.
     */
    void RebindModel(HybridModel& model) { model_ = &model; }

    /**
     * Attaches per-decision telemetry sinks: every Decide() appends
     * one DecisionTraceEntry (candidates, rejection reasons, trust
     * state) and updates the `sinan.scheduler.*` counters/histograms.
     * Telemetry is observational only — it never changes a decision —
     * and is bit-identical across thread-pool sizes.
     */
    void AttachTelemetry(DecisionTrace* trace,
                         MetricsRegistry* metrics) override
    {
        trace_ = trace;
        metrics_ = metrics;
    }

  private:
    /** One Table-1 action; its clamped allocation is the row of
     *  eval_allocs_ with the same index. */
    struct Candidate {
        ActionKind kind = ActionKind::kHold;
        double total_cpu = 0.0;

        bool
        IsDown() const
        {
            return kind == ActionKind::kScaleDown ||
                   kind == ActionKind::kScaleDownBatch;
        }
        bool IsHold() const { return kind == ActionKind::kHold; }
    };

    /** Builds the Table-1 candidate action set into @p cands, writing
     *  each candidate's clamped allocation straight into the matching
     *  row of eval_allocs_ (which ends with one row per candidate). */
    void BuildCandidates(const IntervalObservation& obs,
                         const std::vector<double>& alloc,
                         const Application& app,
                         std::vector<Candidate>& cands);

    /** AutoScaleCons-style utilization stepping (warm-up and the
     *  degraded heuristic); @p aggressive grows every tier. */
    std::vector<double> UtilStep(const IntervalObservation& ref,
                                 const std::vector<double>& alloc,
                                 const Application& app,
                                 bool aggressive) const;

    /** Never null; rebindable (see RebindModel). */
    HybridModel* model_;
    SchedulerConfig cfg_;
    MetricWindow window_;
    TelemetryGuard guard_;

    /** The candidate allocations of the interval's Evaluate call,
     *  one row per candidate. Rows are reused across intervals, and a
     *  row a shorter candidate set does not need waits in spare_rows_,
     *  so steady-state decisions allocate no row whatever the count
     *  (the model reuses its tensors too; see CnnEvalWorkspace). */
    std::vector<std::vector<double>> eval_allocs_;
    std::vector<std::vector<double>> spare_rows_;

    /** Tiers scaled down in each of the last kVictimWindow intervals,
     *  a ring whose oldest slot the next interval overwrites. */
    std::array<std::vector<int>, kVictimWindow> recent_victims_;
    size_t victims_next_ = 0;

    double last_pred_p99_ = -1.0;
    double last_pred_pv_ = -1.0;
    int healthy_streak_ = 0;
    /** Prediction made for the interval being observed next. */
    double pending_pred_p99_ = -1.0;
    int consecutive_violations_ = 0;
    int mispredictions_ = 0;
    bool trust_reduced_ = false;

    /** Decisions made since Reset() (trace interval index). */
    int interval_idx_ = 0;
    /** Telemetry sinks (not owned; may be null). */
    DecisionTrace* trace_ = nullptr;
    MetricsRegistry* metrics_ = nullptr;
};

} // namespace sinan

#endif // SINAN_CORE_SCHEDULER_H
