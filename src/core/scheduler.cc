#include "core/scheduler.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <string>

#include "common/check.h"

namespace sinan {

namespace {

/** Histogram bucket bounds for predicted/observed tail latency (ms). */
const std::vector<double>&
LatencyBounds()
{
    static const std::vector<double> b = {1,   2,   5,    10,   20,  50,
                                          100, 200, 500,  1000, 2000};
    return b;
}

/** Histogram bucket bounds for violation probability. */
const std::vector<double>&
ProbabilityBounds()
{
    static const std::vector<double> b = {0.01, 0.02, 0.05, 0.1,
                                          0.2,  0.5,  0.9,  1.0};
    return b;
}

/** Registry counter bumped for each decision kind, or nullptr. */
const char*
KindCounter(DecisionKind kind)
{
    switch (kind) {
    case DecisionKind::kWarmup:
        return "sinan.scheduler.warmup";
    case DecisionKind::kFallback:
    case DecisionKind::kEscalatedFallback:
        return "sinan.scheduler.fallbacks";
    case DecisionKind::kModel:
        return "sinan.scheduler.model_decisions";
    case DecisionKind::kNoFeasibleUpscale:
        return nullptr; // counted as no_feasible with the candidates
    case DecisionKind::kDegradedModel:
        return "sinan.scheduler.degraded_model";
    case DecisionKind::kDegradedHeuristic:
        return "sinan.scheduler.degraded_heuristic";
    case DecisionKind::kDegradedHold:
        return "sinan.scheduler.degraded_hold";
    case DecisionKind::kWatchdogUpscale:
        return "sinan.scheduler.watchdog";
    case DecisionKind::kUncertainModel:
        return "sinan.scheduler.uncertain_model";
    }
    return nullptr;
}

/** Number of CandidateOutcome values (kNotCheapest is the last). */
constexpr size_t kOutcomeKinds =
    static_cast<size_t>(CandidateOutcome::kNotCheapest) + 1;
/** Number of DecisionKind values (kUncertainModel is the last). */
constexpr size_t kDecisionKinds =
    static_cast<size_t>(DecisionKind::kUncertainModel) + 1;
/** Number of ActionKind values (kScaleUpVictims is the last). */
constexpr size_t kActionKinds =
    static_cast<size_t>(ActionKind::kScaleUpVictims) + 1;
/** Number of TelemetryHealth values (kAbsent is the last). */
constexpr size_t kHealthKinds =
    static_cast<size_t>(TelemetryHealth::kAbsent) + 1;

/** Every registry name Decide() updates, built once per process so
 *  the per-decision metrics block builds no std::string. */
struct MetricNames {
    const std::string decisions = "sinan.scheduler.decisions";
    const std::string predictions = "sinan.scheduler.predictions";
    const std::string mispredictions = "sinan.scheduler.mispredictions";
    const std::string trust_lost = "sinan.scheduler.trust_lost";
    const std::string trust_restored = "sinan.scheduler.trust_restored";
    const std::string degraded = "sinan.scheduler.degraded";
    const std::string uncertain = "sinan.scheduler.uncertain";
    const std::string escalations = "sinan.scheduler.escalations";
    const std::string observed_p99 = "sinan.scheduler.observed_p99_ms";
    const std::string trust_reduced = "sinan.scheduler.trust_reduced";
    const std::string mispredictions_current =
        "sinan.scheduler.mispredictions_current";
    const std::string silent_intervals = "sinan.scheduler.silent_intervals";
    const std::string healthy_streak = "sinan.scheduler.healthy_streak";
    const std::string confidence = "sinan.scheduler.confidence";
    const std::string candidates = "sinan.scheduler.candidates";
    const std::string pred_p99 = "sinan.scheduler.pred_p99_ms";
    const std::string pred_pv = "sinan.scheduler.pred_p_violation";
    const std::string no_feasible = "sinan.scheduler.no_feasible";
    /** KindCounter's name per DecisionKind ("" for none). */
    std::array<std::string, kDecisionKinds> kind;
    std::array<std::string, kHealthKinds> telemetry;
    std::array<std::string, kOutcomeKinds> outcome;
    std::array<std::string, kActionKinds> chosen;

    MetricNames()
    {
        for (size_t k = 0; k < kDecisionKinds; ++k) {
            const char* name = KindCounter(static_cast<DecisionKind>(k));
            kind[k] = name ? name : "";
        }
        for (size_t k = 0; k < kHealthKinds; ++k)
            telemetry[k] = std::string("sinan.scheduler.telemetry.") +
                           ToString(static_cast<TelemetryHealth>(k));
        for (size_t k = 0; k < kOutcomeKinds; ++k)
            outcome[k] = std::string("sinan.scheduler.outcome.") +
                         ToString(static_cast<CandidateOutcome>(k));
        for (size_t k = 0; k < kActionKinds; ++k)
            chosen[k] = std::string("sinan.scheduler.chosen.") +
                        ToString(static_cast<ActionKind>(k));
    }
};

const MetricNames&
Names()
{
    static const MetricNames names;
    return names;
}

/** Scale-up-all (AWS step-scaling inspired), clamped to the maxima. */
std::vector<double>
UpscaleAll(const std::vector<double>& alloc, const Application& app)
{
    std::vector<double> a = alloc;
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = std::min(app.tiers[i].max_cpu,
                        a[i] * (1.0 + SinanScheduler::kUpAllRatio) + 0.2);
    return a;
}

} // namespace

SinanScheduler::SinanScheduler(HybridModel& model,
                               const SchedulerConfig& cfg)
    : model_(&model), cfg_(cfg), window_(model.Features()),
      guard_(model.Features().n_tiers)
{
}

void
SinanScheduler::Reset()
{
    window_.Clear();
    guard_.Reset();
    for (std::vector<int>& v : recent_victims_)
        v.clear();
    last_pred_p99_ = -1.0;
    last_pred_pv_ = -1.0;
    pending_pred_p99_ = -1.0;
    consecutive_violations_ = 0;
    mispredictions_ = 0;
    trust_reduced_ = false;
    healthy_streak_ = 0;
    interval_idx_ = 0;
}

void
SinanScheduler::BuildCandidates(const IntervalObservation& obs,
                                const std::vector<double>& alloc,
                                const Application& app,
                                std::vector<Candidate>& cands)
{
    const int n = static_cast<int>(alloc.size());
    cands.clear();
    // Hold, single-tier downs and ups, four batch downs, up-all and
    // up-victims: an upper bound, since phantoms are dropped.
    cands.reserve(2 * static_cast<size_t>(n) * kCpuSteps.size() + 7);

    // The current allocation clamped to the tier bounds, and its
    // running sums. A candidate row holds the current allocation up to
    // its first edited tier, so add() takes the clamped values and the
    // running sum there and clamps and adds only the rest, in the order
    // of a full std::accumulate (so total_cpu keeps its bytes).
    std::vector<double> base(n), prefix(n + 1, 0.0);
    for (int i = 0; i < n; ++i) {
        base[i] = std::clamp(alloc[i], app.tiers[i].min_cpu,
                             app.tiers[i].max_cpu);
        prefix[i + 1] = prefix[i] + base[i];
    }
    std::vector<double> util(n);
    for (int i = 0; i < n; ++i)
        util[i] = obs.tiers[i].Utilization();

    // Each candidate starts as a copy of the current allocation in the
    // next free row, is edited in place, and is kept by add(), which
    // clamps it; a dropped candidate leaves its row to the next one.
    auto start = [&]() -> std::vector<double>& {
        if (eval_allocs_.size() == cands.size()) {
            if (spare_rows_.empty()) {
                eval_allocs_.emplace_back();
            } else {
                eval_allocs_.push_back(std::move(spare_rows_.back()));
                spare_rows_.pop_back();
            }
        }
        std::vector<double>& a = eval_allocs_[cands.size()];
        a.assign(alloc.begin(), alloc.end());
        return a;
    };
    auto add = [&](ActionKind kind) {
        std::vector<double>& a = eval_allocs_[cands.size()];
        const int first = static_cast<int>(
            std::mismatch(a.begin(), a.end(), alloc.begin()).first -
            a.begin());
        std::copy(base.begin(), base.begin() + first, a.begin());
        double total = prefix[first];
        for (int i = first; i < n; ++i) {
            a[i] = std::clamp(a[i], app.tiers[i].min_cpu,
                              app.tiers[i].max_cpu);
            total += a[i];
        }
        // A non-hold candidate whose clamped allocation equals the
        // current one is a phantom: it would duplicate Hold, waste an
        // Evaluate slot, and — flagged as a down action — let a no-op
        // masquerade as a reclaim (e.g. a batch down where every
        // selected tier sits above kUtilCap).
        if (kind != ActionKind::kHold && a == alloc)
            return;
        cands.push_back({kind, total});
    };

    // Hold.
    start();
    add(ActionKind::kHold);

    // Scale Down: single tiers (skipping saturated ones).
    for (int i = 0; i < n; ++i) {
        if (util[i] > kUtilCap)
            continue;
        for (double step : kCpuSteps) {
            if (alloc[i] - step < app.tiers[i].min_cpu - 1e-9)
                continue;
            start()[i] -= step;
            add(ActionKind::kScaleDown);
        }
    }

    // Scale Down Batch: the k least-utilized tiers by 10%.
    {
        std::vector<int> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](int x, int y) { return util[x] < util[y]; });
        for (int k : {2, n / 4, n / 2, n}) {
            if (k < 2 || k > n)
                continue;
            std::vector<double>& a = start();
            for (int j = 0; j < k; ++j) {
                const int tier = order[j];
                if (util[tier] > kUtilCap)
                    continue;
                a[tier] *= 1.0 - kBatchDownRatio;
            }
            add(ActionKind::kScaleDownBatch);
        }
    }

    // Scale Up: single tiers.
    for (int i = 0; i < n; ++i) {
        for (double step : kCpuSteps) {
            start()[i] += step;
            add(ActionKind::kScaleUp);
        }
    }

    // Scale Up All.
    {
        std::vector<double>& a = start();
        for (int i = 0; i < n; ++i)
            a[i] = a[i] * (1.0 + kUpAllRatio) + 0.2;
        add(ActionKind::kScaleUpAll);
    }

    // Scale Up Victims: tiers scaled down within the look-back window.
    {
        std::vector<double>& a = start();
        bool any = false;
        for (const std::vector<int>& tiers : recent_victims_) {
            for (int t : tiers) {
                // Assigned, not added: a tier in several intervals'
                // lists grows once.
                a[t] = alloc[t] + kCpuSteps.back();
                any = true;
            }
        }
        if (any)
            add(ActionKind::kScaleUpVictims);
    }

    // Rows past the last candidate wait for a longer candidate set.
    while (eval_allocs_.size() > cands.size()) {
        spare_rows_.push_back(std::move(eval_allocs_.back()));
        eval_allocs_.pop_back();
    }
#ifndef SINAN_DISABLE_DCHECKS
    // Postcondition: every candidate stays within the per-tier action
    // bounds of Table 1 — add() guarantees it, and the contract keeps
    // any future candidate generator honest.
    for (const std::vector<double>& a : eval_allocs_) {
        SINAN_DCHECK_EQ(a.size(), alloc.size());
        for (int i = 0; i < n; ++i) {
            SINAN_DCHECK_BOUNDS(a[i], app.tiers[i].min_cpu - 1e-9,
                                app.tiers[i].max_cpu + 1e-9);
        }
    }
#endif
}

std::vector<double>
SinanScheduler::UtilStep(const IntervalObservation& ref,
                         const std::vector<double>& alloc,
                         const Application& app, bool aggressive) const
{
    const int n = static_cast<int>(alloc.size());
    std::vector<double> a = alloc;
    for (int i = 0; i < n; ++i) {
        const double util = ref.tiers[i].Utilization();
        if (util >= 0.5 || aggressive)
            a[i] *= 1.3;
        else if (util >= 0.3)
            a[i] *= 1.1;
        a[i] = std::clamp(a[i], app.tiers[i].min_cpu,
                          app.tiers[i].max_cpu);
    }
    return a;
}

std::vector<double>
SinanScheduler::Decide(const IntervalObservation& obs,
                       const std::vector<double>& alloc,
                       const Application& app)
{
    const int n = static_cast<int>(alloc.size());
    const double qos = model_->Features().qos_ms;
    // The allocation is the caller's own bookkeeping: a malformed one
    // is a programming error and throws. Malformed *telemetry* is an
    // environment fault and is routed through the graded or blind mode
    // below instead — no ContractViolation may escape because a
    // collection pipeline hiccuped.
    SINAN_CHECK_EQ(alloc.size(), app.tiers.size());
    for (int i = 0; i < n; ++i) {
        SINAN_CHECK_BOUNDS(alloc[i], app.tiers[i].min_cpu - 1e-9,
                           app.tiers[i].max_cpu + 1e-9);
    }

    // ---- 1. assess the observation and pick the mode -----------------
    // Fresh telemetry runs the paper's pipeline. Anything else is
    // graded (uncertainty policy on, confidence at or above the floor,
    // a full window and a last-known-good picture to repair from) or
    // blind: the degradation ladder on the last-known-good picture.
    TelemetryAssessment assess;
    if (cfg_.uncertainty.enabled) {
        assess = guard_.Assess(obs, kStaleDecay);
    } else {
        assess.health = guard_.Classify(obs);
        assess.latency_fresh = assess.health == TelemetryHealth::kFresh;
        assess.confidence = assess.latency_fresh ? 1.0 : 0.0;
    }
    const bool fresh = assess.health == TelemetryHealth::kFresh;
    const bool graded = !fresh && cfg_.uncertainty.enabled &&
                        assess.confidence >= kConfidenceFloor &&
                        assess.confidence > 0.0 && guard_.HasLastGood() &&
                        window_.Ready();
    const bool blind = !fresh && !graded;

    // ---- 2. the interval's view --------------------------------------
    // The reference observation is the delivered frame (fresh), the
    // frame with its zero-confidence pieces imputed from the last good
    // one (graded), or the last good frame itself (blind; none before
    // the first good observation).
    IntervalObservation repaired;
    const IntervalObservation* ref = &obs;
    if (graded) {
        repaired = guard_.Repair(obs, assess);
        ref = &repaired;
    } else if (blind) {
        ref = guard_.HasLastGood() ? &guard_.LastGood() : nullptr;
    }
    // The evaluation window is a copy so that the decision (including
    // the model evaluation, the only step that can throw) runs before
    // any member is touched. Only a fresh frame is committed to the
    // history; a graded one is evaluated but never kept, and a stale
    // one already *is* the newest committed picture.
    MetricWindow window = window_;
    if (fresh || (graded && assess.health != TelemetryHealth::kStale))
        window.Push(*ref);
    // The QoS channel is actionable only when the latency percentiles
    // were genuinely delivered this interval.
    const bool latency_trusted = !blind && assess.latency_fresh;
    // Consecutive degraded intervals including this one; the guard
    // advances at commit, so a run of graded intervals keeps decaying
    // stale confidence until the ladder or the watchdog takes over.
    const int silent = fresh ? 0 : guard_.SilentIntervals() + 1;
    // The uncertainty margins widen only the graded filter: the blind
    // ladder keeps the fresh margins and rejects every reclaim instead.
    const double umargin = graded ? kUncertaintyMarginFrac * qos *
                                        (1.0 - assess.confidence)
                                  : 0.0;
    const double pv_widen =
        graded ? kUncertaintyMarginFrac * (1.0 - assess.confidence)
               : 0.0;

    // Trust bookkeeping runs on fresh intervals only (predictions made
    // on repaired or stale data are never graded) and is computed into
    // locals, written back at commit.
    const bool violated = latency_trusted && ref->P99() > qos;
    const bool scored = fresh && pending_pred_p99_ >= 0.0;
    const bool mispredicted =
        scored && pending_pred_p99_ <= qos && violated;
    int mispred = mispredictions_ + (mispredicted ? 1 : 0);
    bool trust_reduced = trust_reduced_;
    bool trust_lost = false;
    bool trust_restored = false;
    if (scored && !trust_reduced && mispred > kTrustThreshold) {
        trust_reduced = true;
        trust_lost = true;
    }
    // Only a fresh violation counts toward escalation. A delivered
    // healthy latency advances the streak in any mode; silence resets
    // it — a pre-outage streak must not authorize a reclaim the moment
    // telemetry returns.
    const int consecutive = !fresh     ? consecutive_violations_
                            : violated ? consecutive_violations_ + 1
                                       : 0;
    const int healthy =
        latency_trusted && ref->P99() <= kHealthyFrac * qos
            ? healthy_streak_ + 1
            : 0;
    // Trust restoration (the paper's counterpart to losing it): a
    // sustained healthy streak first decays the misprediction count,
    // then lifts the reduced-trust conservatism once the count is back
    // under the threshold.
    if (fresh && healthy > 0) {
        if (mispred > 0 && healthy % kTrustDecayEvery == 0)
            --mispred;
        if (trust_reduced && healthy >= kTrustRestoreHealthy &&
            mispred <= kTrustThreshold) {
            trust_reduced = false;
            trust_restored = true;
        }
    }

    DecisionKind kind = DecisionKind::kModel;
    std::vector<double> chosen;
    // Safety upscales forget the victims; every other exit records
    // this interval's (only the model path can scale down).
    bool clear_victims = false;
    double pred_p99 = -1.0;
    double pred_pv = -1.0;

    // Model-path products (traced and counted at commit).
    bool model_path = false;
    std::vector<Candidate> cands;
    std::vector<Prediction> preds;
    std::vector<CandidateOutcome> outcomes;
    int best = -1;
    double margin = -1.0;
    bool may_reclaim = false;

    // ---- 3. safety exits ---------------------------------------------
    if (blind && silent >= kWatchdogSilentAfter) {
        // Watchdog: after k consecutive silent intervals stop trusting
        // the frozen picture and grow everything until telemetry (or
        // the per-tier maxima) returns.
        kind = DecisionKind::kWatchdogUpscale;
        chosen = UpscaleAll(alloc, app);
        clear_victims = true;
    } else if (!window.Ready()) {
        // No full history window: conservative utilization stepping on
        // the reference keeps the cluster alive if the run starts
        // underprovisioned (fresh warm-up, or the ladder's heuristic);
        // with nothing ever seen, hold.
        kind = fresh ? DecisionKind::kWarmup
               : ref ? DecisionKind::kDegradedHeuristic
                     : DecisionKind::kDegradedHold;
        chosen = ref ? UtilStep(*ref, alloc, app, violated) : alloc;
    } else if (violated) {
        // An observed violation triggers an immediate blanket upscale;
        // a persistent fresh one escalates more aggressively and costs
        // the model trust. (The paper scales "to the max amount"; with
        // the simulator's large per-tier maxima a single escalation to
        // max dominates the max-CPU accounting, so we escalate
        // multiplicatively — it reaches the maxima within a few
        // intervals if the violation persists.)
        const bool escalate =
            fresh && consecutive >= kMaxFallbackAfter;
        if (escalate && !trust_reduced) {
            trust_reduced = true;
            trust_lost = true;
        }
        chosen = alloc;
        for (int i = 0; i < n; ++i) {
            // Saturated tiers get a stronger kick so the built-up queue
            // drains in as few intervals as possible.
            const bool hot = ref->tiers[i].Utilization() > 0.7;
            double factor = hot ? 1.5 : 1.0 + kUpAllRatio;
            double add = 0.2;
            if (escalate) {
                factor = 1.6;
                add = 0.4;
            }
            chosen[i] =
                std::min(app.tiers[i].max_cpu, chosen[i] * factor + add);
        }
        kind = escalate ? DecisionKind::kEscalatedFallback
                        : DecisionKind::kFallback;
        clear_victims = true;
    } else {
        // ---- 4. candidates and predictions ---------------------------
        model_path = true;
        BuildCandidates(*ref, alloc, app, cands);
        preds = model_->Evaluate(window, eval_allocs_);
        SINAN_CHECK_EQ(preds.size(), cands.size());
        for (const Prediction& p : preds) {
            // A NaN prediction would silently poison every margin
            // comparison below (NaN <= x is false, so the candidate is
            // rejected and the scheduler degrades to blanket upscaling
            // without ever reporting the model fault).
            SINAN_CHECK_FINITE(p.P99());
            SINAN_CHECK_BOUNDS(p.p_violation, 0.0, 1.0);
        }

        // ---- 5. filter -----------------------------------------------
        // Reduced trust doubles the latency margin; the graded mode
        // widens it (and p_V) further the less the frame is trusted.
        margin = std::min(model_->ValRmseSubQosMs(),
                          kMarginCapFrac * qos) *
                     (trust_reduced ? 2.0 : 1.0) +
                 umargin;
        // Hysteresis: only reclaim after a streak of comfortable
        // intervals (never while blind).
        may_reclaim = !blind && healthy >= kReclaimAfterHealthy;
        // Aggressiveness proportional to confidence: the CPU reclaim on
        // offer is capped at confidence times the largest step-down
        // among the candidates (it cannot bind at confidence 1).
        const double cur_total =
            std::accumulate(alloc.begin(), alloc.end(), 0.0);
        double max_down = 0.0;
        for (const Candidate& c : cands) {
            if (c.IsDown())
                max_down = std::max(max_down, cur_total - c.total_cpu);
        }
        const double down_budget = assess.confidence * max_down;

        int hold_idx = -1;
        outcomes.assign(cands.size(), CandidateOutcome::kNotCheapest);
        for (size_t i = 0; i < cands.size(); ++i) {
            if (cands[i].IsHold())
                hold_idx = static_cast<int>(i);
            if (cands[i].IsDown()) {
                // Shrinking a tier on a picture that may no longer hold
                // is how a blind manager causes its own violation.
                if (blind) {
                    outcomes[i] =
                        CandidateOutcome::kRejectedDegradedTelemetry;
                    continue;
                }
                if (!may_reclaim) {
                    outcomes[i] = CandidateOutcome::kRejectedHysteresis;
                    continue;
                }
                if (cur_total - cands[i].total_cpu >
                    down_budget + 1e-9) {
                    outcomes[i] =
                        CandidateOutcome::kRejectedUncertaintyStep;
                    continue;
                }
                // Reject downs that would immediately saturate a tier.
                bool saturates = false;
                for (int j = 0; j < n && !saturates; ++j) {
                    saturates = ref->tiers[j].cpu_used >
                                kPostDownUtilCap * eval_allocs_[i][j];
                }
                if (saturates) {
                    outcomes[i] =
                        CandidateOutcome::kRejectedPostDownSaturation;
                    continue;
                }
            }
            const bool latency_ok = preds[i].P99() <= qos - margin;
            const double pv = preds[i].p_violation + pv_widen;
            const bool prob_ok =
                cands[i].IsDown() ? pv < kPDown : pv < kPUp;
            if (!latency_ok) {
                outcomes[i] = CandidateOutcome::kRejectedLatencyMargin;
                continue;
            }
            if (!prob_ok) {
                outcomes[i] = CandidateOutcome::kRejectedViolationProb;
                continue;
            }
            if (best < 0 || cands[i].total_cpu < cands[best].total_cpu)
                best = static_cast<int>(i);
        }

        // ---- 6. pick -------------------------------------------------
        if (best >= 0) {
            outcomes[best] = CandidateOutcome::kChosen;
            kind = fresh  ? DecisionKind::kModel
                   : blind ? DecisionKind::kDegradedModel
                           : DecisionKind::kUncertainModel;
            chosen = eval_allocs_[best];
            pred_p99 = preds[best].P99();
            pred_pv = preds[best].p_violation;
        } else {
            // No acceptable action: scale everything up. Only the
            // fresh mode reports the hold candidate's prediction.
            kind = blind ? DecisionKind::kDegradedModel
                         : DecisionKind::kNoFeasibleUpscale;
            chosen = UpscaleAll(alloc, app);
            if (fresh && hold_idx >= 0) {
                pred_p99 = preds[hold_idx].P99();
                pred_pv = preds[hold_idx].p_violation;
            }
        }
    }
#ifndef SINAN_DISABLE_DCHECKS
    for (int i = 0; i < n; ++i) {
        SINAN_DCHECK_BOUNDS(chosen[i], app.tiers[i].min_cpu - 1e-9,
                            app.tiers[i].max_cpu + 1e-9);
    }
#endif

    // ---- 7. commit ---------------------------------------------------
    // Nothing above touched a member, so a throw out of any earlier
    // step leaves the scheduler exactly as it was (strong guarantee).
    mispredictions_ = mispred;
    trust_reduced_ = trust_reduced;
    consecutive_violations_ = consecutive;
    healthy_streak_ = healthy;
    pending_pred_p99_ = kind == DecisionKind::kModel ? pred_p99 : -1.0;
    last_pred_p99_ = pred_p99;
    last_pred_pv_ = pred_pv;
    if (fresh) {
        guard_.CommitFresh(obs);
        window_ = std::move(window);
    } else {
        guard_.CommitDegraded();
    }
    if (clear_victims) {
        for (std::vector<int>& v : recent_victims_)
            v.clear();
    } else {
        // This interval's victims replace the oldest interval's: the
        // tiers a non-blind model decision scaled down.
        std::vector<int>& victims = recent_victims_[victims_next_];
        victims_next_ = (victims_next_ + 1) % recent_victims_.size();
        victims.clear();
        if (model_path && !blind) {
            for (int i = 0; i < n; ++i) {
                if (chosen[i] < alloc[i] - 1e-9)
                    victims.push_back(i);
            }
        }
    }

    // Metrics, then the trace. Both only read this interval's
    // predictions; the trace copies each PercentileRow inline.
    if (metrics_) {
        MetricsRegistry& m = *metrics_;
        const MetricNames& names = Names();
        m.Inc(names.decisions);
        if (scored)
            m.Inc(names.predictions);
        if (mispredicted)
            m.Inc(names.mispredictions);
        if (trust_lost)
            m.Inc(names.trust_lost);
        if (trust_restored)
            m.Inc(names.trust_restored);
        if (!fresh) {
            m.Inc(blind ? names.degraded : names.uncertain);
            m.Inc(names.telemetry[static_cast<size_t>(assess.health)]);
        }
        if (const std::string& name =
                names.kind[static_cast<size_t>(kind)];
            !name.empty())
            m.Inc(name);
        if (kind == DecisionKind::kEscalatedFallback)
            m.Inc(names.escalations);
        if (latency_trusted)
            m.Observe(names.observed_p99, ref->P99(), LatencyBounds());
        if (fresh) {
            m.Set(names.trust_reduced, trust_reduced_ ? 1.0 : 0.0);
            m.Set(names.mispredictions_current, mispredictions_);
        }
        m.Set(names.silent_intervals, silent);
        m.Set(names.healthy_streak, healthy_streak_);
        // The confidence the interval was decided at (the trace's
        // column), on every interval once the graded policy is on.
        if (cfg_.uncertainty.enabled)
            m.Set(names.confidence, assess.confidence);
        if (model_path) {
            m.Inc(names.candidates, cands.size());
            std::array<uint64_t, kOutcomeKinds> counts{};
            for (const CandidateOutcome o : outcomes)
                ++counts[static_cast<size_t>(o)];
            for (size_t k = 0; k < kOutcomeKinds; ++k) {
                if (counts[k] > 0)
                    m.Inc(names.outcome[k], counts[k]);
            }
            // Predictions on the blind ladder's frozen picture stay out
            // of the prediction histograms.
            if (!blind) {
                FixedHistogram& p99_hist =
                    m.HistogramFor(names.pred_p99, LatencyBounds());
                FixedHistogram& pv_hist =
                    m.HistogramFor(names.pred_pv, ProbabilityBounds());
                for (const Prediction& p : preds) {
                    p99_hist.Observe(p.P99());
                    pv_hist.Observe(p.p_violation);
                }
            }
            if (best >= 0) {
                m.Inc(names.chosen[static_cast<size_t>(cands[best].kind)]);
            } else {
                m.Inc(names.no_feasible);
            }
        }
    }
    if (trace_) {
        DecisionTraceEntry& e = trace_->intervals.emplace_back();
        e.interval = interval_idx_;
        e.kind = kind;
        e.observed_p99_ms = latency_trusted ? ref->P99() : -1.0;
        e.violated = violated;
        e.telemetry = assess.health;
        e.silent_intervals = silent;
        e.trust_reduced = trust_reduced_;
        e.mispredictions = mispredictions_;
        e.healthy_streak = healthy_streak_;
        e.consecutive_violations = consecutive_violations_;
        e.trust_lost = trust_lost;
        e.trust_restored = trust_restored;
        e.confidence = assess.confidence;
        if (!fresh)
            e.tier_confidence = assess.tier_confidence;
        e.uncertainty_margin_ms = umargin;
        if (model_path) {
            e.margin_ms = margin;
            e.may_reclaim = may_reclaim;
            e.chosen = best;
            e.candidates.resize(cands.size());
            for (size_t i = 0; i < cands.size(); ++i) {
                CandidateTrace& ct = e.candidates[i];
                ct.latency_ms = preds[i].latency_ms;
                ct.kind = cands[i].kind;
                ct.outcome = outcomes[i];
                ct.total_cpu = cands[i].total_cpu;
                ct.p_violation = preds[i].p_violation;
            }
        }
    }
    ++interval_idx_;
    return chosen;
}

} // namespace sinan
