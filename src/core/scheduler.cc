#include "core/scheduler.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

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
    // Applies the configured inference precision up front; throws with
    // a clear message if int8 is requested on an uncalibrated model.
    model.SetQuantMode(cfg_.quant);
}

void
SinanScheduler::Reset()
{
    window_.Clear();
    guard_.Reset();
    recent_victims_.clear();
    last_pred_p99_ = -1.0;
    last_pred_pv_ = -1.0;
    pending_pred_p99_ = -1.0;
    consecutive_violations_ = 0;
    mispredictions_ = 0;
    trust_reduced_ = false;
    healthy_streak_ = 0;
    interval_idx_ = 0;
}

std::vector<SinanScheduler::Candidate>
SinanScheduler::BuildCandidates(const IntervalObservation& obs,
                                const std::vector<double>& alloc,
                                const Application& app) const
{
    const int n = static_cast<int>(alloc.size());
    std::vector<Candidate> cands;
    // Hold, single-tier downs and ups, four batch downs, up-all and
    // up-victims: an upper bound, since phantoms are dropped.
    cands.reserve(2 * static_cast<size_t>(n) * kCpuSteps.size() + 7);

    auto clamp_alloc = [&](std::vector<double> a) {
        for (int i = 0; i < n; ++i)
            a[i] = std::clamp(a[i], app.tiers[i].min_cpu,
                              app.tiers[i].max_cpu);
        return a;
    };
    auto add = [&](std::vector<double> a, ActionKind kind) {
        Candidate c;
        c.alloc = clamp_alloc(std::move(a));
        c.kind = kind;
        // A non-hold candidate whose clamped allocation equals the
        // current one is a phantom: it would duplicate Hold, waste an
        // Evaluate slot, and — flagged as a down action — let a no-op
        // masquerade as a reclaim (e.g. a batch down where every
        // selected tier sits above kUtilCap).
        if (kind != ActionKind::kHold && c.alloc == alloc)
            return;
        c.total_cpu =
            std::accumulate(c.alloc.begin(), c.alloc.end(), 0.0);
        cands.push_back(std::move(c));
    };

    // Hold.
    add(alloc, ActionKind::kHold);

    // Scale Down: single tiers (skipping saturated ones).
    for (int i = 0; i < n; ++i) {
        if (obs.tiers[i].Utilization() > kUtilCap)
            continue;
        for (double step : kCpuSteps) {
            if (alloc[i] - step < app.tiers[i].min_cpu - 1e-9)
                continue;
            std::vector<double> a = alloc;
            a[i] -= step;
            add(std::move(a), ActionKind::kScaleDown);
        }
    }

    // Scale Down Batch: the k least-utilized tiers by 10%.
    {
        std::vector<int> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](int x, int y) {
            return obs.tiers[x].Utilization() < obs.tiers[y].Utilization();
        });
        for (int k : {2, n / 4, n / 2, n}) {
            if (k < 2 || k > n)
                continue;
            std::vector<double> a = alloc;
            for (int j = 0; j < k; ++j) {
                const int tier = order[j];
                if (obs.tiers[tier].Utilization() > kUtilCap)
                    continue;
                a[tier] *= 1.0 - kBatchDownRatio;
            }
            add(std::move(a), ActionKind::kScaleDownBatch);
        }
    }

    // Scale Up: single tiers.
    for (int i = 0; i < n; ++i) {
        for (double step : kCpuSteps) {
            std::vector<double> a = alloc;
            a[i] += step;
            add(std::move(a), ActionKind::kScaleUp);
        }
    }

    // Scale Up All.
    {
        std::vector<double> a = alloc;
        for (int i = 0; i < n; ++i)
            a[i] = a[i] * (1.0 + kUpAllRatio) + 0.2;
        add(std::move(a), ActionKind::kScaleUpAll);
    }

    // Scale Up Victims: tiers scaled down within the look-back window.
    if (!recent_victims_.empty()) {
        std::vector<bool> victim(n, false);
        bool any = false;
        for (const auto& tiers : recent_victims_) {
            for (int t : tiers) {
                victim[t] = true;
                any = true;
            }
        }
        if (any) {
            std::vector<double> a = alloc;
            for (int i = 0; i < n; ++i) {
                if (victim[i])
                    a[i] += kCpuSteps.back();
            }
            add(std::move(a), ActionKind::kScaleUpVictims);
        }
    }
#ifndef SINAN_DISABLE_DCHECKS
    // Postcondition: every candidate stays within the per-tier action
    // bounds of Table 1 — clamp_alloc guarantees it, and the contract
    // keeps any future candidate generator honest.
    for (const Candidate& c : cands) {
        SINAN_DCHECK_EQ(c.alloc.size(), alloc.size());
        for (int i = 0; i < n; ++i) {
            SINAN_DCHECK_BOUNDS(c.alloc[i], app.tiers[i].min_cpu - 1e-9,
                                app.tiers[i].max_cpu + 1e-9);
        }
    }
#endif
    return cands;
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
        assess = guard_.Assess(obs, cfg_.uncertainty.decay);
    } else {
        assess.health = guard_.Classify(obs);
        assess.latency_fresh = assess.health == TelemetryHealth::kFresh;
        assess.confidence = assess.latency_fresh ? 1.0 : 0.0;
    }
    const bool fresh = assess.health == TelemetryHealth::kFresh;
    const bool graded = !fresh && cfg_.uncertainty.enabled &&
                        assess.confidence >= cfg_.uncertainty.floor &&
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
    // stale confidence until the ladder takes over.
    const int silent = fresh ? 0 : guard_.SilentIntervals() + 1;
    // The uncertainty margins widen only the graded filter: the blind
    // ladder keeps the fresh margins and rejects every reclaim instead.
    const double umargin = graded ? cfg_.uncertainty.margin_frac * qos *
                                        (1.0 - assess.confidence)
                                  : 0.0;
    const double pv_widen =
        graded ? cfg_.uncertainty.margin_frac * (1.0 - assess.confidence)
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
    std::vector<int> victims;
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
        cands = BuildCandidates(*ref, alloc, app);
        eval_allocs_.resize(cands.size());
        for (size_t i = 0; i < cands.size(); ++i)
            eval_allocs_[i] = cands[i].alloc;
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
                                kPostDownUtilCap *
                                    cands[i].alloc[j];
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
            chosen = cands[best].alloc;
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
        if (!blind) {
            for (int i = 0; i < n; ++i) {
                if (chosen[i] < alloc[i] - 1e-9)
                    victims.push_back(i);
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
        recent_victims_.clear();
    } else {
        recent_victims_.push_back(std::move(victims));
        while (static_cast<int>(recent_victims_.size()) >
               kVictimWindow)
            recent_victims_.pop_front();
    }

    // Metrics before the trace: the trace takes each prediction's
    // latency vector by move.
    if (metrics_) {
        MetricsRegistry& m = *metrics_;
        m.Inc("sinan.scheduler.decisions");
        if (scored)
            m.Inc("sinan.scheduler.predictions");
        if (mispredicted)
            m.Inc("sinan.scheduler.mispredictions");
        if (trust_lost)
            m.Inc("sinan.scheduler.trust_lost");
        if (trust_restored)
            m.Inc("sinan.scheduler.trust_restored");
        if (!fresh) {
            m.Inc(blind ? "sinan.scheduler.degraded"
                        : "sinan.scheduler.uncertain");
            m.Inc(std::string("sinan.scheduler.telemetry.") +
                  ToString(assess.health));
        }
        if (const char* name = KindCounter(kind))
            m.Inc(name);
        if (kind == DecisionKind::kEscalatedFallback)
            m.Inc("sinan.scheduler.escalations");
        if (latency_trusted) {
            m.Observe("sinan.scheduler.observed_p99_ms", ref->P99(),
                      LatencyBounds());
        }
        if (fresh) {
            m.Set("sinan.scheduler.trust_reduced",
                  trust_reduced_ ? 1.0 : 0.0);
            m.Set("sinan.scheduler.mispredictions_current",
                  mispredictions_);
        }
        m.Set("sinan.scheduler.silent_intervals", silent);
        m.Set("sinan.scheduler.healthy_streak", healthy_streak_);
        // The confidence the interval was decided at (the trace's
        // column), on every interval once the graded policy is on.
        if (cfg_.uncertainty.enabled)
            m.Set("sinan.scheduler.confidence", assess.confidence);
        if (model_path) {
            m.Inc("sinan.scheduler.candidates", cands.size());
            std::array<uint64_t, kOutcomeKinds> counts{};
            for (const CandidateOutcome o : outcomes)
                ++counts[static_cast<size_t>(o)];
            for (size_t k = 0; k < kOutcomeKinds; ++k) {
                if (counts[k] > 0)
                    m.Inc(std::string("sinan.scheduler.outcome.") +
                              ToString(static_cast<CandidateOutcome>(k)),
                          counts[k]);
            }
            // Predictions on the blind ladder's frozen picture stay out
            // of the prediction histograms.
            if (!blind) {
                FixedHistogram& p99_hist = m.HistogramFor(
                    "sinan.scheduler.pred_p99_ms", LatencyBounds());
                FixedHistogram& pv_hist = m.HistogramFor(
                    "sinan.scheduler.pred_p_violation",
                    ProbabilityBounds());
                for (const Prediction& p : preds) {
                    p99_hist.Observe(p.P99());
                    pv_hist.Observe(p.p_violation);
                }
            }
            if (best >= 0) {
                m.Inc(std::string("sinan.scheduler.chosen.") +
                      ToString(cands[best].kind));
            } else {
                m.Inc("sinan.scheduler.no_feasible");
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
