#include "sim/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "common/parse.h"

namespace sinan {

namespace {

std::string
Trim(const std::string& s)
{
    size_t b = s.find_first_not_of(" \t");
    size_t e = s.find_last_not_of(" \t");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

[[noreturn]] void
Bad(const std::string& what, const std::string& text)
{
    throw std::invalid_argument("ParseFaultSpec: " + what + " in '" +
                                text + "'");
}

/**
 * One numeric cell through the strict parser (common/parse.h). The
 * grammar allows blanks around its tokens, so the cell is trimmed
 * first. @p field names a double cell in the non-finite error.
 */
template <typename T>
T
Number(const std::string& cell, const std::string& ctx,
       const char* field = "number")
{
    const std::string t = Trim(cell);
    const std::string noun =
        std::is_integral_v<T> ? "integer" : "number";
    T v{};
    switch (ParseNumber(t, &v)) {
    case ParseStatus::kOk:
        return v;
    case ParseStatus::kOutOfRange:
        Bad(noun + " '" + t + "' out of range", ctx);
    case ParseStatus::kNonFinite:
        Bad(std::string(field) + " must be finite", ctx);
    case ParseStatus::kMalformed:
        break;
    }
    Bad(t.empty() ? "empty number" : "bad " + noun + " '" + t + "'", ctx);
}

FaultKind
ParseKind(const std::string& word, const std::string& ctx)
{
    if (word == "stall")
        return FaultKind::kTierStall;
    if (word == "caploss")
        return FaultKind::kCapacityLoss;
    if (word == "spike")
        return FaultKind::kLatencySpike;
    if (word == "steal")
        return FaultKind::kCpuSteal;
    if (word == "drop")
        return FaultKind::kTelemetryDrop;
    if (word == "delay")
        return FaultKind::kTelemetryDelay;
    if (word == "nan")
        return FaultKind::kTelemetryNan;
    if (word == "flash")
        return FaultKind::kFlashCrowd;
    Bad("unknown fault kind '" + word + "'", ctx);
}

double
DefaultMagnitude(FaultKind kind)
{
    switch (kind) {
    case FaultKind::kCapacityLoss:
    case FaultKind::kCpuSteal:
        return 0.5;
    case FaultKind::kLatencySpike:
        return 500.0; // ms
    case FaultKind::kFlashCrowd:
        return 2.0; // rate multiplier
    default:
        return 0.0;
    }
}

FaultEvent
ParseEvent(const std::string& text)
{
    FaultEvent ev;
    const std::string t = Trim(text);
    const size_t at = t.find('@');
    if (at == std::string::npos)
        Bad("missing '@start'", t);
    ev.kind = ParseKind(Trim(t.substr(0, at)), t);
    ev.magnitude = DefaultMagnitude(ev.kind);

    std::string rest = t.substr(at + 1);
    std::vector<std::string> params;
    const size_t colon = rest.find(':');
    if (colon != std::string::npos) {
        params = SplitFields(rest.substr(colon + 1), ',');
        rest = rest.substr(0, colon);
    }
    const size_t plus = rest.find('+');
    if (plus != std::string::npos) {
        ev.start = Number<int64_t>(rest.substr(0, plus), t);
        ev.duration = Number<int64_t>(rest.substr(plus + 1), t);
    } else {
        ev.start = Number<int64_t>(rest, t);
    }
    if (ev.start < 0)
        Bad("start must be >= 0", t);
    if (ev.duration < 1)
        Bad("duration must be >= 1", t);

    for (const std::string& field : params) {
        const std::string p = Trim(field);
        // Like an empty event: ",,", a trailing ',' or a bare ':' is a
        // typo, not a parameter.
        if (p.empty())
            Bad("empty parameter", t);
        const size_t eq = p.find('=');
        if (eq == std::string::npos)
            Bad("parameter '" + p + "' needs key=value", t);
        const std::string key = Trim(p.substr(0, eq));
        const std::string val = p.substr(eq + 1);
        if (key == "tier") {
            const int64_t tier = Number<int64_t>(val, t);
            if (tier < -1 ||
                tier > std::numeric_limits<int>::max())
                Bad("tier out of range", t);
            ev.tier = static_cast<int>(tier);
            ev.tier_hi = -1;
        } else if (key == "tiers") {
            const std::string range = Trim(val);
            const size_t dash = range.find('-');
            if (dash == std::string::npos || dash == 0)
                Bad("tiers needs a 'lo-hi' range", t);
            const int64_t lo = Number<int64_t>(range.substr(0, dash), t);
            const int64_t hi = Number<int64_t>(range.substr(dash + 1), t);
            if (lo < 0 || hi < lo ||
                hi > std::numeric_limits<int>::max())
                Bad("tiers range must satisfy 0 <= lo <= hi", t);
            ev.tier = static_cast<int>(lo);
            ev.tier_hi = static_cast<int>(hi);
        } else if (key == "jitter") {
            const int64_t jit = Number<int64_t>(val, t);
            if (jit < 0)
                Bad("jitter must be >= 0", t);
            ev.jitter = jit;
        } else if (key == "mag") {
            ev.magnitude = Number<double>(val, t, "mag");
        } else {
            Bad("unknown parameter '" + key + "'", t);
        }
    }
    if (ev.jitter != 0 && ev.tier_hi < 0)
        Bad("jitter requires a tiers= group", t);
    // ActiveAt() and EndInterval() compute start + GroupSpan() +
    // duration, so that sum (jitter x span included) must fit int64.
    const int64_t room =
        std::numeric_limits<int64_t>::max() - ev.start;
    const int64_t staggers = ev.tier >= 0 && ev.tier_hi > ev.tier
                                 ? ev.tier_hi - ev.tier
                                 : 0;
    if (ev.duration > room ||
        (staggers > 0 && ev.jitter > (room - ev.duration) / staggers))
        Bad("event ends beyond the int64 interval range", t);

    switch (ev.kind) {
    case FaultKind::kCapacityLoss:
    case FaultKind::kCpuSteal:
        if (!(ev.magnitude > 0.0) || ev.magnitude > 1.0)
            Bad("mag must be in (0, 1]", t);
        break;
    case FaultKind::kLatencySpike:
    case FaultKind::kFlashCrowd:
        if (!(ev.magnitude > 0.0))
            Bad("mag must be > 0", t);
        break;
    default:
        break;
    }
    return ev;
}

} // namespace

const char*
ToString(FaultKind kind)
{
    switch (kind) {
    case FaultKind::kTierStall:
        return "stall";
    case FaultKind::kCapacityLoss:
        return "caploss";
    case FaultKind::kLatencySpike:
        return "spike";
    case FaultKind::kCpuSteal:
        return "steal";
    case FaultKind::kTelemetryDrop:
        return "drop";
    case FaultKind::kTelemetryDelay:
        return "delay";
    case FaultKind::kTelemetryNan:
        return "nan";
    case FaultKind::kFlashCrowd:
        return "flash";
    }
    return "unknown";
}

std::string
FormatFaultEvent(const FaultEvent& event)
{
    std::string out = ToString(event.kind);
    out += '@';
    out += std::to_string(event.start);
    if (event.duration != 1) {
        out += '+';
        out += std::to_string(event.duration);
    }
    std::string params;
    if (event.tier_hi != -1) {
        params += "tiers=" + std::to_string(event.tier) + "-" +
                  std::to_string(event.tier_hi);
    } else if (event.tier != -1) {
        params += "tier=" + std::to_string(event.tier);
    }
    if (event.jitter != 0) {
        if (!params.empty())
            params += ',';
        params += "jitter=" + std::to_string(event.jitter);
    }
    if (event.magnitude != DefaultMagnitude(event.kind)) {
        if (!params.empty())
            params += ',';
        // Shortest representation that strtod parses back exactly;
        // integral magnitudes get plain form ("250", not "2.5e+02").
        char buf[40];
        const double mag = event.magnitude;
        if (mag == std::floor(mag) && std::fabs(mag) < 1e15) {
            std::snprintf(buf, sizeof(buf), "%.0f", mag);
        } else {
            for (int prec = 1; prec <= 17; ++prec) {
                std::snprintf(buf, sizeof(buf), "%.*g", prec, mag);
                if (std::strtod(buf, nullptr) == mag)
                    break;
            }
        }
        params += "mag=";
        params += buf;
    }
    if (!params.empty()) {
        out += ':';
        out += params;
    }
    return out;
}

std::string
FormatFaultSpec(const FaultSchedule& schedule)
{
    std::string out;
    for (const FaultEvent& event : schedule.events) {
        if (!out.empty())
            out += ';';
        out += FormatFaultEvent(event);
    }
    return out;
}

int64_t
FaultSchedule::EndInterval() const
{
    int64_t end = 0;
    for (const FaultEvent& e : events)
        end = std::max(end, e.start + e.GroupSpan() + e.duration);
    return end;
}

FaultSchedule
ParseFaultSpec(const std::string& spec)
{
    FaultSchedule schedule;
    const std::string t = Trim(spec);
    if (t.empty())
        throw std::invalid_argument("ParseFaultSpec: empty spec");
    if (t.rfind("chaos:", 0) == 0) {
        const std::string name = Trim(t.substr(6));
        const ChaosScenario* sc = FindChaosScenario(name);
        if (!sc) {
            std::string names;
            for (const ChaosScenario& s : ChaosScenarios())
                names += (names.empty() ? "" : ", ") + s.name;
            throw std::invalid_argument(
                "ParseFaultSpec: unknown chaos scenario '" + name +
                "' (known: " + names + ")");
        }
        return ParseFaultSpec(sc->spec);
    }
    for (const std::string& field : SplitFields(t, ';')) {
        const std::string ev = Trim(field);
        // An empty segment (";;", trailing ";") is a typo, not an
        // empty event — reject it rather than silently run fewer
        // faults than the user wrote.
        if (ev.empty())
            Bad("empty event", t);
        schedule.events.push_back(ParseEvent(ev));
    }
    return schedule;
}

void
ValidateFaultSchedule(const FaultSchedule& schedule, int n_tiers)
{
    for (const FaultEvent& e : schedule.events) {
        const int top = std::max(e.tier, e.tier_hi);
        if (top >= n_tiers) {
            throw std::invalid_argument(
                "FaultSchedule: event '" + std::string(ToString(e.kind)) +
                "' targets tier " + std::to_string(top) +
                " but the application has " + std::to_string(n_tiers) +
                " tiers");
        }
    }
}

const std::vector<ChaosScenario>&
ChaosScenarios()
{
    static const std::vector<ChaosScenario> scenarios = {
        {"tier-stall", "stall@10+5:tier=2",
         "one tier serves nothing for 5 intervals (fork/GC pause)"},
        {"capacity-loss", "caploss@10+6:tier=1,mag=0.6",
         "a tier silently loses 60% of its effective CPU"},
        {"cpu-steal", "steal@8+8:mag=0.4",
         "noisy neighbor steals 40% of every tier and inflates "
         "reported usage"},
        {"latency-spike", "spike@12+3:mag=800",
         "reported tail latency inflated by 800 ms for 3 intervals"},
        {"telemetry-blackout", "drop@10+6",
         "6 intervals of telemetry lost outright (watchdog must fire)"},
        {"telemetry-nan", "nan@10+4",
         "latency and usage fields arrive as NaN for 4 intervals"},
        {"stale-telemetry", "delay@10+5",
         "the pipeline redelivers the previous interval's observation"},
        {"rolling-outage", "drop@8+4;stall@8+4:tier=0;caploss@14+4:"
                           "tier=1,mag=0.5",
         "a blackout overlapping a stalled tier, then capacity loss"},
        {"correlated-outage", "caploss@8+6:tiers=1-3,jitter=1,mag=0.5;"
                              "nan@8+8:tiers=1-3,jitter=1",
         "rolling 50% capacity loss across tiers 1-3 whose usage "
         "telemetry turns NaN (graded-confidence stress)"},
        {"flash-crowd", "flash@10+5:mag=2",
         "arrival rate doubles for 5 intervals on top of the "
         "configured load shape"},
    };
    return scenarios;
}

const ChaosScenario*
FindChaosScenario(const std::string& name)
{
    for (const ChaosScenario& s : ChaosScenarios()) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

FaultInjector::FaultInjector(FaultSchedule schedule, double interval_s)
    : schedule_(std::move(schedule)), interval_s_(interval_s)
{
    if (interval_s <= 0.0)
        throw std::invalid_argument(
            "FaultInjector: interval_s must be > 0");
}

void
FaultInjector::Count(FaultKind kind)
{
    if (metrics_)
        metrics_->Inc(std::string("sinan.faults.") + ToString(kind));
}

void
FaultInjector::ApplyClusterFaults(int64_t interval, double now,
                                  Cluster& cluster)
{
    const int n = cluster.NumTiers();
    std::vector<double> factor(static_cast<size_t>(n), 1.0);
    // Per-tier activity (rather than per-event) so a correlated group
    // with jitter rolls across its members one stagger at a time.
    auto each_tier = [&](const FaultEvent& e, auto&& fn) {
        for (int t = 0; t < n; ++t) {
            if (e.ActiveForTier(t, interval))
                fn(t);
        }
    };
    for (const FaultEvent& e : schedule_.events) {
        if (!e.ActiveAt(interval))
            continue;
        switch (e.kind) {
        case FaultKind::kTierStall:
            each_tier(e, [&](int t) {
                cluster.InjectStall(t, now + interval_s_);
            });
            Count(e.kind);
            break;
        case FaultKind::kCapacityLoss:
        case FaultKind::kCpuSteal:
            each_tier(e, [&](int t) {
                factor[static_cast<size_t>(t)] *= 1.0 - e.magnitude;
            });
            Count(e.kind);
            break;
        case FaultKind::kFlashCrowd:
            // Applied workload-side (RateMultiplierAt); counted here
            // so the `sinan.faults.flash` counter advances once per
            // active interval like the cluster-side kinds.
            Count(e.kind);
            break;
        default:
            break; // telemetry-side kinds handled in FilterTelemetry
        }
    }
    // Recomputed from scratch each interval: expired events restore
    // full capacity without any explicit cleanup bookkeeping.
    for (int t = 0; t < n; ++t)
        cluster.SetCapacityFactor(t, factor[static_cast<size_t>(t)]);
}

TelemetryFate
FaultInjector::FilterTelemetry(int64_t interval,
                               IntervalObservation& obs)
{
    TelemetryFate fate = TelemetryFate::kDeliver;
    bool any = false;
    for (const FaultEvent& e : schedule_.events) {
        if (!e.ActiveAt(interval))
            continue;
        any = true;
        switch (e.kind) {
        case FaultKind::kLatencySpike:
            for (double& v : obs.latency_ms)
                v += e.magnitude;
            Count(e.kind);
            break;
        case FaultKind::kCpuSteal:
            // The thief's cycles show up in the cgroup accounting:
            // usage is inflated toward the configured limit.
            for (size_t t = 0; t < obs.tiers.size(); ++t) {
                if (!e.ActiveForTier(static_cast<int>(t), interval))
                    continue;
                TierMetrics& m = obs.tiers[t];
                m.cpu_used = std::min(
                    m.cpu_limit,
                    m.cpu_used + e.magnitude * m.cpu_limit);
            }
            break; // counted in ApplyClusterFaults
        case FaultKind::kTelemetryNan: {
            const double nan =
                std::numeric_limits<double>::quiet_NaN();
            if (e.tier >= 0) {
                // Tier-targeted poisoning: only the targeted tiers'
                // usage turns NaN; the latency percentiles stay real,
                // so a graded scheduler can keep using the QoS channel
                // while a binary one writes the frame off wholesale.
                for (size_t t = 0; t < obs.tiers.size(); ++t) {
                    if (e.ActiveForTier(static_cast<int>(t), interval))
                        obs.tiers[t].cpu_used = nan;
                }
            } else {
                for (double& v : obs.latency_ms)
                    v = nan;
                for (TierMetrics& m : obs.tiers)
                    m.cpu_used = nan;
            }
            Count(e.kind);
            break;
        }
        case FaultKind::kTelemetryDrop:
            fate = TelemetryFate::kDrop;
            Count(e.kind);
            break;
        case FaultKind::kTelemetryDelay:
            if (fate == TelemetryFate::kDeliver)
                fate = TelemetryFate::kDelay;
            Count(e.kind);
            break;
        default:
            break; // cluster-side kinds handled in ApplyClusterFaults
        }
    }
    if (any && metrics_)
        metrics_->Inc("sinan.faults.active_intervals");
    return fate;
}

double
FaultInjector::RateMultiplierAt(int64_t interval) const
{
    double mult = 1.0;
    for (const FaultEvent& e : schedule_.events) {
        if (e.kind == FaultKind::kFlashCrowd && e.ActiveAt(interval))
            mult *= e.magnitude;
    }
    return mult;
}

} // namespace sinan
