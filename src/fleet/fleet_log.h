/**
 * @file
 * Serializers for fleet runs, in the style of harness/telemetry_log.h:
 *
 *  - FleetTraceToCsv: the deterministic per-interval, per-cluster fleet
 *    trace (interval-major, cluster-minor in fixed shard order). This
 *    is the byte-identity surface of the fleet determinism contract —
 *    it contains no wall-clock measurement and must be identical at any
 *    thread count.
 *  - FleetSummaryToJson: the fleet report of per-cluster and fleet-wide
 *    aggregates, optionally followed by the wall-clock timing section
 *    (decision-latency percentiles, throughput), which is
 *    machine-dependent and therefore excluded when comparing bytes.
 */
#ifndef SINAN_FLEET_FLEET_LOG_H
#define SINAN_FLEET_FLEET_LOG_H

#include <string>

#include "fleet/fleet.h"

namespace sinan {

class TextAppender;

/** Deterministic per-cluster, per-interval fleet trace as CSV. */
std::string FleetTraceToCsv(const FleetResult& result);

/**
 * Fleet report as JSON: per-cluster aggregates, fleet-wide aggregates,
 * and — when @p include_timing — the wall-clock section (threads,
 * throughput, decision-latency percentiles). Tests compare bytes with
 * include_timing=false.
 */
std::string FleetSummaryToJson(const FleetResult& result,
                               bool include_timing = true);

/** Appends FleetTraceToCsv's bytes to @p out (string or file sink). */
void AppendFleetTrace(TextAppender& out, const FleetResult& result);

/** Appends FleetSummaryToJson's bytes to @p out. */
void AppendFleetSummaryJson(TextAppender& out, const FleetResult& result,
                            bool include_timing = true);

} // namespace sinan

#endif // SINAN_FLEET_FLEET_LOG_H
