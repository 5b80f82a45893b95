/**
 * @file
 * Execution logs, mirroring the paper artifact's output format: per
 * decision interval, the system's performance and resource telemetry
 * (CPU usage and end-to-end tail latencies "collected periodically over
 * the execution's duration"), written as CSV.
 */
#ifndef SINAN_HARNESS_RUNLOG_H
#define SINAN_HARNESS_RUNLOG_H

#include <string>

#include "harness/harness.h"

namespace sinan {

class TextAppender;

/** Serializes a run's timeline to CSV (header + one row per interval). */
std::string RunLogToCsv(const RunResult& result,
                        const Application& app);

/** Appends RunLogToCsv's bytes to @p out (string or file sink). */
void AppendRunLog(TextAppender& out, const RunResult& result,
                  const Application& app);

/** Writes RunLogToCsv's bytes to @p path through a TextFile (parents
 *  created; throws std::runtime_error on a failed open or write). */
void WriteRunLog(const std::string& path, const RunResult& result,
                 const Application& app);

} // namespace sinan

#endif // SINAN_HARNESS_RUNLOG_H
