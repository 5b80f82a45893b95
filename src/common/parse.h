/**
 * @file
 * The one strict text-to-number parser. Every numeric token read from
 * text (sinan_sim flags, the `--fleet-shard` and `--faults` grammars,
 * SINAN_THREADS) goes through ParseNumber, so all of them accept and
 * reject the same spellings.
 *
 * The whole token is the number. Rejected: the empty token, leading
 * whitespace and a '+' sign (a quoted " 5" or a stray '+' is a
 * scripting bug), trailing characters ("5x"), any value outside the
 * target type (never saturated or wrapped, as strto* would), for
 * unsigned targets any '-', and for double a non-finite result.
 */
#ifndef SINAN_COMMON_PARSE_H
#define SINAN_COMMON_PARSE_H

#include <cstdint>
#include <string>
#include <vector>

namespace sinan {

/** kOutOfRange covers "1e999" and "1e-310" too; kNonFinite is "nan",
 *  "inf" or "-inf" for a double target. */
enum class ParseStatus : uint8_t { kOk, kMalformed, kOutOfRange, kNonFinite };

/**
 * Parses @p text as a T (double, int, int64_t or uint64_t). On failure
 * @p out is untouched and the status says why; each caller raises its
 * own located error.
 */
template <typename T>
ParseStatus ParseNumber(const std::string& text, T* out);

/** Splits @p text at every @p sep, keeping empty fields ("a,,b" and
 *  "a," have an empty one) for the caller to reject; "" is one field. */
std::vector<std::string> SplitFields(const std::string& text, char sep);

} // namespace sinan

#endif // SINAN_COMMON_PARSE_H
