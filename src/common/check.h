/**
 * @file
 * Contract-checking macros used across the tree.
 *
 * Every invariant the compiler cannot see — tensor shapes flowing
 * through the CNN/GBT hybrid, allocation vectors staying within
 * per-tier bounds, digests sealed before percentile queries — is
 * asserted with one of these macros instead of a bare `assert(...)` or
 * an ad-hoc `throw`. A failed check produces a formatted fatal
 * diagnostic carrying the macro name, the failed expression, the
 * operand values, and the file:line of the contract:
 *
 *     SINAN_CHECK_EQ failed: a.Dim(1) == b.Dim(0) (7 vs 9)
 *         at src/tensor/tensor.cc:201
 *
 * Failure semantics: the diagnostic is raised as a
 * `sinan::ContractViolation`, which derives from
 * `std::invalid_argument`. Production code never catches it, so a
 * violated contract terminates the process with the diagnostic on
 * stderr (via the verbose terminate handler) — this is what the
 * contract death tests in `tests/contracts_test.cc` pin down. Setting
 * the `SINAN_CHECK_ABORT` environment variable makes a failed check
 * print the diagnostic and `abort()` directly instead of unwinding,
 * for debugging with a core dump or running under a signal-based
 * harness.
 *
 * Unlike `assert`, every check is ON in `NDEBUG`/Release builds —
 * ctest runs Release, so a contract that vanished under `NDEBUG` would
 * never be exercised (this is why the analyzer bans raw `assert(`; see
 * tools/analyze/).
 */
#ifndef SINAN_COMMON_CHECK_H
#define SINAN_COMMON_CHECK_H

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace sinan {

/**
 * Raised by a failed SINAN_CHECK. Derives from std::invalid_argument
 * so pre-contract call sites (and tests) that classified bad inputs as
 * invalid_argument keep working; uncaught it terminates the process
 * with the formatted diagnostic.
 */
class ContractViolation : public std::invalid_argument {
  public:
    explicit ContractViolation(const std::string& what_arg)
        : std::invalid_argument(what_arg)
    {
    }
};

namespace check_detail {

/** Formats the diagnostic and raises it (or aborts, see file docs). */
[[noreturn]] void Fail(const char* macro, const char* expr,
                       const char* file, int line,
                       const std::string& detail);

/** Renders a shape vector as "[2, 3, 5]". */
std::string FormatShape(const std::vector<int>& shape);

/** Stringifies one operand for the "(a vs b)" diagnostic detail. */
template <typename T>
std::string
Repr(const T& v)
{
    std::ostringstream o;
    o << v;
    return o.str();
}

/**
 * How a checked operand of type @p T is held and passed: scalars by
 * value, so the hot path never stores one to the stack just to keep
 * an address for the failure path; anything else by reference.
 */
template <typename T>
using Operand = std::conditional_t<std::is_scalar_v<T>, T, const T&>;

/** Failure path of the binary comparisons (cold, out of line). */
template <typename A, typename B>
[[noreturn, gnu::cold, gnu::noinline]] void
FailOp(const char* macro, const char* expr, const char* file, int line,
       Operand<A> a, Operand<B> b)
{
    Fail(macro, expr, file, line, "(" + Repr(a) + " vs " + Repr(b) + ")");
}

/** Failure path of SINAN_CHECK_BOUNDS (cold, out of line). */
template <typename V, typename L, typename H>
[[noreturn, gnu::cold, gnu::noinline]] void
FailBounds(const char* expr, const char* file, int line, Operand<V> v,
           Operand<L> lo, Operand<H> hi)
{
    Fail("SINAN_CHECK_BOUNDS", expr, file, line,
         "(" + Repr(v) + " outside [" + Repr(lo) + ", " + Repr(hi) + "])");
}

} // namespace check_detail
} // namespace sinan

/** Fatal unless @p cond holds. */
#define SINAN_CHECK(cond)                                                  \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::sinan::check_detail::Fail("SINAN_CHECK", #cond, __FILE__,    \
                                        __LINE__, std::string());          \
        }                                                                  \
    } while (0)

/** SINAN_CHECK with a streamed detail message (built only on failure). */
#define SINAN_CHECK_MSG(cond, msg)                                         \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::ostringstream sinan_check_os_;                            \
            sinan_check_os_ << msg;                                        \
            ::sinan::check_detail::Fail("SINAN_CHECK", #cond, __FILE__,    \
                                        __LINE__, sinan_check_os_.str()); \
        }                                                                  \
    } while (0)

// The failure calls' template-argument commas are parenthesized so a
// check can itself be a macro argument (EXPECT_THROW).
#define SINAN_CHECK_OP_(macro, op, a, b)                                   \
    do {                                                                   \
        using sinan_cta_ = std::remove_cvref_t<decltype(a)>;               \
        using sinan_ctb_ = std::remove_cvref_t<decltype(b)>;               \
        const ::sinan::check_detail::Operand<sinan_cta_> sinan_ca_ = (a);  \
        const ::sinan::check_detail::Operand<sinan_ctb_> sinan_cb_ = (b);  \
        if (!(sinan_ca_ op sinan_cb_)) {                                   \
            (::sinan::check_detail::FailOp<sinan_cta_, sinan_ctb_>)(       \
                macro, #a " " #op " " #b, __FILE__, __LINE__, sinan_ca_,   \
                sinan_cb_);                                                \
        }                                                                  \
    } while (0)

/** Binary comparisons that print both operand values on failure. */
#define SINAN_CHECK_EQ(a, b) SINAN_CHECK_OP_("SINAN_CHECK_EQ", ==, a, b)
#define SINAN_CHECK_NE(a, b) SINAN_CHECK_OP_("SINAN_CHECK_NE", !=, a, b)
#define SINAN_CHECK_LT(a, b) SINAN_CHECK_OP_("SINAN_CHECK_LT", <, a, b)
#define SINAN_CHECK_LE(a, b) SINAN_CHECK_OP_("SINAN_CHECK_LE", <=, a, b)
#define SINAN_CHECK_GT(a, b) SINAN_CHECK_OP_("SINAN_CHECK_GT", >, a, b)
#define SINAN_CHECK_GE(a, b) SINAN_CHECK_OP_("SINAN_CHECK_GE", >=, a, b)

/** Fatal unless lo <= v <= hi; prints the value and both bounds. */
#define SINAN_CHECK_BOUNDS(v, lo, hi)                                      \
    do {                                                                   \
        using sinan_ctv_ = std::remove_cvref_t<decltype(v)>;               \
        using sinan_ctlo_ = std::remove_cvref_t<decltype(lo)>;             \
        using sinan_cthi_ = std::remove_cvref_t<decltype(hi)>;             \
        const ::sinan::check_detail::Operand<sinan_ctv_> sinan_cv_ = (v);  \
        const ::sinan::check_detail::Operand<sinan_ctlo_> sinan_clo_ =     \
            (lo);                                                          \
        const ::sinan::check_detail::Operand<sinan_cthi_> sinan_chi_ =     \
            (hi);                                                          \
        if (!(sinan_clo_ <= sinan_cv_ && sinan_cv_ <= sinan_chi_)) {       \
            (::sinan::check_detail::FailBounds<sinan_ctv_, sinan_ctlo_,    \
                                               sinan_cthi_>)(              \
                #v " in [" #lo ", " #hi "]", __FILE__, __LINE__,           \
                sinan_cv_, sinan_clo_, sinan_chi_);                        \
        }                                                                  \
    } while (0)

/** Fatal when @p v is NaN or infinite (value printed). */
#define SINAN_CHECK_FINITE(v)                                              \
    do {                                                                   \
        const double sinan_cf_ = static_cast<double>(v);                   \
        if (!std::isfinite(sinan_cf_)) {                                   \
            ::sinan::check_detail::Fail(                                   \
                "SINAN_CHECK_FINITE", #v, __FILE__, __LINE__,              \
                "(value " + ::sinan::check_detail::Repr(sinan_cf_) +       \
                    ")");                                                  \
        }                                                                  \
    } while (0)

/**
 * Fatal unless the tensor-like expression (anything with a Shape()
 * returning a vector<int>-comparable) has exactly the listed dims,
 * e.g. SINAN_CHECK_SHAPE(dy, batch, out_features).
 */
#define SINAN_CHECK_SHAPE(t, ...)                                          \
    do {                                                                   \
        const std::vector<int> sinan_cw_{__VA_ARGS__};                     \
        if (!((t).Shape() == sinan_cw_)) {                                 \
            ::sinan::check_detail::Fail(                                   \
                "SINAN_CHECK_SHAPE", #t " is {" #__VA_ARGS__ "}",          \
                __FILE__, __LINE__,                                        \
                "(shape " +                                                \
                    ::sinan::check_detail::FormatShape((t).Shape()) +      \
                    " vs expected " +                                      \
                    ::sinan::check_detail::FormatShape(sinan_cw_) + ")");  \
        }                                                                  \
    } while (0)

#endif // SINAN_COMMON_CHECK_H
