/**
 * @file
 * Per-file token passes of sinan_analyze: the seven legacy project
 * rules re-hosted on the token stream, the determinism-source audit,
 * and the header hygiene rules. Scope policy (which roots a rule
 * applies to, which files are blessed in-rule) lives here next to each
 * rule; per-file exceptions live in the allowlist and the timing
 * quarantine, applied by AnalyzeTree.
 */
#include "analyze.h"

#include <algorithm>

namespace sinan {
namespace analyze {

bool
FindingLess(const Finding& a, const Finding& b)
{
    if (a.path != b.path)
        return a.path < b.path;
    if (a.line != b.line)
        return a.line < b.line;
    return a.rule < b.rule;
}

const std::vector<RuleInfo>&
Rules()
{
    static const std::vector<RuleInfo> kRules = {
        {"no-std-rand",
         "rand()/std::rand share hidden global state; all randomness "
         "flows through common/rng.h so runs are replayable."},
        {"no-raw-assert",
         "assert() vanishes under NDEBUG and ctest runs Release; use "
         "SINAN_CHECK / SINAN_DCHECK (common/check.h)."},
        {"no-unordered-container",
         "unordered_{map,set} iteration order is implementation-"
         "defined and breaks byte-determinism on any log path; use "
         "std::map / std::set."},
        {"no-raw-thread",
         "every thread is owned by the shared pool in "
         "common/thread_pool; ad-hoc std::thread breaks the pool's "
         "determinism and TSan story."},
        {"narrowing-cast-in-header",
         "C-style numeric casts in public headers hide float<->int "
         "narrowing from -Wconversion; use static_cast."},
        {"missing-include-guard",
         "every header needs #ifndef/#define or #pragma once."},
        {"raw-simd-intrinsic",
         "vector intrinsics are confined to src/tensor/gemm_avx2.cc; "
         "everywhere else goes through the dispatched kernels so the "
         "scalar bit-parity contract stays auditable in one place."},
        {"no-random-device",
         "std::random_device is a nondeterministic entropy source; "
         "seeds come from configuration so runs are replayable."},
        {"wall-clock-read",
         "wall-clock reads outside the timing quarantine "
         "(tools/analyze/timing_quarantine.txt) can leak "
         "nondeterminism into telemetry; measurement code must be "
         "quarantined with a justification."},
        {"getenv-outside-config",
         "environment reads in src/ are confined to "
         "common/cpu_features.cc and the CLI so a run's behaviour is "
         "fully determined by its flags and seeds."},
        {"thread-local-outside-pool",
         "thread_local state outside common/thread_pool makes results "
         "depend on which worker ran a task."},
        {"volatile-outside-pool",
         "volatile is not a synchronization primitive; concurrency "
         "goes through the pool and std::atomic."},
        {"pointer-keyed-container",
         "std::map/std::set keyed by pointers iterate in allocation-"
         "address order, which varies run to run; key by index or id."},
        {"header-non-inline-definition",
         "non-inline, non-template function definitions at namespace "
         "scope in a header violate the ODR once the header has two "
         "includers; mark inline or move to a .cc."},
        {"missing-namespace-sinan",
         "every src/ header contributes to namespace sinan; a header "
         "without it leaks symbols into the global namespace."},
        {"layering-upward-include",
         "include edge points to a higher layer than the including "
         "directory (see tools/analyze/layers.txt); invert the "
         "dependency or move the shared type down."},
        {"layering-unknown-dir",
         "src/ directory is not declared in tools/analyze/layers.txt; "
         "add it to a layer."},
        {"include-cycle",
         "project headers include each other in a cycle."},
    };
    return kRules;
}

namespace {

bool
StartsWith(const std::string& s, const std::string& prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
PathContains(const std::string& path, const std::string& part)
{
    return path.find(part) != std::string::npos;
}

bool
IsIdent(const Token& t, const char* text)
{
    return t.kind == TokenKind::kIdent && t.text == text;
}

bool
IsPunct(const Token& t, const char* text)
{
    return t.kind == TokenKind::kPunct && t.text == text;
}

/** Matches `std :: name` ending at index @p i of `name`. */
bool
IsStdQualified(const std::vector<Token>& toks, size_t i)
{
    return i >= 2 && IsPunct(toks[i - 1], "::") &&
           IsIdent(toks[i - 2], "std");
}

class FilePass {
  public:
    FilePass(const FileContext& ctx, const std::vector<Token>& toks)
        : ctx_(ctx), toks_(toks)
    {
    }

    std::vector<Finding>
    Run()
    {
        const bool in_thread_pool =
            PathContains(ctx_.rel, "common/thread_pool");
        const bool in_simd_kernel =
            PathContains(ctx_.rel, "tensor/gemm_avx2.cc");
        const bool in_src = StartsWith(ctx_.rel, "src/");
        const bool getenv_blessed =
            ctx_.rel == "src/common/cpu_features.cc" ||
            StartsWith(ctx_.rel, "src/cli/");

        for (size_t i = 0; i < toks_.size(); ++i) {
            const Token& t = toks_[i];
            if (t.kind != TokenKind::kIdent)
                continue;
            const std::string& id = t.text;

            if ((id == "rand" || id == "srand") &&
                (NextIsPunct(i, "(") || IsStdQualified(toks_, i)))
                Add("no-std-rand", t.line,
                    "call to " + id + "(); use common/rng.h");
            if (id == "assert" && NextIsPunct(i, "("))
                Add("no-raw-assert", t.line,
                    "raw assert(); use SINAN_CHECK / SINAN_DCHECK");
            if (id == "unordered_map" || id == "unordered_set")
                Add("no-unordered-container", t.line,
                    "std::" + id + " has nondeterministic iteration "
                    "order; use the ordered container");
            if (!in_thread_pool && id == "thread" &&
                IsStdQualified(toks_, i) &&
                !(NextIsPunct(i, "::") &&
                  IsIdentAt(i + 2, "hardware_concurrency")))
                Add("no-raw-thread", t.line,
                    "raw std::thread; use the shared pool in "
                    "common/thread_pool.h");
            if (!in_simd_kernel && IsIntrinsic(id))
                Add("raw-simd-intrinsic", t.line,
                    "vector intrinsic '" + id + "' outside the "
                    "src/tensor intrinsics TU (gemm_avx2.cc)");
            if (id == "random_device")
                Add("no-random-device", t.line,
                    "std::random_device is nondeterministic; seed "
                    "from configuration");
            if (IsClockIdent(id))
                Add("wall-clock-read", t.line,
                    "wall-clock source '" + id + "' outside the "
                    "timing quarantine");
            if (in_src && !getenv_blessed &&
                (id == "getenv" || id == "secure_getenv"))
                Add("getenv-outside-config", t.line,
                    "getenv outside common/cpu_features.cc and "
                    "src/cli/");
            if (in_src && !in_thread_pool && id == "thread_local")
                Add("thread-local-outside-pool", t.line,
                    "thread_local outside common/thread_pool");
            if (in_src && !in_thread_pool && id == "volatile")
                Add("volatile-outside-pool", t.line,
                    "volatile outside common/thread_pool");
            if ((id == "map" || id == "set") &&
                IsStdQualified(toks_, i) && NextIsPunct(i, "<") &&
                PointerFirstArg(i + 1))
                Add("pointer-keyed-container", t.line,
                    "std::" + id + " keyed by a pointer type iterates "
                    "in address order");
        }

        if (ctx_.is_header && in_src)
            NumericCastPass();
        if (ctx_.is_header)
            IncludeGuardPass();
        if (ctx_.is_header)
            HeaderDefinitionPass();
        if (ctx_.is_header && in_src && !AnyNamespaceSinan())
            Add("missing-namespace-sinan", 1,
                "src/ header does not open namespace sinan");

        std::sort(findings_.begin(), findings_.end(), FindingLess);
        return std::move(findings_);
    }

  private:
    void
    Add(const char* rule, int line, std::string message)
    {
        Finding f;
        f.rule = rule;
        f.path = ctx_.rel;
        f.line = line;
        f.message = std::move(message);
        findings_.push_back(std::move(f));
    }

    bool
    IsIdentAt(size_t i, const char* text) const
    {
        return i < toks_.size() && IsIdent(toks_[i], text);
    }

    bool
    NextIsPunct(size_t i, const char* text) const
    {
        return i + 1 < toks_.size() && IsPunct(toks_[i + 1], text);
    }

    static bool
    IsIntrinsic(const std::string& id)
    {
        return StartsWith(id, "_mm_") || StartsWith(id, "_mm256_") ||
               StartsWith(id, "_mm512_") || StartsWith(id, "__m128") ||
               StartsWith(id, "__m256") || StartsWith(id, "__m512");
    }

    static bool
    IsClockIdent(const std::string& id)
    {
        return id == "steady_clock" || id == "system_clock" ||
               id == "high_resolution_clock" || id == "clock_gettime" ||
               id == "gettimeofday" || id == "timespec_get";
    }

    /** With toks_[open] == '<' after std::map/std::set: true when the
     *  first template argument is a pointer type ('*' at depth 1). */
    bool
    PointerFirstArg(size_t open) const
    {
        int depth = 1;
        for (size_t j = open + 1; j < toks_.size() && depth > 0; ++j) {
            const Token& t = toks_[j];
            if (t.kind != TokenKind::kPunct)
                continue;
            if (t.text == "<")
                ++depth;
            else if (t.text == ">")
                --depth;
            else if (t.text == ";" || t.text == "{")
                break; // not a template argument list after all
            else if (depth == 1 && t.text == ",")
                break; // end of the key argument
            else if (depth == 1 && t.text == "*")
                return true;
        }
        return false;
    }

    bool
    AnyNamespaceSinan() const
    {
        for (size_t i = 0; i + 1 < toks_.size(); ++i) {
            if (IsIdent(toks_[i], "namespace") &&
                IsIdent(toks_[i + 1], "sinan"))
                return true;
        }
        return false;
    }

    /**
     * C-style numeric casts in src/ headers, including namespace-
     * qualified forms like (std::size_t)x: a parenthesized run of
     * type tokens applied to an operand and not preceded by a call or
     * template-argument context.
     */
    void
    NumericCastPass()
    {
        static const std::set<std::string> kNumericTypes = {
            "int",      "float",    "double",   "long",     "short",
            "char",     "unsigned", "signed",   "size_t",   "ssize_t",
            "ptrdiff_t", "int8_t",  "int16_t",  "int32_t",  "int64_t",
            "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "intptr_t",
            "uintptr_t"};
        for (size_t i = 0; i + 2 < toks_.size(); ++i) {
            if (!IsPunct(toks_[i], "("))
                continue;
            // Collect up to five type tokens inside the parens.
            size_t j = i + 1;
            bool numeric = false, only_type_tokens = true;
            size_t n_tokens = 0;
            while (j < toks_.size() && n_tokens < 5) {
                const Token& t = toks_[j];
                if (IsPunct(t, ")"))
                    break;
                const bool type_tok =
                    IsPunct(t, "::") || IsIdent(t, "std") ||
                    (t.kind == TokenKind::kIdent &&
                     kNumericTypes.count(t.text) != 0);
                if (!type_tok) {
                    only_type_tokens = false;
                    break;
                }
                if (t.kind == TokenKind::kIdent &&
                    kNumericTypes.count(t.text) != 0)
                    numeric = true;
                ++j;
                ++n_tokens;
            }
            if (!only_type_tokens || !numeric || n_tokens == 0 ||
                j >= toks_.size() || !IsPunct(toks_[j], ")"))
                continue;
            // Applied to an operand: next token is a value, not ',',
            // ')' or ';' (which would make this a parameter list).
            const bool applied =
                j + 1 < toks_.size() &&
                (toks_[j + 1].kind == TokenKind::kIdent ||
                 toks_[j + 1].kind == TokenKind::kNumber ||
                 IsPunct(toks_[j + 1], "("));
            // Not a call `F(int)` / cast result `(x)(int)` / template
            // context `Foo<int>(int)`.
            const bool preceded =
                i > 0 && (toks_[i - 1].kind == TokenKind::kIdent ||
                          toks_[i - 1].kind == TokenKind::kNumber ||
                          IsPunct(toks_[i - 1], ")") ||
                          IsPunct(toks_[i - 1], ">") ||
                          IsPunct(toks_[i - 1], "]"));
            if (applied && !preceded)
                Add("narrowing-cast-in-header", toks_[i].line,
                    "C-style numeric cast in a src/ header; use "
                    "static_cast");
        }
    }

    void
    IncludeGuardPass()
    {
        bool has_ifndef = false, has_define = false, pragma_once = false;
        for (size_t i = 0; i < toks_.size(); ++i) {
            const Token& t = toks_[i];
            if (t.kind != TokenKind::kDirective)
                continue;
            if (t.text == "ifndef")
                has_ifndef = true;
            else if (t.text == "define")
                has_define = true;
            else if (t.text == "pragma" && IsIdentAt(i + 1, "once"))
                pragma_once = true;
        }
        if (!pragma_once && !(has_ifndef && has_define))
            Add("missing-include-guard", 1,
                "header lacks #ifndef/#define or #pragma once");
    }

    /**
     * Flags non-inline, non-template function definitions at namespace
     * scope in headers. Token heuristic: track a scope stack; at
     * namespace scope a '{' terminating a statement that contains a
     * parameter list — and none of the markers that make a definition
     * ODR-safe (inline/constexpr/consteval/template/static) or turn
     * the brace into something else (class key, enum, '=') — is a
     * function definition.
     */
    void
    HeaderDefinitionPass()
    {
        enum class Scope { kNamespace, kClass, kOther };
        std::vector<Scope> scopes; // file scope behaves as kNamespace

        // Statement window since the last boundary (; { } or
        // directive), kept as flags plus the brace's predecessor.
        bool has_paren_pair = false;
        bool safe_marker = false; // inline/constexpr/template/static...
        bool class_key = false, enum_key = false, namespace_key = false;
        bool has_assign = false;
        int paren_depth = 0;
        int stmt_line = 0;
        const Token* prev_sig = nullptr; // last non-directive token

        auto reset = [&]() {
            has_paren_pair = safe_marker = class_key = enum_key =
                namespace_key = has_assign = false;
            paren_depth = 0;
            stmt_line = 0;
        };

        auto at_namespace_scope = [&]() {
            return scopes.empty() || scopes.back() == Scope::kNamespace;
        };

        for (size_t i = 0; i < toks_.size(); ++i) {
            const Token& t = toks_[i];
            if (t.kind == TokenKind::kDirective ||
                t.kind == TokenKind::kIncludePath) {
                reset();
                continue;
            }
            if (stmt_line == 0)
                stmt_line = t.line;
            if (t.kind == TokenKind::kIdent) {
                if (t.text == "inline" || t.text == "constexpr" ||
                    t.text == "consteval" || t.text == "template" ||
                    t.text == "static" || t.text == "extern" ||
                    t.text == "friend" || t.text == "using" ||
                    t.text == "typedef" || t.text == "requires" ||
                    t.text == "concept")
                    safe_marker = true;
                else if (t.text == "class" || t.text == "struct" ||
                         t.text == "union")
                    class_key = true;
                else if (t.text == "enum")
                    enum_key = true;
                else if (t.text == "namespace")
                    namespace_key = true;
            } else if (t.kind == TokenKind::kPunct) {
                if (t.text == "(") {
                    ++paren_depth;
                } else if (t.text == ")") {
                    if (paren_depth > 0) {
                        --paren_depth;
                        if (paren_depth == 0)
                            has_paren_pair = true;
                    }
                } else if (t.text == "=") {
                    if (paren_depth == 0)
                        has_assign = true;
                } else if (t.text == ";" && paren_depth == 0) {
                    reset();
                    prev_sig = &t;
                    continue;
                } else if (t.text == "{" && paren_depth == 0) {
                    Scope entered = Scope::kOther;
                    if (namespace_key) {
                        entered = Scope::kNamespace;
                    } else if (enum_key) {
                        entered = Scope::kOther;
                    } else if (class_key && !has_paren_pair) {
                        entered = Scope::kClass;
                    } else if (!has_assign && has_paren_pair &&
                               at_namespace_scope() && prev_sig &&
                               FunctionBraceContext(*prev_sig)) {
                        if (!safe_marker)
                            Add("header-non-inline-definition",
                                stmt_line,
                                "non-inline function definition at "
                                "namespace scope in a header");
                        entered = Scope::kOther; // function body
                    }
                    scopes.push_back(entered);
                    reset();
                    prev_sig = &t;
                    continue;
                } else if (t.text == "}" && paren_depth == 0) {
                    // The paren_depth guard mirrors the '{' case: a
                    // default braced argument `= {}` inside a
                    // parameter list must not pop the class scope.
                    if (!scopes.empty())
                        scopes.pop_back();
                    reset();
                    prev_sig = &t;
                    continue;
                }
            }
            prev_sig = &t;
        }
    }

    /** The token immediately before a candidate function-body '{':
     *  ')' or a trailing qualifier/specifier chain. */
    static bool
    FunctionBraceContext(const Token& prev)
    {
        if (IsPunct(prev, ")"))
            return true;
        return prev.kind == TokenKind::kIdent &&
               (prev.text == "const" || prev.text == "noexcept" ||
                prev.text == "override" || prev.text == "final" ||
                prev.text == "try");
    }

    const FileContext& ctx_;
    const std::vector<Token>& toks_;
    std::vector<Finding> findings_;
};

} // namespace

std::vector<Finding>
RunFilePasses(const FileContext& ctx, const std::vector<Token>& tokens)
{
    return FilePass(ctx, tokens).Run();
}

} // namespace analyze
} // namespace sinan
