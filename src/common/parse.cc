#include "common/parse.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <type_traits>

namespace sinan {

template <typename T>
ParseStatus
ParseNumber(const std::string& text, T* out)
{
    // What strto* would skip or accept but the contract rejects.
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        text[0] == '+' || (std::is_unsigned_v<T> && text[0] == '-'))
        return ParseStatus::kMalformed;
    const char* s = text.c_str();
    char* end = nullptr;
    errno = 0;
    const auto v = [&] {
        if constexpr (std::is_floating_point_v<T>)
            return std::strtod(s, &end);
        else if constexpr (std::is_unsigned_v<T>)
            return std::strtoull(s, &end, 10);
        else
            return std::strtoll(s, &end, 10);
    }();
    if (end != s + text.size())
        return ParseStatus::kMalformed;
    // Overflow ("1e999") comes back as inf with ERANGE set, so it is
    // told apart from a spelled-out "inf" by checking ERANGE first.
    if (errno == ERANGE)
        return ParseStatus::kOutOfRange;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return ParseStatus::kNonFinite;
    }
    if constexpr (std::is_same_v<T, int>) {
        if (v < INT_MIN || v > INT_MAX)
            return ParseStatus::kOutOfRange;
    }
    *out = static_cast<T>(v);
    return ParseStatus::kOk;
}

template ParseStatus ParseNumber(const std::string&, double*);
template ParseStatus ParseNumber(const std::string&, int*);
template ParseStatus ParseNumber(const std::string&, int64_t*);
template ParseStatus ParseNumber(const std::string&, uint64_t*);

std::vector<std::string>
SplitFields(const std::string& text, char sep)
{
    std::vector<std::string> fields;
    for (size_t pos = 0;;) {
        const size_t next = text.find(sep, pos);
        fields.push_back(text.substr(pos, next - pos));
        if (next == std::string::npos)
            return fields;
        pos = next + 1;
    }
}

} // namespace sinan
