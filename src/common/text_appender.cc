#include "common/text_appender.h"

#include <array>
#include <cerrno>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "common/check.h"

namespace sinan {

namespace {

// The widest %.<p>f of a double: sign, 309 integer digits, the point
// and p fraction digits.
constexpr size_t kMaxFixedChars = 1 + 309 + 1 + TextAppender::kMaxPrecision;

[[noreturn]] void
ThrowFileError(const char* what, const std::string& path, int err)
{
    throw std::runtime_error(std::string("cannot ") + what + " '" + path +
                             "': " +
                             std::generic_category().message(err));
}

} // namespace

TextAppender&
TextAppender::Fixed(double v, int precision)
{
    SINAN_CHECK_BOUNDS(precision, 0, kMaxPrecision);
    std::array<char, kMaxFixedChars + 1> tmp;
    const int n =
        std::snprintf(tmp.data(), tmp.size(), "%.*f", precision, v);
    buf_.append(tmp.data(), static_cast<size_t>(n));
    return *this;
}

TextAppender&
TextAppender::General17(double v)
{
    // "-d.dddddddddddddddde-308": at most 24 characters.
    std::array<char, 32> tmp;
    const int n = std::snprintf(tmp.data(), tmp.size(), "%.17g", v);
    buf_.append(tmp.data(), static_cast<size_t>(n));
    return *this;
}

TextFile::TextFile(const std::string& path) : path_(path)
{
    const std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
        if (ec)
            ThrowFileError("open", path, ec.value());
    }
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        ThrowFileError("open", path, errno);
    // The appender's buffer is the only buffer: each drain is one
    // write, so its error surfaces at that drain.
    std::setvbuf(file_, nullptr, _IONBF, 0);
    buf_.reserve(kFlushBytes);
}

TextFile::~TextFile()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

void
TextFile::Drain()
{
    SINAN_CHECK_MSG(file_ != nullptr, "TextFile: write after Close");
    if (buf_.empty())
        return;
    if (std::fwrite(buf_.data(), 1, buf_.size(), file_) != buf_.size())
        ThrowFileError("write", path_, errno);
    buf_.clear();
}

void
TextFile::Close()
{
    Drain();
    std::FILE* f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0)
        ThrowFileError("close", path_, errno);
}

} // namespace sinan
