/**
 * @file
 * The one text formatter behind every run artifact (run log, decision
 * trace, metrics, fleet trace and report): integers, strings and
 * doubles are formatted straight into a caller-owned std::string.
 *
 * Two sinks share it, so each serializer has one code path:
 *
 *  - a string: the caller owns the buffer, reserves it once and
 *    returns it when the serializer is done (no stream buffer that
 *    grows by doubling, no copy out of it);
 *  - a file (TextFile): the appender formats into the file's buffer
 *    and drains it to the file at a row boundary once it holds
 *    TextFile::kFlushBytes, so no whole-file string ever exists.
 *
 * Byte contract: the double formats reproduce the iostream settings
 * the artifacts were first written with. Fixed(v, p) is an ostream
 * with std::fixed and precision(p), which libstdc++ renders with
 * "%.*f"; General17(v) is an ostream with the default float field and
 * precision(17), "%.17g". Both call snprintf with that format, in the
 * "C" numeric locale the program never changes (std::to_chars gives
 * the same bytes but pages in its own formatting tables; see DESIGN.md
 * §5p). Integers go through std::to_chars, as ostream prints them.
 */
#ifndef SINAN_COMMON_TEXT_APPENDER_H
#define SINAN_COMMON_TEXT_APPENDER_H

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>

namespace sinan {

class TextFile;

/** Appends formatted text to a std::string it does not own. */
class TextAppender {
  public:
    /** A string sink: every call appends to @p buf. */
    explicit TextAppender(std::string& buf) : buf_(buf) {}

    TextAppender(const TextAppender&) = delete;
    TextAppender& operator=(const TextAppender&) = delete;

    TextAppender&
    Str(std::string_view s)
    {
        buf_.append(s);
        return *this;
    }

    TextAppender&
    Char(char c)
    {
        buf_.push_back(c);
        return *this;
    }

    /** Decimal integer, as ostream prints it. */
    template <std::integral T>
    TextAppender&
    Int(T v)
    {
        char tmp[24];
        const std::to_chars_result r = std::to_chars(tmp, tmp + sizeof tmp, v);
        buf_.append(tmp, r.ptr);
        return *this;
    }

    /** %.<precision>f: an ostream with std::fixed and
     *  precision(@p precision); 4 is every artifact's precision.
     *  @p precision must lie in [0, kMaxPrecision]. */
    TextAppender& Fixed(double v, int precision = 4);

    /** %.17g: an ostream with the default float field and
     *  precision(17) (round-trip safe). */
    TextAppender& General17(double v);

    /** Marks a row boundary: a file-backed appender drains its buffer
     *  to the file once it holds TextFile::kFlushBytes; a string sink
     *  does nothing. */
    void EndRow();

    /** Largest precision Fixed accepts. */
    static constexpr int kMaxPrecision = 64;

    /** Reservation widths, separator included, that the string
     *  serializers size their buffer from: a Fixed(v, 4) cell with
     *  |v| < 1e10 (sign, 10 digits, point, 4 decimals) and any
     *  integer cell. A wider cell only grows the buffer. */
    static constexpr size_t kFixedCellBytes = 17;
    static constexpr size_t kIntCellBytes = 21;

  private:
    friend class TextFile;

    TextAppender(std::string& buf, TextFile* file) : buf_(buf), file_(file)
    {
    }

    std::string& buf_;
    TextFile* file_ = nullptr;
};

/**
 * A file written through a TextAppender in kFlushBytes pieces. The
 * constructor opens (and truncates) the file, creating its parent
 * directories; Close() writes what is left and closes it. Every
 * failure — open, each drain, close — throws std::runtime_error naming
 * the path, so a full disk or a vanished directory is never silent.
 */
class TextFile {
  public:
    /** Buffered bytes that trigger a drain at the next row boundary. */
    static constexpr size_t kFlushBytes = 64 * 1024;

    explicit TextFile(const std::string& path);

    /** Closes a file Close() was not called on (after an exception),
     *  discarding buffered text and any error. */
    ~TextFile();

    TextFile(const TextFile&) = delete;
    TextFile& operator=(const TextFile&) = delete;

    /** The appender that formats into this file. */
    TextAppender& Out() { return out_; }

    /** Writes the buffered text and closes the file; throws on a
     *  failed write or close. Call once. */
    void Close();

  private:
    friend class TextAppender;

    /** Writes the buffer to the file and empties it. */
    void Drain();

    std::string path_;
    std::FILE* file_ = nullptr;
    std::string buf_;
    TextAppender out_{buf_, this};
};

inline void
TextAppender::EndRow()
{
    if (file_ != nullptr && buf_.size() >= TextFile::kFlushBytes)
        file_->Drain();
}

} // namespace sinan

#endif // SINAN_COMMON_TEXT_APPENDER_H
