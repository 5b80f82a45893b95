#include "common/table.h"

#include <sstream>

#include "common/text_appender.h"

namespace sinan {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

TextTable&
TextTable::Row()
{
    rows_.emplace_back();
    return *this;
}

TextTable&
TextTable::Add(const std::string& cell)
{
    if (rows_.empty())
        rows_.emplace_back();
    rows_.back().push_back(cell);
    return *this;
}

TextTable&
TextTable::Add(double value, int precision)
{
    return Add(FormatDouble(value, precision));
}

TextTable&
TextTable::Add(long long value)
{
    return Add(std::to_string(value));
}

std::string
TextTable::Render() const
{
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (size_t c = 0; c < row.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (size_t c = 0; c < widths.size(); ++c) {
            const std::string& cell = c < row.size() ? row[c] : std::string();
            out << cell;
            if (c + 1 < widths.size())
                out << std::string(widths[c] - cell.size() + 2, ' ');
        }
        out << '\n';
    };
    emit_row(headers_);
    size_t total = 0;
    for (size_t w : widths)
        total += w + 2;
    out << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    for (const auto& row : rows_)
        emit_row(row);
    return out.str();
}

std::string
TextTable::RenderCsv() const
{
    std::ostringstream out;
    auto emit = [&](const std::vector<std::string>& row) {
        for (size_t c = 0; c < row.size(); ++c) {
            if (c)
                out << ',';
            out << row[c];
        }
        out << '\n';
    };
    emit(headers_);
    for (const auto& row : rows_)
        emit(row);
    return out.str();
}

std::string
FormatDouble(double value, int precision)
{
    std::string out;
    TextAppender(out).Fixed(value, precision);
    return out;
}

void
WriteFile(const std::string& path, const std::string& content)
{
    TextFile file(path);
    const std::string_view rest(content);
    for (size_t at = 0; at < rest.size(); at += TextFile::kFlushBytes) {
        file.Out().Str(rest.substr(at, TextFile::kFlushBytes));
        file.Out().EndRow();
    }
    file.Close();
}

} // namespace sinan
