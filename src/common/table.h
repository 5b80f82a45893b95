/**
 * @file
 * Console table / CSV emission used by the benchmark harness to print the
 * rows of the paper's tables and the series behind its figures.
 */
#ifndef SINAN_COMMON_TABLE_H
#define SINAN_COMMON_TABLE_H

#include <iosfwd>
#include <string>
#include <vector>

namespace sinan {

/**
 * A simple column-aligned text table. Cells are strings; numeric helpers
 * format with fixed precision. Render() pads every column to its widest
 * cell, which keeps bench output readable without a terminal library.
 */
class TextTable {
  public:
    /** Creates a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Starts a new row; subsequent Add* calls fill it left to right. */
    TextTable& Row();

    /** Appends a string cell to the current row. */
    TextTable& Add(const std::string& cell);

    /** Appends a numeric cell with @p precision fractional digits. */
    TextTable& Add(double value, int precision = 2);

    /** Appends an integer cell. */
    TextTable& Add(long long value);

    /** Renders the table with aligned columns. */
    std::string Render() const;

    /** Renders as CSV (comma separated, header first). */
    std::string RenderCsv() const;

    /** Number of data rows. */
    size_t NumRows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Formats a double with fixed precision (helper for ad-hoc output). */
std::string FormatDouble(double value, int precision = 2);

/** Writes @p content to @p path through a TextFile (parents created);
 *  throws std::runtime_error naming the path on a failed open or
 *  write. */
void WriteFile(const std::string& path, const std::string& content);

} // namespace sinan

#endif // SINAN_COMMON_TABLE_H
