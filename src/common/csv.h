// CSV reading and writing. The writer backs the bench binaries' machine-
// readable output (one CSV per figure next to the ASCII table); the reader
// backs trace::TraceLoader for plugging in real flow traces.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace nu {

/// Splits one CSV line. Handles quoted fields with embedded commas and
/// doubled quotes; does not handle embedded newlines (flow traces are
/// line-per-record).
[[nodiscard]] std::vector<std::string> SplitCsvLine(const std::string& line);

/// Escapes a field for CSV output: quotes when the field contains a comma,
/// a quote, or a line break (CR/LF), doubling embedded quotes. Bare spaces
/// do not force quoting.
[[nodiscard]] std::string EscapeCsvField(const std::string& field);

/// Incremental CSV writer.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void WriteRow(const std::vector<std::string>& cells);

 private:
  std::ostream& out_;
};

/// Fully-parsed CSV file with an optional header row.
struct CsvFile {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  /// 1-based text line of each row, for error messages.
  std::vector<std::size_t> row_lines;

  /// Index of a header column, or nullopt when absent.
  [[nodiscard]] std::optional<std::size_t> ColumnIndex(
      const std::string& name) const;
};

/// Parses CSV text. When `has_header` is true the first non-empty line
/// becomes `header`. Empty lines and lines starting with '#' are skipped.
[[nodiscard]] CsvFile ParseCsv(const std::string& text, bool has_header);

}  // namespace nu
