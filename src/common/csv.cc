#include "common/csv.h"

#include <sstream>

namespace nu {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      cells.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Tolerate CRLF line endings.
    } else {
      current += c;
    }
  }
  cells.push_back(std::move(current));
  return cells;
}

std::string EscapeCsvField(const std::string& field) {
  // Quote when the field contains a separator, a quote, or a line break
  // (unquoted newlines would split one logical record across rows). Bare
  // spaces are fine unquoted per RFC 4180 and stay unadorned.
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos || field.empty();
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::WriteRow(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << EscapeCsvField(cells[i]);
  }
  out_ << '\n';
}

std::optional<std::size_t> CsvFile::ColumnIndex(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  return std::nullopt;
}

CsvFile ParseCsv(const std::string& text, bool has_header) {
  CsvFile file;
  std::istringstream stream(text);
  std::string line;
  bool header_pending = has_header;
  for (std::size_t line_no = 1; std::getline(stream, line); ++line_no) {
    if (line.empty() || line[0] == '#') continue;
    auto cells = SplitCsvLine(line);
    if (header_pending) {
      file.header = std::move(cells);
      header_pending = false;
    } else {
      file.rows.push_back(std::move(cells));
      file.row_lines.push_back(line_no);
    }
  }
  return file;
}

}  // namespace nu
