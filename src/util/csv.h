// Minimal CSV reader/writer used to export campaign results and to
// import/export sensing tasks. Handles quoting of fields containing
// commas, quotes or newlines; no external dependencies.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace drcell {

/// Writes rows of string fields as RFC-4180-style CSV.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void write_row(const std::vector<std::string>& fields);

 private:
  static std::string escape(const std::string& field);
  std::ostream& out_;
};

/// Parses CSV text into rows of string fields.
/// Supports quoted fields with embedded commas, quotes ("" escape) and
/// newlines; accepts both \n and \r\n line endings.
class CsvReader {
 public:
  static std::vector<std::vector<std::string>> parse(const std::string& text);
  static std::vector<std::vector<std::string>> parse_stream(std::istream& in);
};

/// Parses every field of `row` as double. Throws CheckError on malformed
/// numeric input.
std::vector<double> parse_double_row(const std::vector<std::string>& row);

}  // namespace drcell
