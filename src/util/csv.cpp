#include "util/csv.h"

#include <charconv>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace drcell {

std::string CsvWriter::escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
}

std::vector<std::vector<std::string>> CsvReader::parse(
    const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        field_started = true;  // the next field exists even if empty
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        end_row();
        break;
      default:
        field += c;
        field_started = true;
        break;
    }
  }
  DRCELL_CHECK_MSG(!in_quotes, "CSV ended inside a quoted field");
  if (field_started || !field.empty() || !row.empty()) end_row();
  return rows;
}

std::vector<std::vector<std::string>> CsvReader::parse_stream(
    std::istream& in) {
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

std::vector<double> parse_double_row(const std::vector<std::string>& row) {
  std::vector<double> out;
  out.reserve(row.size());
  for (const std::string& f : row) {
    double v = 0.0;
    const auto* begin = f.data();
    const auto* end = f.data() + f.size();
    auto [ptr, ec] = std::from_chars(begin, end, v);
    DRCELL_CHECK_MSG(ec == std::errc() && ptr == end,
                     "malformed numeric CSV field: '" + f + "'");
    out.push_back(v);
  }
  return out;
}

}  // namespace drcell
