#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace drcell {

std::string format_double(double v, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << v;
  return ss.str();
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  DRCELL_CHECK_MSG(!headers_.empty(), "table requires at least one column");
}

void TablePrinter::add_row(std::vector<std::string> row) {
  DRCELL_CHECK_MSG(row.size() == headers_.size(),
                   "row width does not match header width");
  rows_.push_back(std::move(row));
}

void TablePrinter::add_row(const std::string& label,
                           const std::vector<double>& values, int precision) {
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.push_back(label);
  for (double v : values) row.push_back(format_double(v, precision));
  add_row(std::move(row));
}

void TablePrinter::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    out << "| ";
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      out << (c + 1 < row.size() ? " | " : " |");
    }
    out << '\n';
  };

  print_row(headers_);
  out << '|';
  for (std::size_t c = 0; c < widths.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << '|';
  }
  out << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace drcell
