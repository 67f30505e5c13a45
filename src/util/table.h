// Fixed-width console table printer. The benchmark harness uses it to
// print paper-style tables (one per figure / table of the evaluation).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace drcell {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> row);
  /// Convenience: formats doubles with the given precision.
  void add_row(const std::string& label, const std::vector<double>& values,
               int precision = 2);

  /// Renders the table with column separators and a header rule.
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared by benches).
std::string format_double(double v, int precision = 2);

}  // namespace drcell
