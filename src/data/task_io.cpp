#include "data/task_io.h"

#include <fstream>
#include <sstream>

#include "util/csv.h"

namespace drcell::data {

namespace {

std::vector<std::string> to_strings(const std::vector<double>& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (double v : values) {
    std::ostringstream ss;
    ss.precision(17);
    ss << v;
    out.push_back(ss.str());
  }
  return out;
}

std::vector<double> tail_as_doubles(const std::vector<std::string>& row) {
  std::vector<std::string> tail(row.begin() + 1, row.end());
  return parse_double_row(tail);
}

}  // namespace

void save_task_csv(std::ostream& out, const mcs::SensingTask& task) {
  CsvWriter w(out);
  w.write_row({"name", task.name()});
  {
    std::ostringstream ss;
    ss.precision(17);
    ss << task.cycle_hours();
    w.write_row({"cycle_hours", ss.str()});
  }
  {
    using Kind = mcs::ErrorMetric::Kind;
    const Kind kind = task.metric().kind();
    // Classification bounds follow the kind (none for mae/rmse).
    auto metric_row = to_strings(task.metric().category_bounds());
    metric_row.insert(metric_row.begin(),
                      {"metric", kind == Kind::kMae    ? "mae"
                                 : kind == Kind::kRmse ? "rmse"
                                                       : "classification"});
    w.write_row(metric_row);
  }
  std::vector<double> xs, ys;
  xs.reserve(task.num_cells());
  ys.reserve(task.num_cells());
  for (const auto& c : task.coords()) {
    xs.push_back(c.x);
    ys.push_back(c.y);
  }
  {
    auto row = to_strings(xs);
    row.insert(row.begin(), "coords_x");
    w.write_row(row);
  }
  {
    auto row = to_strings(ys);
    row.insert(row.begin(), "coords_y");
    w.write_row(row);
  }
  for (std::size_t cell = 0; cell < task.num_cells(); ++cell) {
    std::vector<double> vals(task.num_cycles());
    for (std::size_t t = 0; t < task.num_cycles(); ++t)
      vals[t] = task.truth(cell, t);
    w.write_row(to_strings(vals));
  }
}

mcs::SensingTask load_task_csv(std::istream& in) {
  const auto rows = CsvReader::parse_stream(in);
  DRCELL_CHECK_MSG(rows.size() >= 6, "task CSV too short");
  DRCELL_CHECK_MSG(rows[0].size() == 2 && rows[0][0] == "name",
                   "task CSV: bad name row");
  const std::string name = rows[0][1];
  DRCELL_CHECK_MSG(rows[1].size() == 2 && rows[1][0] == "cycle_hours",
                   "task CSV: bad cycle_hours row");
  const double cycle_hours = parse_double_row({rows[1][1]})[0];
  DRCELL_CHECK_MSG(rows[2].size() >= 2 && rows[2][0] == "metric",
                   "task CSV: bad metric row");

  mcs::ErrorMetric metric = mcs::ErrorMetric::mae();
  if (rows[2][1] == "mae") {
    metric = mcs::ErrorMetric::mae();
  } else if (rows[2][1] == "rmse") {
    metric = mcs::ErrorMetric::rmse();
  } else if (rows[2][1] == "classification") {
    std::vector<std::string> bound_fields(rows[2].begin() + 2, rows[2].end());
    metric = mcs::ErrorMetric::classification(parse_double_row(bound_fields));
  } else {
    DRCELL_CHECK_MSG(false, "task CSV: unknown metric '" + rows[2][1] + "'");
  }

  DRCELL_CHECK_MSG(rows[3].size() >= 2 && rows[3][0] == "coords_x",
                   "task CSV: bad coords_x row");
  DRCELL_CHECK_MSG(rows[4].size() >= 2 && rows[4][0] == "coords_y",
                   "task CSV: bad coords_y row");
  const auto xs = tail_as_doubles(rows[3]);
  const auto ys = tail_as_doubles(rows[4]);
  DRCELL_CHECK_MSG(xs.size() == ys.size(), "task CSV: coord length mismatch");

  const std::size_t cells = xs.size();
  DRCELL_CHECK_MSG(rows.size() == 5 + cells,
                   "task CSV: expected one data row per cell");
  std::vector<cs::CellCoord> coords(cells);
  for (std::size_t i = 0; i < cells; ++i) coords[i] = {xs[i], ys[i]};

  const std::size_t cycles = rows[5].size();
  Matrix values(cells, cycles);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const auto vals = parse_double_row(rows[5 + cell]);
    DRCELL_CHECK_MSG(vals.size() == cycles,
                     "task CSV: ragged data rows");
    for (std::size_t t = 0; t < cycles; ++t) values(cell, t) = vals[t];
  }
  return mcs::SensingTask(name, std::move(values), std::move(coords),
                          std::move(metric), cycle_hours);
}

void save_task_csv_file(const std::string& path,
                        const mcs::SensingTask& task) {
  std::ofstream out(path);
  DRCELL_CHECK_MSG(static_cast<bool>(out), "cannot open " + path);
  save_task_csv(out, task);
}

mcs::SensingTask load_task_csv_file(const std::string& path) {
  std::ifstream in(path);
  DRCELL_CHECK_MSG(static_cast<bool>(in), "cannot open " + path);
  return load_task_csv(in);
}

}  // namespace drcell::data
