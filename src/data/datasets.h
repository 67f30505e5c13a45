// Factories for the two evaluation datasets of Table 1 (synthetic
// equivalents — see DESIGN.md) and the statistics used to regenerate the
// table.
#pragma once

#include <cstdint>

#include "data/synthetic_field.h"
#include "mcs/sensing_task.h"

namespace drcell::data {

/// Sensor-Scope-like campaign: EPFL campus, 500 m x 300 m split into 100
/// cells of 50 m x 30 m of which 57 carry sensors; half-hour cycles over
/// 7 days (336 cycles); temperature and humidity are correlated tasks.
struct SensorScopeDataset {
  mcs::SensingTask temperature;
  mcs::SensingTask humidity;
};
SensorScopeDataset make_sensorscope_like(std::uint64_t seed = 2018);

/// U-Air-like campaign: Beijing, 36 active 1 km x 1 km cells, hourly cycles
/// over 11 days (264 cycles); PM2.5 with the 6-level AQI classification
/// metric.
struct UAirDataset {
  mcs::SensingTask pm25;
};
UAirDataset make_uair_like(std::uint64_t seed = 2013);

/// Synthetic city-scale deployment far beyond the paper's 57 cells — the
/// workload of the 1000-cell scale target (ROADMAP). A grid_rows x grid_cols
/// grid of 100 m x 100 m cells (25 x 40 = 1000 by default) with a
/// temperature-like field, half-hour cycles. At this size the field still
/// uses the exact O(cells³) spatial Cholesky (bit-identical to earlier
/// releases). The factor lands in the process-wide shared registry, so
/// re-calling this factory per episode pays ONE factorisation per process,
/// not one per call; cold vs warm behaviour is observable at both tiers via
/// SyntheticFieldGenerator::shared_factor_cache_builds() /
/// shared_factor_cache_hits().
mcs::SensingTask make_city_scale_task(std::size_t grid_rows = 25,
                                      std::size_t grid_cols = 40,
                                      std::size_t cycles = 96,
                                      std::uint64_t seed = 1000);

/// Metro-scale deployment: a grid_rows x grid_cols grid of 100 m x 100 m
/// cells (100 x 100 = 10,000 by default, a ~10 km x 10 km metro area) with
/// a temperature-like field. Above FieldParams::nystrom_threshold the
/// generator samples spatial modes through the low-rank Nyström factor
/// (O(cells·k²) with k = 256 landmarks instead of O(cells³)) — the tier the
/// exact Cholesky could never reach (10,000³ ≈ 3·10¹¹ kernel flops per
/// factorisation before memory).
mcs::SensingTask make_metro_scale_task(std::size_t grid_rows = 100,
                                       std::size_t grid_cols = 100,
                                       std::size_t cycles = 96,
                                       std::uint64_t seed = 10000);

/// The metro task's field configuration (kilometre-scale modes, Nyström
/// above the default threshold) — the single definition the factory above
/// and the field-sampler ops of bench_scale_10000cell share, so retuning
/// the task retunes the bench with it.
FieldParams metro_scale_field_params();

/// Row of Table 1.
struct DatasetStats {
  std::string name;
  std::size_t num_cells = 0;
  std::size_t num_cycles = 0;
  double cycle_hours = 0.0;
  double duration_days = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};
DatasetStats compute_stats(const mcs::SensingTask& task);

}  // namespace drcell::data
