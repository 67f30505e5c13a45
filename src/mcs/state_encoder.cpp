#include "mcs/state_encoder.h"

namespace drcell::mcs {

StateEncoder::StateEncoder(std::size_t cells, std::size_t history_cycles)
    : cells_(cells), k_(history_cycles) {
  DRCELL_CHECK(cells_ > 0);
  DRCELL_CHECK_MSG(k_ > 0, "state needs at least the current cycle");
}

std::vector<double> StateEncoder::encode(const SelectionMatrix& selection,
                                         std::size_t cycle) const {
  DRCELL_CHECK(selection.cells() == cells_);
  DRCELL_CHECK(cycle < selection.cycles());
  std::vector<double> state(state_size(), 0.0);
  // Slice j of the flat state holds cycle (cycle - k + 1 + j). Only the
  // selected cells are touched (the matrix keeps incremental per-cycle
  // lists), so filling costs O(k·selected) on top of the zero init.
  for (std::size_t j = 0; j < k_; ++j) {
    const std::size_t age = k_ - 1 - j;  // how many cycles back
    if (age > cycle) continue;           // before the campaign: zeros
    const std::size_t src = cycle - age;
    for (std::size_t cell : selection.selected_cells_in_cycle(src))
      state[j * cells_ + cell] = 1.0;
  }
  return state;
}

std::vector<std::uint32_t> StateEncoder::encode_ones(
    const SelectionMatrix& selection, std::size_t cycle) const {
  DRCELL_CHECK(selection.cells() == cells_);
  DRCELL_CHECK(cycle < selection.cycles());
  std::vector<std::uint32_t> ones;
  for (std::size_t j = 0; j < k_; ++j) {
    const std::size_t age = k_ - 1 - j;
    if (age > cycle) continue;
    const std::size_t src = cycle - age;
    // selected_cells_in_cycle is ascending and slice offsets grow with j,
    // so the flat indices are pushed in globally ascending order.
    for (std::size_t cell : selection.selected_cells_in_cycle(src))
      ones.push_back(static_cast<std::uint32_t>(j * cells_ + cell));
  }
  return ones;
}

void StateEncoder::to_sparse_steps(const std::vector<double>& flat_state,
                                   SparseRowMatrix& out) const {
  DRCELL_CHECK_MSG(flat_state.size() == state_size(),
                   "flat state size mismatch");
  out.reset(k_, cells_);
  for (std::size_t j = 0; j < k_; ++j)
    for (std::size_t cell = 0; cell < cells_; ++cell) {
      const double v = flat_state[j * cells_ + cell];
      if (v != 0.0) out.append(j, cell, v);
    }
}

void StateEncoder::ones_to_sparse_steps(std::span<const std::uint32_t> ones,
                                        SparseRowMatrix& out) const {
  out.reset(k_, cells_);
  for (const std::uint32_t flat : ones) {
    DRCELL_DCHECK_MSG(flat < state_size(), "flat index out of range");
    out.append(flat / cells_, flat % cells_, 1.0);
  }
}

void StateEncoder::ones_to_sequence_row(
    std::span<const std::uint32_t> ones, std::size_t row,
    std::vector<SparseRowMatrix>& steps) const {
  DRCELL_CHECK_MSG(steps.size() == k_, "sequence length mismatch");
  for (const std::uint32_t flat : ones) {
    DRCELL_DCHECK_MSG(flat < state_size(), "flat index out of range");
    steps[flat / cells_].append(row, flat % cells_, 1.0);
  }
}

void StateEncoder::to_sequence_row(const std::vector<double>& flat_state,
                                   std::size_t row,
                                   std::vector<SparseRowMatrix>& steps) const {
  DRCELL_CHECK_MSG(flat_state.size() == state_size(),
                   "flat state size mismatch");
  DRCELL_CHECK_MSG(steps.size() == k_, "sequence length mismatch");
  for (std::size_t j = 0; j < k_; ++j)
    for (std::size_t cell = 0; cell < cells_; ++cell) {
      const double v = flat_state[j * cells_ + cell];
      if (v != 0.0) steps[j].append(row, cell, v);
    }
}

}  // namespace drcell::mcs
