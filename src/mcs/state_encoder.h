// Encodes the RL state of Sec. 4.1: the recent-k window of the cell
// selection matrix, S = [s_{-k+1}, …, s_{-1}, s_0], where s_0 is the
// (partial) selection vector of the current cycle. Cycles before the start
// of the campaign are zero-padded.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/sparse_matrix.h"
#include "mcs/selection_matrix.h"

namespace drcell::mcs {

class StateEncoder {
 public:
  StateEncoder(std::size_t cells, std::size_t history_cycles);

  std::size_t cells() const { return cells_; }
  std::size_t history_cycles() const { return k_; }
  /// Length of the flat encoding: k * m, ordered oldest step first.
  std::size_t state_size() const { return k_ * cells_; }

  /// Flat state vector at `cycle` (includes the in-progress selections of
  /// that cycle from the matrix).
  std::vector<double> encode(const SelectionMatrix& selection,
                             std::size_t cycle) const;

  /// Sparse counterpart of encode(): the ascending flat indices of the 1.0
  /// entries. Per-cycle selection lists are ascending and steps are ordered
  /// oldest first, so the indices come out globally ascending — the order
  /// the sparse kernels require.
  std::vector<std::uint32_t> encode_ones(const SelectionMatrix& selection,
                                         std::size_t cycle) const;

  /// One state as a [k x cells] SparseRowMatrix whose row j holds step j's
  /// nonzeros (the replay buffer's per-transition layout) — from a flat
  /// state, or from an encode_ones() index list (all values 1.0).
  void to_sparse_steps(const std::vector<double>& flat_state,
                       SparseRowMatrix& out) const;
  void ones_to_sparse_steps(std::span<const std::uint32_t> ones,
                            SparseRowMatrix& out) const;

  /// Appends one state as row `row` of the k timestep-major step matrices
  /// (each pre-reset to [batch x cells]; row b of step j is state b's j-th
  /// selection vector) — the sparse input of the Q-networks' selection
  /// forwards. From an encode_ones() index list, or from a flat state
  /// (its nonzeros only).
  void ones_to_sequence_row(std::span<const std::uint32_t> ones,
                            std::size_t row,
                            std::vector<SparseRowMatrix>& steps) const;
  void to_sequence_row(const std::vector<double>& flat_state, std::size_t row,
                       std::vector<SparseRowMatrix>& steps) const;

 private:
  std::size_t cells_;
  std::size_t k_;
};

}  // namespace drcell::mcs
