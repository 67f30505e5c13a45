// The cell-selection matrix S of Definition 4: S[i, j] = 1 iff cell i was
// selected for sensing at cycle j. The RL state (Sec. 4.1) is a recent-k
// window of its columns.
//
// Besides the dense bit grid, the matrix maintains incremental per-cycle
// selection lists (sorted, updated in mark()/reset()), so per-cycle queries
// cost O(1)/O(selected) instead of scanning all cells — the state encoder
// and the environment's unsensed-set bookkeeping read them on every step of
// the 1000-cell scale workload.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace drcell::mcs {

class SelectionMatrix {
 public:
  SelectionMatrix(std::size_t cells, std::size_t cycles);

  std::size_t cells() const { return cells_; }
  std::size_t cycles() const { return cycles_; }

  bool selected(std::size_t cell, std::size_t cycle) const {
    return bits_[index(cell, cycle)] != 0;
  }
  /// Marks the cell selected; selecting twice in the same cycle is an error
  /// (the paper forbids re-selection within a cycle). O(selected-in-cycle)
  /// for the sorted-list insert, never O(cells).
  void mark(std::size_t cell, std::size_t cycle);

  /// Cells selected in the cycle, ascending. O(1) — returns a const
  /// reference to the incrementally maintained list, valid until the next
  /// mark()/reset().
  const std::vector<std::size_t>& selected_cells_in_cycle(
      std::size_t cycle) const {
    DRCELL_CHECK_MSG(cycle < cycles_, "selection cycle out of range");
    return per_cycle_[cycle];
  }

  void reset();

 private:
  std::size_t index(std::size_t cell, std::size_t cycle) const {
    DRCELL_CHECK_MSG(cell < cells_ && cycle < cycles_,
                     "selection index out of range");
    return cell * cycles_ + cycle;
  }

  std::size_t cells_;
  std::size_t cycles_;
  std::vector<std::uint8_t> bits_;
  // Per cycle: the selected cells, ascending; consistent with bits_ through
  // every mark()/reset().
  std::vector<std::vector<std::size_t>> per_cycle_;
};

}  // namespace drcell::mcs
