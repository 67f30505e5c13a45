#include "mcs/selection_matrix.h"

#include <algorithm>

namespace drcell::mcs {

SelectionMatrix::SelectionMatrix(std::size_t cells, std::size_t cycles)
    : cells_(cells), cycles_(cycles), bits_(cells * cycles, 0),
      per_cycle_(cycles) {
  DRCELL_CHECK(cells > 0 && cycles > 0);
}

void SelectionMatrix::mark(std::size_t cell, std::size_t cycle) {
  auto& b = bits_[index(cell, cycle)];
  DRCELL_CHECK_MSG(b == 0, "cell selected twice in the same cycle");
  b = 1;
  auto& list = per_cycle_[cycle];
  list.insert(std::lower_bound(list.begin(), list.end(), cell), cell);
}

void SelectionMatrix::reset() {
  std::fill(bits_.begin(), bits_.end(), 0);
  for (auto& list : per_cycle_) list.clear();
}

}  // namespace drcell::mcs
