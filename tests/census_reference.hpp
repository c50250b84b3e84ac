// The reference for the sweep plan's KernelLog census
// (core::MulticolorSweepPlan::census): per colour class, the distinct
// offsets (col - row) that hold a nonzero in the strictly-lower-class and
// in the strictly-upper-class entries, counted with one std::set per class
// and half straight from the CSR rows.
#pragma once

#include <set>

#include "color/coloring.hpp"

namespace mstep::reference {

inline color::ClassDiagonalCensus census_by_sets(
    const color::ColoredSystem& cs, const color::RowSplits& splits) {
  const auto& rp = cs.matrix.row_ptr();
  const auto& col = cs.matrix.col_idx();
  const auto& val = cs.matrix.values();
  color::ClassDiagonalCensus census;
  for (int c = 0; c < cs.num_classes(); ++c) {
    std::set<index_t> lower;
    std::set<index_t> upper;
    for (index_t i = cs.class_start[c]; i < cs.class_start[c + 1]; ++i) {
      for (index_t u = rp[i]; u < splits.lo_end[i]; ++u) {
        if (val[u] != 0.0) lower.insert(col[u] - i);
      }
      for (index_t u = splits.up_begin[i]; u < rp[i + 1]; ++u) {
        if (val[u] != 0.0) upper.insert(col[u] - i);
      }
    }
    census.lower.push_back(static_cast<int>(lower.size()));
    census.upper.push_back(static_cast<int>(upper.size()));
  }
  return census;
}

}  // namespace mstep::reference
