// The halo census of a row partition: which rows each part reads from
// every other part, per colour class.
//
// The partition is any owner map, owner[row] in [0, parts) over the
// colour-permuted rows: the threaded solve's contiguous strips (ShardPlan)
// or the Finite Element Machine's node assignment (femsim).  A part reads
// z at an off-part row wherever one of its rows stores a coupling to it —
// the product reads every such coupling, the sweep phases the strictly-
// lower and strictly-upper ones, and the diagonal class blocks of a valid
// colouring store only the diagonal.  HaloPlan records, per directed part
// edge and per class, exactly those rows.  Threaded strips read them from
// the one shared iterate, so nothing is copied and the census is the
// partition's halo volume; femsim's processors ship exactly these rows as
// their border records (femsim/dist_solver.hpp).
#pragma once

#include <vector>

#include "color/coloring.hpp"

namespace mstep::shard {

/// All off-part row sets of one owner map on one colored matrix.
class HaloPlan {
 public:
  /// `owner[row]` is the part owning each row of `cs`.  Throws
  /// std::invalid_argument unless owner has cs.size() entries, each in
  /// [0, parts).
  HaloPlan(const color::ColoredSystem& cs, const std::vector<int>& owner,
           int parts);

  /// Rows of part `from` in class `c` that part `to` reads (sorted,
  /// duplicate-free).  Empty when the parts share no boundary in that
  /// class — an "empty-boundary" edge is legal.
  [[nodiscard]] const std::vector<index_t>& recv_rows(int to, int from,
                                                      int c) const {
    return recv_[index(to, from, c)];
  }

  /// The parts `s` reads from or is read by, ascending.
  [[nodiscard]] const std::vector<int>& neighbors(int s) const {
    return neighbors_[s];
  }

  /// Total ghost rows part `s` reads across all edges and classes (the
  /// halo volume; 0 means the part's region is fully interior).
  [[nodiscard]] std::size_t ghost_count(int s) const;

 private:
  [[nodiscard]] std::size_t index(int to, int from, int c) const {
    return (static_cast<std::size_t>(to) * num_parts_ + from) *
               num_classes_ +
           c;
  }

  int num_parts_ = 0;
  int num_classes_ = 0;
  std::vector<std::vector<index_t>> recv_;  // [to][from][class]
  std::vector<std::vector<int>> neighbors_;
};

}  // namespace mstep::shard
