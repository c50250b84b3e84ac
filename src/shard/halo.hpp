// The halo census of a strip partition: which rows each strip's sweep
// phases read from other strips.
//
// A strip's class-c sweep phase reads z at off-strip rows: the strictly-
// lower couplings (classes < c, read by every forward phase) and the
// strictly-upper couplings (classes > c, read by the backward phases of
// classes 0..nc-2; the last class's upper block is never summed — see
// core/multicolor_mstep.cpp).  HaloPlan records, per directed strip edge
// and per class, EXACTLY that row set — no row no phase reads, and none
// missing.  Threaded strips read these rows from the one shared iterate,
// so nothing is copied; the census is the partition's halo volume, the
// communication a distributed-memory machine would pay for (femsim
// simulates that model).
#pragma once

#include <vector>

#include "color/coloring.hpp"
#include "shard/partition.hpp"

namespace mstep::shard {

/// All off-strip row sets one ShardPlan reads on one colored matrix.
class HaloPlan {
 public:
  HaloPlan() = default;
  /// `splits` must be compute_row_splits(cs) — the lower/upper column
  /// split the sweeps themselves run on.
  HaloPlan(const color::ColoredSystem& cs, const ShardPlan& plan,
           const color::RowSplits& splits);

  /// Rows of shard `from` in class `c` that shard `to` reads (sorted,
  /// duplicate-free).  Empty when the shards share no boundary in that
  /// class — an "empty-boundary" edge is legal.
  [[nodiscard]] const std::vector<index_t>& recv_rows(int to, int from,
                                                      int c) const {
    return recv_[index(to, from, c)];
  }

  /// Total ghost rows shard `s` reads across all edges and classes (the
  /// halo volume; 0 means the shard's region is fully interior).
  [[nodiscard]] std::size_t ghost_count(int s) const;

 private:
  [[nodiscard]] std::size_t index(int to, int from, int c) const {
    return (static_cast<std::size_t>(to) * num_shards_ + from) *
               num_classes_ +
           c;
  }

  int num_shards_ = 0;
  int num_classes_ = 0;
  std::vector<std::vector<index_t>> recv_;  // [to][from][class]
};

}  // namespace mstep::shard
