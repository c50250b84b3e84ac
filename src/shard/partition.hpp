// Region partitioning: the one strip partition a threaded solve runs on
// (`threads` strips; the Algorithm-2 sweep and every sparse product).
//
// The paper's machine is an array of processors each owning a region of
// the mesh, with "an equal distribution of each color" per processor.
// ShardPlan realizes that rule on the color-permuted system: every color
// block (class) is cut into `shards` contiguous strips by the SAME
// equal-strip rule femsim::coordinate_strip_owner uses for mesh nodes
// (owner of the k-th of `len` rows is k * shards / len), so each shard
// owns one contiguous row range per class — a "region" in the permuted
// ordering.  Contiguity is what lets every sharded kernel run the
// unmodified serial kernels on sub-ranges, which is the whole bitwise
// story.
#pragma once

#include <vector>

#include "la/vector.hpp"

namespace mstep::shard {

/// Contiguous per-class row strips for every shard.
///
/// Clamping: a requested shard count larger than the widest color block
/// would leave some shard without a single row anywhere; build() clamps
/// to the widest class size (and to 1 from below), so `num_shards()` is
/// the EFFECTIVE count — callers surface it (SolveReport::shards) so the
/// clamp is observable.  Per-class empty strips (class narrower than the
/// shard count) are legal and expected.
class ShardPlan {
 public:
  /// `class_start` is color::ColoredSystem::class_start (size nc + 1).
  static ShardPlan build(const std::vector<index_t>& class_start,
                         int requested_shards);

  [[nodiscard]] int num_shards() const { return shards_; }
  [[nodiscard]] int num_classes() const {
    return static_cast<int>(class_start_.size()) - 1;
  }
  [[nodiscard]] index_t rows() const { return class_start_.back(); }

  /// Row range [begin, end) shard `s` owns inside class `c`.
  [[nodiscard]] index_t begin(int s, int c) const {
    return bounds_[static_cast<std::size_t>(c) * (shards_ + 1) + s];
  }
  [[nodiscard]] index_t end(int s, int c) const {
    return bounds_[static_cast<std::size_t>(c) * (shards_ + 1) + s + 1];
  }

  /// Owning shard of a (permuted) row.
  [[nodiscard]] int owner_of(index_t row) const { return owner_[row]; }

  [[nodiscard]] const std::vector<index_t>& class_start() const {
    return class_start_;
  }

 private:
  int shards_ = 1;
  std::vector<index_t> class_start_;
  std::vector<index_t> bounds_;  // (shards + 1) boundaries per class
  std::vector<int> owner_;       // per permuted row
};

}  // namespace mstep::shard
