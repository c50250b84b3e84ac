#include "shard/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace mstep::shard {

ShardPlan ShardPlan::build(const std::vector<index_t>& class_start,
                           int requested_shards) {
  if (class_start.size() < 2) {
    throw std::invalid_argument("ShardPlan: need at least one class");
  }
  const int nc = static_cast<int>(class_start.size()) - 1;
  index_t widest = 0;
  for (int c = 0; c < nc; ++c) {
    widest = std::max(widest, class_start[c + 1] - class_start[c]);
  }

  ShardPlan plan;
  plan.class_start_ = class_start;
  // Graceful clamp: more shards than rows in the widest color block would
  // strand a shard with no work at all.
  plan.shards_ = std::max(
      1, std::min<int>(requested_shards, static_cast<int>(widest)));

  const int s_count = plan.shards_;
  plan.bounds_.resize(static_cast<std::size_t>(nc) * (s_count + 1));
  plan.owner_.assign(class_start.back(), 0);
  for (int c = 0; c < nc; ++c) {
    const index_t base = class_start[c];
    const index_t len = class_start[c + 1] - base;
    index_t* b = plan.bounds_.data() +
                 static_cast<std::size_t>(c) * (s_count + 1);
    // The femsim strip rule (owner of node k of `total` is k*p/total),
    // inverted into strip boundaries: shard s starts at ceil(s*len/S).
    for (int s = 0; s <= s_count; ++s) {
      b[s] = base + (static_cast<index_t>(s) * len + s_count - 1) / s_count;
    }
    b[s_count] = base + len;
    for (int s = 0; s < s_count; ++s) {
      for (index_t i = b[s]; i < b[s + 1]; ++i) plan.owner_[i] = s;
    }
  }
  return plan;
}

std::vector<index_t> ShardPlan::cell_bounds() const {
  std::vector<index_t> cuts = bounds_;
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

}  // namespace mstep::shard
