#include "shard/halo.hpp"

#include <algorithm>
#include <stdexcept>

namespace mstep::shard {

HaloPlan::HaloPlan(const color::ColoredSystem& cs, const ShardPlan& plan,
                   const color::RowSplits& splits)
    : num_shards_(plan.num_shards()), num_classes_(plan.num_classes()) {
  if (cs.size() != plan.rows()) {
    throw std::invalid_argument("HaloPlan: plan does not match system size");
  }
  const int nc = num_classes_;
  const int ns = num_shards_;
  const auto& rp = cs.matrix.row_ptr();
  const auto& col = cs.matrix.col_idx();

  // class_of by binary search over class_start.
  const auto& cls_start = plan.class_start();
  const auto class_of = [&](index_t row) {
    return static_cast<int>(std::upper_bound(cls_start.begin() + 1,
                                             cls_start.end(), row) -
                            (cls_start.begin() + 1));
  };

  recv_.assign(static_cast<std::size_t>(ns) * ns * nc, {});

  // Mark exactly the columns the sweep phases read: the lower split of
  // every row, plus the upper split of rows outside the last class.
  for (index_t i = 0; i < cs.size(); ++i) {
    const int s = plan.owner_of(i);
    const int ci = class_of(i);
    const auto scan = [&](index_t from, index_t to) {
      for (index_t k = from; k < to; ++k) {
        const index_t j = col[k];
        const int t = plan.owner_of(j);
        if (t == s) continue;
        recv_[index(s, t, class_of(j))].push_back(j);
      }
    };
    scan(rp[i], splits.lo_end[i]);
    if (ci != nc - 1) scan(splits.up_begin[i], rp[i + 1]);
  }

  for (auto& rows : recv_) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }
}

std::size_t HaloPlan::ghost_count(int s) const {
  std::size_t total = 0;
  for (int from = 0; from < num_shards_; ++from) {
    for (int c = 0; c < num_classes_; ++c) {
      total += recv_[index(s, from, c)].size();
    }
  }
  return total;
}

}  // namespace mstep::shard
