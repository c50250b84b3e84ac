#include "shard/halo.hpp"

#include <algorithm>
#include <stdexcept>

namespace mstep::shard {

HaloPlan::HaloPlan(const color::ColoredSystem& cs,
                   const std::vector<int>& owner, int parts)
    : num_parts_(parts), num_classes_(cs.num_classes()) {
  if (parts < 1 || static_cast<index_t>(owner.size()) != cs.size()) {
    throw std::invalid_argument(
        "HaloPlan: need parts >= 1 and one owner per row");
  }
  for (const int p : owner) {
    if (p < 0 || p >= parts) {
      throw std::invalid_argument("HaloPlan: owner outside [0, parts)");
    }
  }
  const auto& rp = cs.matrix.row_ptr();
  const auto& col = cs.matrix.col_idx();
  const auto& cls_start = cs.class_start;
  const auto class_of = [&](index_t row) {
    return static_cast<int>(std::upper_bound(cls_start.begin() + 1,
                                             cls_start.end(), row) -
                            (cls_start.begin() + 1));
  };

  recv_.assign(static_cast<std::size_t>(parts) * parts * num_classes_, {});
  neighbors_.assign(parts, {});
  if (parts == 1) return;  // one part reads no row off-part
  for (index_t i = 0; i < cs.size(); ++i) {
    const int s = owner[i];
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      const index_t j = col[k];
      const int t = owner[j];
      if (t != s) recv_[index(s, t, class_of(j))].push_back(j);
    }
  }
  for (auto& rows : recv_) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }

  for (int s = 0; s < parts; ++s) {
    for (int t = 0; t < parts; ++t) {
      for (int c = 0; c < num_classes_; ++c) {
        if (!recv_rows(s, t, c).empty() || !recv_rows(t, s, c).empty()) {
          neighbors_[s].push_back(t);
          break;
        }
      }
    }
  }
}

std::size_t HaloPlan::ghost_count(int s) const {
  std::size_t total = 0;
  for (int from = 0; from < num_parts_; ++from) {
    for (int c = 0; c < num_classes_; ++c) {
      total += recv_[index(s, from, c)].size();
    }
  }
  return total;
}

}  // namespace mstep::shard
