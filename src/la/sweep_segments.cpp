#include "la/sweep_segments.hpp"

#include <algorithm>

namespace mstep::la {

SweepSegments SweepSegments::build(const DiaMatrix& store, const CsrMatrix& a,
                                   const index_t* seg_begin,
                                   const index_t* seg_end,
                                   const std::vector<RowSpan>& spans) {
  const index_t* rp = a.row_ptr().data();
  const simd::RunView all = store.runs();
  SweepSegments m;
  m.val_ = all.val;
  m.off_ = all.off;
  m.col_ = all.col;

  std::vector<index_t> rest_rows;
  for (const RowSpan& span : spans) {
    // The store's runs inside the span: no run crosses a cut.
    const index_t* first = std::lower_bound(all.row, all.row + all.num_runs,
                                            span.begin);
    index_t next = span.begin;  // first row not yet placed
    const auto to_rest = [&](index_t end) {
      for (; next < end; ++next) rest_rows.push_back(next);
    };
    for (auto q = static_cast<index_t>(first - all.row);
         q < all.num_runs && all.row[q] < span.end; ++q) {
      const index_t i0 = all.row[q];
      const index_t len = all.len[q];
      // The segment's first and last term, the same in every row of the
      // run when the class block is diagonal; a run where they move
      // (explicit zeros off the diagonal of the class block) stays out.
      const index_t k0 = seg_begin[i0] - rp[i0];
      const index_t k1 = seg_end[i0] - rp[i0];
      bool fixed = true;
      for (index_t i = i0 + 1; i < i0 + len && fixed; ++i) {
        fixed = seg_begin[i] - rp[i] == k0 && seg_end[i] - rp[i] == k1;
      }
      if (!fixed) continue;
      to_rest(i0);
      m.row_.push_back(i0);
      m.len_.push_back(len);
      m.off_at_.push_back(all.off_at[q] + k0);
      m.count_.push_back(k1 - k0);
      m.run_rows_ += len;
      next = i0 + len;
    }
    to_rest(span.end);
  }
  m.rest_ = SellSegments::build(a, seg_begin, seg_end, rest_rows);
  return m;
}

simd::RunView SweepSegments::runs() const {
  simd::RunView v;
  v.val = val_;
  v.off = off_;
  v.col = col_;
  v.row = row_.data();
  v.len = len_.data();
  v.off_at = off_at_.data();
  v.count = count_.data();
  v.num_runs = static_cast<index_t>(row_.size());
  return v;
}

}  // namespace mstep::la
