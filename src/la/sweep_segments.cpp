#include "la/sweep_segments.hpp"

namespace mstep::la {

SweepSegments SweepSegments::build(const CsrMatrix& a,
                                   const index_t* seg_begin,
                                   const index_t* seg_end, index_t row_begin,
                                   index_t row_end) {
  const auto& col = a.col_idx();
  const auto& val = a.values();
  const auto same_offsets = [&](index_t i, index_t j) {
    const index_t len = seg_end[i] - seg_begin[i];
    if (seg_end[j] - seg_begin[j] != len) return false;
    for (index_t k = 0; k < len; ++k) {
      if (col[seg_begin[i] + k] - i != col[seg_begin[j] + k] - j) {
        return false;
      }
    }
    return true;
  };

  // Pass 1: cut [row_begin, row_end) into maximal equal-offset stretches.
  SweepSegments m;
  m.off_ptr_.push_back(0);
  std::vector<index_t> rest_rows;
  std::size_t values = 0;
  for (index_t i = row_begin; i < row_end;) {
    index_t j = i + 1;
    while (j < row_end && same_offsets(i, j)) ++j;
    if (j - i >= kMinRun) {
      const index_t terms = seg_end[i] - seg_begin[i];
      m.row_.push_back(i);
      m.len_.push_back(j - i);
      m.val_ptr_.push_back(values);
      values += static_cast<std::size_t>(terms) * (j - i);
      for (index_t k = 0; k < terms; ++k) {
        m.off_.push_back(col[seg_begin[i] + k] - i);
      }
      m.off_ptr_.push_back(static_cast<index_t>(m.off_.size()));
      m.run_rows_ += j - i;
    } else {
      for (index_t g = i; g < j; ++g) rest_rows.push_back(g);
    }
    i = j;
  }

  // Pass 2: the run values, diagonal-major, into storage sized once.
  m.val_.resize(values);
  for (std::size_t q = 0; q < m.row_.size(); ++q) {
    const auto len = static_cast<std::size_t>(m.len_[q]);
    const index_t terms = m.off_ptr_[q + 1] - m.off_ptr_[q];
    double* out = m.val_.data() + m.val_ptr_[q];
    for (std::size_t t = 0; t < len; ++t) {
      const index_t b = seg_begin[m.row_[q] + static_cast<index_t>(t)];
      for (index_t k = 0; k < terms; ++k) {
        out[static_cast<std::size_t>(k) * len + t] = val[b + k];
      }
    }
  }
  m.rest_ = SellSegments::build(a, seg_begin, seg_end, rest_rows);
  return m;
}

simd::RunView SweepSegments::runs() const {
  simd::RunView v;
  v.val = val_.data();
  v.off = off_.data();
  v.off_ptr = off_ptr_.data();
  v.val_ptr = val_ptr_.data();
  v.row = row_.data();
  v.len = len_.data();
  v.num_runs = static_cast<index_t>(row_.size());
  return v;
}

}  // namespace mstep::la
