#include "la/sell_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace mstep::la {

namespace {

constexpr index_t kC = SellSegments::kSliceHeight;

/// Slot order after sigma-window sorting: within each window rows are
/// ordered by descending length (ties by ascending row id, so the layout
/// is deterministic); windows themselves stay in place.
template <class Len>
std::vector<index_t> sigma_sorted(std::vector<index_t> slots, index_t sigma,
                                  const Len& len) {
  sigma = std::max(sigma, kC);
  const auto n = static_cast<index_t>(slots.size());
  for (index_t w = 0; w < n; w += sigma) {
    const index_t e = std::min(n, w + sigma);
    std::sort(slots.begin() + w, slots.begin() + e,
              [&](index_t i, index_t j) {
                const index_t li = len(i);
                const index_t lj = len(j);
                if (li != lj) return li > lj;
                return i < j;
              });
  }
  return slots;
}

std::vector<index_t> all_rows(const CsrMatrix& a) {
  std::vector<index_t> rows(a.rows());
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

}  // namespace

SellSegments SellSegments::build(const CsrMatrix& a, const index_t* seg_begin,
                                 const index_t* seg_end,
                                 const std::vector<index_t>& rows,
                                 index_t sigma) {
  SellSegments m;
  const auto n = static_cast<index_t>(rows.size());
  if (n <= 0) return m;

  const auto& col = a.col_idx();
  const auto& val = a.values();
  const auto seg_len = [&](index_t g) { return seg_end[g] - seg_begin[g]; };
  const std::vector<index_t> slots = sigma_sorted(rows, sigma, seg_len);

  const index_t num_slices = (n + kC - 1) / kC;
  m.perm_.assign(static_cast<std::size_t>(num_slices) * kC, -1);
  m.len_.assign(static_cast<std::size_t>(num_slices) * kC, 0);
  m.slice_ptr_.assign(static_cast<std::size_t>(num_slices) + 1, 0);

  for (index_t s = 0; s < num_slices; ++s) {
    index_t width = 0;
    for (index_t r = 0; r < kC; ++r) {
      const index_t slot = s * kC + r;
      if (slot >= n) break;
      const index_t g = slots[slot];
      m.perm_[slot] = g;
      m.len_[slot] = seg_len(g);
      width = std::max(width, m.len_[slot]);
    }
    m.slice_ptr_[s + 1] =
        m.slice_ptr_[s] + static_cast<std::size_t>(width) * kC;
  }

  m.val_.assign(m.slice_ptr_.back(), 0.0);
  m.col_.resize(m.slice_ptr_.back());
  for (index_t s = 0; s < num_slices; ++s) {
    const std::size_t base = m.slice_ptr_[s];
    // Padding points at the slice's own first row (see the header).
    for (std::size_t at = base; at < m.slice_ptr_[s + 1]; ++at) {
      m.col_[at] = m.perm_[s * kC];
    }
    for (index_t r = 0; r < kC; ++r) {
      const index_t slot = s * kC + r;
      const index_t g = m.perm_[slot];
      if (g < 0) continue;
      for (index_t j = 0; j < m.len_[slot]; ++j) {
        const std::size_t at = base + static_cast<std::size_t>(j) * kC + r;
        m.val_[at] = val[seg_begin[g] + j];
        m.col_[at] = col[seg_begin[g] + j];
      }
    }
  }
  return m;
}

simd::SellView SellSegments::view() const {
  simd::SellView v;
  v.val = val_.data();
  v.col = col_.data();
  v.len = len_.data();
  v.perm = perm_.data();
  v.slice_ptr = slice_ptr_.data();
  v.num_slices = num_slices();
  return v;
}

SellMatrix SellMatrix::from_csr(const CsrMatrix& a, index_t sigma) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("SellMatrix: matrix must be square");
  }
  SellMatrix m;
  m.rows_ = a.rows();
  m.cols_ = a.cols();
  m.nnz_ = a.nnz();
  m.ndiags_ = a.num_nonzero_diagonals();
  const auto& rp = a.row_ptr();
  m.slices_ =
      SellSegments::build(a, rp.data(), rp.data() + 1, all_rows(a), sigma);
  return m;
}

double SellMatrix::fill_estimate(const CsrMatrix& a, index_t sigma) {
  if (a.nnz() == 0) return 0.0;
  const index_t n = a.rows();
  const auto& rp = a.row_ptr();
  const auto row_len = [&](index_t g) { return rp[g + 1] - rp[g]; };
  const std::vector<index_t> slots = sigma_sorted(all_rows(a), sigma, row_len);
  std::size_t padded = 0;
  for (index_t s = 0; s * kC < n; ++s) {
    index_t width = 0;
    for (index_t r = 0; r < kC && s * kC + r < n; ++r) {
      width = std::max(width, row_len(slots[s * kC + r]));
    }
    padded += static_cast<std::size_t>(width) * kC;
  }
  return static_cast<double>(padded) / static_cast<double>(a.nnz());
}

bool SellMatrix::profitable(const CsrMatrix& a, double max_fill,
                            index_t sigma) {
  if (a.nnz() == 0) return false;
  return fill_estimate(a, sigma) <= max_fill;
}

void SellMatrix::multiply(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == cols_);
  y.resize(rows_);  // every real row is written exactly once via perm
  simd::sell_spmv_slices(view(), x.data(), y.data(), 0, num_slices(),
                         /*subtract=*/false);
}

void SellMatrix::multiply_sub(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == cols_);
  assert(static_cast<index_t>(y.size()) == rows_);
  simd::sell_spmv_slices(view(), x.data(), y.data(), 0, num_slices(),
                         /*subtract=*/true);
}

}  // namespace mstep::la
