#include "la/dia_matrix.hpp"

#include <algorithm>

#include "la/simd.hpp"
#include <cassert>
#include <map>
#include <stdexcept>

namespace mstep::la {

DiaMatrix DiaMatrix::from_csr(const CsrMatrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("DiaMatrix: matrix must be square");
  }
  DiaMatrix m;
  m.n_ = a.rows();

  std::map<index_t, std::vector<double>> diags;
  const auto& rp = a.row_ptr();
  const auto& col = a.col_idx();
  const auto& val = a.values();
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (val[k] == 0.0) continue;
      const index_t off = col[k] - i;
      auto [it, inserted] = diags.try_emplace(off);
      if (inserted) it->second.assign(m.n_, 0.0);
      it->second[i] = val[k];
    }
  }
  m.offsets_.reserve(diags.size());
  m.diag_.reserve(diags.size());
  for (auto& [off, d] : diags) {
    m.offsets_.push_back(off);
    m.diag_.push_back(std::move(d));
  }
  return m;
}

bool DiaMatrix::profitable(const CsrMatrix& a, double max_fill) {
  if (a.rows() != a.cols() || a.nnz() == 0) return false;
  const double stored = static_cast<double>(a.num_nonzero_diagonals()) *
                        static_cast<double>(a.rows());
  return stored <= max_fill * static_cast<double>(a.nnz());
}

void DiaMatrix::multiply(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == n_);
  y.assign(n_, 0.0);
  multiply_rows(x, y, 0, n_, /*subtract=*/false);
}

void DiaMatrix::multiply_sub(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == n_);
  assert(static_cast<index_t>(y.size()) == n_);
  multiply_rows(x, y, 0, n_, /*subtract=*/true);
}

void DiaMatrix::multiply_rows(const Vec& x, Vec& y, index_t begin,
                              index_t end, bool subtract) const {
  for (std::size_t d = 0; d < offsets_.size(); ++d) {
    const index_t off = offsets_[d];
    const index_t lo = std::max(begin, std::max<index_t>(0, -off));
    const index_t hi = std::min(end, std::min<index_t>(n_, n_ - off));
    // Unit-stride triad: y[i] += v[i] * x[i + off]  — the vectorizable form.
    simd::dia_triad(diag_[d].data(), x.data(), y.data(), lo, hi, off,
                    subtract);
  }
}

}  // namespace mstep::la
