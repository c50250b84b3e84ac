#include "la/csr_matrix.hpp"

#include <algorithm>

#include "la/simd.hpp"
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace mstep::la {

CsrMatrix::CsrMatrix(index_t rows, index_t cols, std::vector<index_t> row_ptr,
                     std::vector<index_t> col, std::vector<double> val)
    : rows_(rows), cols_(cols), row_ptr_(std::move(row_ptr)),
      col_(std::move(col)), val_(std::move(val)) {
  if (static_cast<index_t>(row_ptr_.size()) != rows_ + 1) {
    throw std::invalid_argument("CsrMatrix: bad row_ptr length");
  }
  if (col_.size() != val_.size()) {
    throw std::invalid_argument("CsrMatrix: col/val length mismatch");
  }
}

double CsrMatrix::at(index_t i, index_t j) const {
  const auto* begin = col_.data() + row_ptr_[i];
  const auto* end = col_.data() + row_ptr_[i + 1];
  const auto* it = std::lower_bound(begin, end, j);
  if (it != end && *it == j) return val_[it - col_.data()];
  return 0.0;
}

void CsrMatrix::multiply(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == cols_);
  y.resize(rows_);
  simd::csr_spmv_rows(row_ptr_.data(), col_.data(), val_.data(), x.data(),
                      y.data(), 0, rows_, /*subtract=*/false);
}

void CsrMatrix::multiply_sub(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == cols_);
  assert(static_cast<index_t>(y.size()) == rows_);
  simd::csr_spmv_rows(row_ptr_.data(), col_.data(), val_.data(), x.data(),
                      y.data(), 0, rows_, /*subtract=*/true);
}

void CsrMatrix::residual(const Vec& b, const Vec& x, Vec& r) const {
  r = b;
  multiply_sub(x, r);
}

Vec CsrMatrix::diagonal() const {
  if (rows_ != cols_) throw std::invalid_argument("diagonal: not square");
  Vec d(rows_);
  for (index_t i = 0; i < rows_; ++i) {
    const double v = at(i, i);
    if (v == 0.0) throw std::runtime_error("diagonal: zero/absent entry");
    d[i] = v;
  }
  return d;
}

CsrMatrix CsrMatrix::permuted_symmetric(
    const std::vector<index_t>& perm) const {
  if (rows_ != cols_ ||
      static_cast<index_t>(perm.size()) != rows_) {
    throw std::invalid_argument("permuted_symmetric: bad perm");
  }
  std::vector<index_t> inv(rows_);
  for (index_t i = 0; i < rows_; ++i) inv[perm[i]] = i;
  return permuted_symmetric(perm, inv);
}

CsrMatrix CsrMatrix::permuted_symmetric(const std::vector<index_t>& perm,
                                        const std::vector<index_t>& inv) const {
  if (rows_ != cols_ || static_cast<index_t>(perm.size()) != rows_ ||
      static_cast<index_t>(inv.size()) != rows_) {
    throw std::invalid_argument("permuted_symmetric: bad perm");
  }
  std::vector<index_t> rp(rows_ + 1, 0);
  for (index_t i = 0; i < rows_; ++i) {
    const index_t old = perm[i];
    rp[i + 1] = rp[i] + (row_ptr_[old + 1] - row_ptr_[old]);
  }
  std::vector<index_t> col(rp[rows_]);
  std::vector<double> val(rp[rows_]);
  // Each source row, read in order, is written straight into its new place
  // and sorted by column there, stably: by insertion when short, by a
  // merge sort when long.
  std::vector<std::pair<index_t, double>> long_row;
  for (index_t old = 0; old < rows_; ++old) {
    const index_t first = rp[inv[old]];
    const index_t len = row_ptr_[old + 1] - row_ptr_[old];
    index_t* c = col.data() + first;
    double* v = val.data() + first;
    const index_t* src_col = col_.data() + row_ptr_[old];
    const double* src_val = val_.data() + row_ptr_[old];
    if (len <= kInsertionSortRow) {
      for (index_t k = 0; k < len; ++k) {
        const index_t ck = inv[src_col[k]];
        index_t t = k;
        for (; t > 0 && c[t - 1] > ck; --t) {
          c[t] = c[t - 1];
          v[t] = v[t - 1];
        }
        c[t] = ck;
        v[t] = src_val[k];
      }
      continue;
    }
    long_row.resize(static_cast<std::size_t>(len));
    for (index_t k = 0; k < len; ++k) {
      long_row[k] = {inv[src_col[k]], src_val[k]};
    }
    std::stable_sort(long_row.begin(), long_row.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (index_t k = 0; k < len; ++k) {
      c[k] = long_row[k].first;
      v[k] = long_row[k].second;
    }
  }
  return CsrMatrix(rows_, cols_, std::move(rp), std::move(col),
                   std::move(val));
}

CsrMatrix CsrMatrix::transposed() const {
  std::vector<index_t> rp(cols_ + 1, 0);
  for (index_t k = 0; k < nnz(); ++k) rp[col_[k] + 1]++;
  for (index_t j = 0; j < cols_; ++j) rp[j + 1] += rp[j];
  std::vector<index_t> col(nnz());
  std::vector<double> val(nnz());
  std::vector<index_t> next(rp.begin(), rp.end() - 1);
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const index_t pos = next[col_[k]]++;
      col[pos] = i;
      val[pos] = val_[k];
    }
  }
  return CsrMatrix(cols_, rows_, std::move(rp), std::move(col),
                   std::move(val));
}

double CsrMatrix::symmetry_error() const {
  if (rows_ != cols_) return std::numeric_limits<double>::infinity();
  const CsrMatrix t = transposed();
  double err = 0.0;
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      err = std::max(err, std::abs(val_[k] - t.at(i, col_[k])));
    }
    for (index_t k = t.row_ptr_[i]; k < t.row_ptr_[i + 1]; ++k) {
      err = std::max(err, std::abs(t.val_[k] - at(i, t.col_[k])));
    }
  }
  return err;
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix d(rows_, cols_);
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      d(i, col_[k]) += val_[k];
    }
  }
  return d;
}

index_t CsrMatrix::max_row_nnz() const {
  index_t m = 0;
  for (index_t i = 0; i < rows_; ++i) {
    m = std::max(m, row_ptr_[i + 1] - row_ptr_[i]);
  }
  return m;
}

index_t CsrMatrix::num_nonzero_diagonals() const {
  // One mark per possible offset j - i in [-(rows - 1), cols - 1]: a flat
  // array, not a tree, so the count costs one pass over the entries.
  std::vector<unsigned char> seen(
      static_cast<std::size_t>(rows_) + static_cast<std::size_t>(cols_), 0);
  index_t count = 0;
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (val_[k] == 0.0) continue;
      auto& mark = seen[static_cast<std::size_t>(col_[k] - i + rows_)];
      count += mark == 0 ? 1 : 0;
      mark = 1;
    }
  }
  return count;
}

index_t CsrMatrix::bandwidth() const {
  index_t b = 0;
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (val_[k] != 0.0) b = std::max(b, std::abs(col_[k] - i));
    }
  }
  return b;
}

void CooBuilder::add(index_t i, index_t j, double v) {
  assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
  i_.push_back(i);
  j_.push_back(j);
  v_.push_back(v);
}

CsrMatrix CooBuilder::build(bool drop_zeros) const {
  const std::size_t nt = i_.size();
  std::vector<std::size_t> order(nt);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (i_[a] != i_[b]) return i_[a] < i_[b];
    return j_[a] < j_[b];
  });

  std::vector<index_t> rp(rows_ + 1, 0);
  std::vector<index_t> col;
  std::vector<double> val;
  col.reserve(nt);
  val.reserve(nt);

  std::size_t k = 0;
  for (index_t row = 0; row < rows_; ++row) {
    while (k < nt && i_[order[k]] == row) {
      const index_t c = j_[order[k]];
      double s = 0.0;
      while (k < nt && i_[order[k]] == row && j_[order[k]] == c) {
        s += v_[order[k]];
        ++k;
      }
      if (!drop_zeros || s != 0.0) {
        col.push_back(c);
        val.push_back(s);
      }
    }
    rp[row + 1] = static_cast<index_t>(col.size());
  }
  return CsrMatrix(rows_, cols_, std::move(rp), std::move(col),
                   std::move(val));
}

CsrMatrix csr_identity(index_t n) {
  std::vector<index_t> rp(n + 1);
  std::vector<index_t> col(n);
  std::vector<double> val(n, 1.0);
  for (index_t i = 0; i <= n; ++i) rp[i] = i;
  for (index_t i = 0; i < n; ++i) col[i] = i;
  return CsrMatrix(n, n, std::move(rp), std::move(col), std::move(val));
}

}  // namespace mstep::la
