#include "la/dia_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace mstep::la {

namespace {

/// The distinct value columns of a store, found by hash: open addressing
/// with linear probing, doubled at half load.
class ColumnSet {
 public:
  /// The start in `val` of the stored column with the bits of column[0,
  /// len) and `hash`; when there is none, the column is appended to `val`
  /// and its start returned.  Bits are compared with memcmp, so +0.0 and
  /// -0.0, or two NaN payloads, never match.
  index_t find_or_add(std::vector<double>& val, const double* column,
                      std::size_t len, std::uint64_t hash) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
      Slot& slot = slots_[s];
      if (slot.start < 0) {
        slot = {hash, static_cast<index_t>(val.size()),
                static_cast<index_t>(len)};
        ++used_;
        val.insert(val.end(), column, column + len);
        return slot.start;
      }
      if (slot.hash == hash && static_cast<std::size_t>(slot.len) == len &&
          std::memcmp(val.data() + slot.start, column,
                      len * sizeof(double)) == 0) {
        return slot.start;
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    index_t start = -1;  // -1: empty
    index_t len = 0;
  };

  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.start < 0) continue;
      std::size_t s = slot.hash & mask;
      while (slots_[s].start >= 0) s = (s + 1) & mask;
      slots_[s] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

/// `lane` with a value's bits folded in.
inline std::uint64_t mix(std::uint64_t lane, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return (lane ^ bits) * 0x9e3779b97f4a7c15ULL;
}

/// Copies in[t * stride] to out[t] for t in [0, len) and returns a hash of
/// the copied bits, folded into four lanes so that the multiplies of
/// consecutive values overlap.
std::uint64_t gather_hashed(const double* in, std::size_t stride,
                            std::size_t len, double* out) {
  std::uint64_t h0 = len;
  std::uint64_t h1 = 1;
  std::uint64_t h2 = 2;
  std::uint64_t h3 = 3;
  std::size_t t = 0;
  for (; t + 4 <= len; t += 4) {
    out[t] = in[t * stride];
    out[t + 1] = in[(t + 1) * stride];
    out[t + 2] = in[(t + 2) * stride];
    out[t + 3] = in[(t + 3) * stride];
    h0 = mix(h0, out[t]);
    h1 = mix(h1, out[t + 1]);
    h2 = mix(h2, out[t + 2]);
    h3 = mix(h3, out[t + 3]);
  }
  for (; t < len; ++t) {
    out[t] = in[t * stride];
    h0 = mix(h0, out[t]);
  }
  std::uint64_t hash = h0 ^ (h1 >> 13) ^ (h2 >> 26) ^ (h3 >> 39);
  hash = (hash ^ (hash >> 32)) * 0xd6e8feb86659fd93ULL;
  return hash ^ (hash >> 32);
}

}  // namespace

DiaMatrix DiaMatrix::from_csr(const CsrMatrix& a, std::vector<index_t> cuts) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("DiaMatrix: matrix must be square");
  }
  const index_t n = a.rows();
  if (cuts.empty()) cuts = {0, n};
  if (cuts.front() != 0 || cuts.back() != n ||
      !std::is_sorted(cuts.begin(), cuts.end())) {
    throw std::invalid_argument(
        "DiaMatrix: cuts must ascend from 0 to the row count");
  }
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  DiaMatrix m;
  m.n_ = n;
  m.a_ = &a;
  m.cuts_ = std::move(cuts);
  const auto& rp = a.row_ptr();
  const auto& col = a.col_idx();
  const auto& val = a.values();
  // Rows i and j share their offsets when every column of j is the one of
  // i shifted by j - i: one branch-free pass the compiler vectorizes.
  const auto same_offsets = [&](index_t i, index_t j) {
    const index_t len = rp[i + 1] - rp[i];
    if (rp[j + 1] - rp[j] != len) return false;
    const index_t* ci = col.data() + rp[i];
    const index_t* cj = col.data() + rp[j];
    index_t differ = 0;
    for (index_t k = 0; k < len; ++k) differ |= (cj[k] - ci[k]) ^ (j - i);
    return differ == 0;
  };

  // Pass 1: cut every cell into maximal equal-offset stretches.
  for (std::size_t cell = 0; cell + 1 < m.cuts_.size(); ++cell) {
    const index_t cell_end = m.cuts_[cell + 1];
    for (index_t i = m.cuts_[cell]; i < cell_end;) {
      index_t j = i + 1;
      while (j < cell_end && same_offsets(i, j)) ++j;
      if (j - i >= kMinRun) {
        const index_t terms = rp[i + 1] - rp[i];
        m.row_.push_back(i);
        m.len_.push_back(j - i);
        m.off_ptr_.push_back(static_cast<index_t>(m.off_.size()));
        m.terms_.push_back(terms);
        m.run_values_ += static_cast<std::size_t>(terms) * (j - i);
        for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
          m.off_.push_back(col[k] - i);
        }
      } else if (!m.rest_.empty() && m.rest_.back().end == i) {
        m.rest_.back().end = j;
      } else {
        m.rest_.push_back({i, j, -1});
      }
      i = j;
    }
  }

  // Pass 2: the run values, diagonal-major, each distinct column once.  A
  // run's rows are equally long and adjacent in the CSR arrays, so value
  // column k reads every terms-th value from the run's first row on.  Each
  // column is gathered into a buffer, hashed on the way, and stored only
  // when no stored column has its length and bits.  The storage is
  // reserved for a matrix with no repeated column, and trimmed at the end
  // when sharing left most of it unused (a trim copies what is kept).
  m.val_.reserve(m.run_values_);
  m.col_.resize(m.off_.size());
  ColumnSet stored;
  std::vector<double> column;
  for (std::size_t q = 0; q < m.row_.size(); ++q) {
    const auto len = static_cast<std::size_t>(m.len_[q]);
    const auto terms = static_cast<std::size_t>(m.terms_[q]);
    const double* in = val.data() + rp[m.row_[q]];
    if (column.size() < len) column.resize(len);
    for (std::size_t k = 0; k < terms; ++k) {
      const std::uint64_t hash =
          gather_hashed(in + k, terms, len, column.data());
      m.col_[static_cast<std::size_t>(m.off_ptr_[q]) + k] =
          stored.find_or_add(m.val_, column.data(), len, hash);
    }
  }
  if (2 * m.val_.size() < m.val_.capacity()) m.val_.shrink_to_fit();
  // Pass 3: the short rest stretches' rows, copied back to back.
  m.copy_ptr_.push_back(0);
  for (RowRange& r : m.rest_) {
    m.rest_values_ += static_cast<std::size_t>(rp[r.end] - rp[r.begin]);
    if (r.end - r.begin >= kInPlaceRows) continue;
    r.copy = static_cast<index_t>(m.copy_ptr_.size()) - 1;
    for (index_t i = r.begin; i < r.end; ++i) {
      m.copy_col_.insert(m.copy_col_.end(), col.begin() + rp[i],
                         col.begin() + rp[i + 1]);
      m.copy_val_.insert(m.copy_val_.end(), val.begin() + rp[i],
                         val.begin() + rp[i + 1]);
      m.copy_ptr_.push_back(static_cast<index_t>(m.copy_col_.size()));
    }
  }
  return m;
}

DiaMatrix DiaMatrix::without_runs(const CsrMatrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("DiaMatrix: matrix must be square");
  }
  DiaMatrix m;
  m.n_ = a.rows();
  m.a_ = &a;
  m.cuts_ = {0, m.n_};
  if (m.n_ > 0) m.rest_.push_back({0, m.n_, -1});
  m.rest_values_ = static_cast<std::size_t>(a.nnz());
  return m;
}

bool DiaMatrix::profitable(const CsrMatrix& a, double max_fill) {
  if (a.rows() != a.cols() || a.nnz() == 0) return false;
  const double stored = static_cast<double>(a.num_nonzero_diagonals()) *
                        static_cast<double>(a.rows());
  return stored <= max_fill * static_cast<double>(a.nnz());
}

simd::RunView DiaMatrix::runs() const {
  simd::RunView v;
  v.val = val_.data();
  v.off = off_.data();
  v.col = col_.data();
  v.row = row_.data();
  v.len = len_.data();
  v.off_at = off_ptr_.data();
  v.count = terms_.data();
  v.num_runs = static_cast<index_t>(row_.size());
  return v;
}

void DiaMatrix::multiply(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == n_);
  y.resize(n_);  // every row is written exactly once
  multiply_rows(x, y, 0, n_, /*subtract=*/false);
}

void DiaMatrix::multiply_sub(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(y.size()) == n_);
  multiply_rows(x, y, 0, n_, /*subtract=*/true);
}

void DiaMatrix::multiply_rows(const Vec& x, Vec& y, index_t begin,
                              index_t end, bool subtract) const {
  assert(static_cast<index_t>(x.size()) == n_);
  assert(static_cast<index_t>(y.size()) == n_);
  // The runs meeting [begin, end): runs ascend and never overlap.
  index_t q0 = 0;  // the first run ending past begin
  for (auto hi = static_cast<index_t>(row_.size()); q0 < hi;) {
    const index_t mid = q0 + (hi - q0) / 2;
    if (row_[mid] + len_[mid] <= begin) {
      q0 = mid + 1;
    } else {
      hi = mid;
    }
  }
  const auto q1 = static_cast<index_t>(
      std::lower_bound(row_.begin() + q0, row_.end(), end) - row_.begin());
  simd::RunView sub = runs();
  sub.row += q0;
  sub.len += q0;
  sub.off_at += q0;
  sub.count += q0;
  sub.num_runs = q1 - q0;

  simd::run_spmv_rows(sub, x.data(), y.data(), begin, end, subtract);

  // The rest stretches meeting [begin, end), clipped: CsrMatrix's kernel
  // on their rows.
  auto r = std::upper_bound(
      rest_.begin(), rest_.end(), begin,
      [](index_t row, const RowRange& range) { return row < range.end; });
  for (; r != rest_.end() && r->begin < end; ++r) {
    rest_rows(*r, std::max(r->begin, begin), std::min(r->end, end),
              [&](const index_t* rp, const index_t* col, const double* val,
                  index_t base, index_t b, index_t e) {
                simd::csr_spmv_rows(rp, col, val, x.data(), y.data() + base,
                                    b, e, subtract);
              });
  }
}

void DiaMatrix::multiply_block(const double* x, double* y,
                               bool subtract) const {
  simd::block_run_rows(runs(), x, y, subtract);
  for (const RowRange& r : rest_) {
    rest_rows(r, r.begin, r.end,
              [&](const index_t* rp, const index_t* col, const double* val,
                  index_t base, index_t b, index_t e) {
                simd::block_csr_rows(
                    rp, col, val, x,
                    y + static_cast<std::size_t>(base) * simd::kSellSlice, b,
                    e, subtract);
              });
  }
}

}  // namespace mstep::la
