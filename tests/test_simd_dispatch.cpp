// The SIMD dispatch contract: the portable twins and the AVX2 kernels
// execute the same fixed-lane operation schedule, so forcing either path
// produces BITWISE identical results — per kernel, and end to end for
// every splitting x format x threading combination.  This is the in-tree
// half of the CI simd-dispatch job, which additionally reruns whole test
// binaries under MSTEP_SIMD=off.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/params.hpp"
#include "la/csr_matrix.hpp"
#include "la/dia_matrix.hpp"
#include "la/sell_matrix.hpp"
#include "la/simd.hpp"
#include "la/vector.hpp"
#include "problems/problem.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep {
namespace {

using la::simd::SimdMode;
using la::simd::SimdModeGuard;

bool bitwise_equal(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SimdDispatch, ModeApiReportsTheForcedPath) {
  {
    const SimdModeGuard guard(SimdMode::kForceScalar);
    EXPECT_FALSE(la::simd::simd_active());
    EXPECT_STREQ(la::simd::simd_isa(), "scalar");
  }
  {
    const SimdModeGuard guard(SimdMode::kForceVector);
    // Forcing the vector path still requires hardware support; either
    // way the answer must be consistent with simd_available().
    EXPECT_EQ(la::simd::simd_active(), la::simd::simd_available());
  }
  if (la::simd::simd_available()) {
    EXPECT_TRUE(la::simd::simd_compiled());
  }
}

TEST(SimdDispatch, ReductionKernelsAreBitwiseAcrossPaths) {
  util::Rng rng(3);
  // Odd length exercises the lane tails; include magnitude spread so a
  // different summation order would actually change the bits.
  const std::size_t n = 10007;
  Vec x = rng.uniform_vector(n, -1.0, 1.0);
  Vec y = rng.uniform_vector(n, -1e6, 1e6);
  for (std::size_t i = 0; i < n; i += 97) x[i] *= 1e-9;

  double dot_scalar;
  double dot_vector;
  {
    const SimdModeGuard guard(SimdMode::kForceScalar);
    dot_scalar = la::dot(x, y);
  }
  {
    const SimdModeGuard guard(SimdMode::kForceVector);
    dot_vector = la::dot(x, y);
  }
  EXPECT_TRUE(bitwise_equal(dot_scalar, dot_vector));
}

TEST(SimdDispatch, ElementwiseKernelsAreBitwiseAcrossPaths) {
  util::Rng rng(5);
  const std::size_t n = 4099;
  const Vec x = rng.uniform_vector(n);
  const Vec y0 = rng.uniform_vector(n);

  Vec y_scalar = y0;
  Vec y_vector = y0;
  {
    const SimdModeGuard guard(SimdMode::kForceScalar);
    la::simd::axpy(1.7, x.data(), y_scalar.data(), n);
    la::simd::xpay(x.data(), -0.3, y_scalar.data(), n);
  }
  {
    const SimdModeGuard guard(SimdMode::kForceVector);
    la::simd::axpy(1.7, x.data(), y_vector.data(), n);
    la::simd::xpay(x.data(), -0.3, y_vector.data(), n);
  }
  EXPECT_TRUE(bitwise_equal(y_scalar, y_vector));
}

TEST(SimdDispatch, SparseKernelsAreBitwiseAcrossPathsAndFormats) {
  const auto p = problems::ProblemRegistry::instance().create("femplate:a=8");
  const la::SellMatrix sell = la::SellMatrix::from_csr(p.matrix);
  util::Rng rng(9);
  const Vec x = rng.uniform_vector(p.matrix.cols());

  Vec csr_scalar;
  Vec csr_vector;
  Vec sell_scalar;
  Vec sell_vector;
  {
    const SimdModeGuard guard(SimdMode::kForceScalar);
    p.matrix.multiply(x, csr_scalar);
    sell.multiply(x, sell_scalar);
  }
  {
    const SimdModeGuard guard(SimdMode::kForceVector);
    p.matrix.multiply(x, csr_vector);
    sell.multiply(x, sell_vector);
  }
  EXPECT_TRUE(bitwise_equal(csr_scalar, csr_vector));
  EXPECT_TRUE(bitwise_equal(sell_scalar, sell_vector));
  EXPECT_TRUE(bitwise_equal(csr_scalar, sell_scalar));
}

// ---- block kernels ----------------------------------------------------------

constexpr std::size_t kW = la::simd::kSellSlice;

Vec column(const Vec& block, std::size_t c) {
  Vec v(block.size() / kW);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = block[i * kW + c];
  return v;
}

/// A block whose column 3 is all zeros — the frozen or unused column of a
/// block narrower than kW — with scattered -0.0 entries elsewhere.
Vec make_block(util::Rng& rng, std::size_t rows) {
  Vec b = rng.uniform_vector(rows * kW);
  for (std::size_t i = 0; i < rows; ++i) {
    b[i * kW + 3] = 0.0;
    if (i % 7 == 0) b[i * kW + (i % 3)] = -0.0;
  }
  return b;
}

/// Runs `kernel` under the forced scalar path and the vector path; both
/// must write the same bits.  Returns the result.
Vec both_paths(const std::function<Vec()>& kernel, const std::string& what) {
  Vec scalar_out;
  Vec vector_out;
  {
    const SimdModeGuard guard(SimdMode::kForceScalar);
    scalar_out = kernel();
  }
  {
    const SimdModeGuard guard(SimdMode::kForceVector);
    vector_out = kernel();
  }
  EXPECT_TRUE(bitwise_equal(scalar_out, vector_out)) << what;
  return vector_out;
}

// Each block kernel: the AVX2 path is bitwise its portable twin, and each
// column is bitwise the single-vector kernel on that column.  Rows run
// past a multiple of 8 (the lane tail), row segments run up to 20 entries
// (the lane wrap), and zero-length segments and -0.0 entries feed -0.0
// partials and sums into the sign-sensitive updates.
TEST(SimdDispatch, BlockKernelsAreBitwiseAcrossPathsAndPerColumn) {
  util::Rng rng(11);
  const std::size_t rows = 1027;
  const auto n = static_cast<index_t>(rows);
  const Vec x = make_block(rng, rows);
  const Vec y = make_block(rng, rows);
  const double a[kW] = {1.5, -0.25, 0.0, 3.0};

  // Reductions and elementwise kernels.
  const Vec dots = both_paths(
      [&] {
        Vec out(kW);
        la::simd::block_dot(x.data(), y.data(), rows, out.data());
        return out;
      },
      "block_dot");
  // The iterate as column vectors, column 1 finished (skipped).
  const auto step_update = [&](const Vec& p) {
    std::vector<Vec> u(kW);
    double* cols[kW];
    for (std::size_t c = 0; c < kW; ++c) {
      u[c] = column(y, c);
      cols[c] = c == 1 ? nullptr : u[c].data();
    }
    Vec out(kW);
    la::simd::block_step_update_max(a, p.data(), cols, rows, out.data());
    for (const Vec& uc : u) out.insert(out.end(), uc.begin(), uc.end());
    return out;
  };
  const Vec steps =
      both_paths([&] { return step_update(x); }, "block_step_update_max");
  const Vec axpys = both_paths(
      [&] {
        Vec out = y;
        la::simd::block_axpy(a, x.data(), out.data(), rows);
        la::simd::block_xpay(x.data(), a, out.data(), rows);
        return out;
      },
      "block_axpy + block_xpay");
  for (std::size_t c = 0; c < kW; ++c) {
    const Vec xc = column(x, c);
    Vec uc = column(y, c);
    EXPECT_TRUE(bitwise_equal(
        dots[c], la::simd::dot_block(xc.data(), uc.data(), rows)));
    const Vec u_before = uc;
    const double mx = la::simd::step_update_max(a[c], xc.data(), uc.data(),
                                                rows);
    EXPECT_TRUE(bitwise_equal(steps[c], mx)) << c;
    const Vec u_after(steps.begin() + static_cast<long>(kW + c * rows),
                      steps.begin() + static_cast<long>(kW + (c + 1) * rows));
    EXPECT_TRUE(bitwise_equal(u_after, c == 1 ? u_before : uc)) << c;
    Vec yc = column(y, c);
    la::simd::axpy(a[c], xc.data(), yc.data(), rows);
    la::simd::xpay(xc.data(), a[c], yc.data(), rows);
    EXPECT_TRUE(bitwise_equal(column(axpys, c), yc)) << c;
  }

  // A NaN step makes the column's max NaN on both paths, single-vector
  // and block alike, so a NaN never passes a stopping test.
  Vec with_nan = x;
  with_nan[5 * kW + 2] = std::numeric_limits<double>::quiet_NaN();
  const Vec nan_max = both_paths([&] { return step_update(with_nan); },
                                 "block_step_update_max with a NaN");
  const Vec nan_single = both_paths(
      [&] {
        Vec u = column(y, 2);
        return Vec{la::simd::step_update_max(
            a[2], column(with_nan, 2).data(), u.data(), rows)};
      },
      "step_update_max with a NaN");
  EXPECT_TRUE(std::isnan(nan_max[2]));
  EXPECT_TRUE(bitwise_equal(nan_max[2], nan_single[0]));
  EXPECT_TRUE(bitwise_equal(nan_max[0], steps[0]));

  // CSR rows of 0..20 entries, some of them -0.0.
  std::vector<index_t> rp{0};
  std::vector<index_t> col;
  Vec val;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < i % 21; ++j) {
      col.push_back(static_cast<index_t>(rng.uniform(0.0, 1.0) * n) % n);
      val.push_back(j % 5 == 0 ? -0.0 : rng.uniform(-1.0, 1.0));
    }
    rp.push_back(static_cast<index_t>(col.size()));
  }
  for (const bool subtract : {false, true}) {
    const Vec spmv = both_paths(
        [&] {
          Vec out = y;
          la::simd::block_csr_rows(rp.data(), col.data(), val.data(),
                                   x.data(), out.data(), 0, n, subtract);
          return out;
        },
        "block_csr_rows");
    for (std::size_t c = 0; c < kW; ++c) {
      const Vec xc = column(x, c);
      Vec yc = column(y, c);
      la::simd::csr_spmv_rows(rp.data(), col.data(), val.data(), xc.data(),
                              yc.data(), 0, n, subtract);
      EXPECT_TRUE(bitwise_equal(column(spmv, c), yc)) << c;
    }
  }

  // The fused sweep phase over SELL leftover rows, in its update form
  // (last and not) and its save form: rows [0, 64) of the CSR rows above,
  // their couplings moved past row 64 as in a colour class, against
  // -row_dot and the single-vector class update per column.
  const index_t updated = 64;
  std::vector<index_t> seg_col = col;
  for (index_t& c : seg_col) c = updated + c % (n - updated);
  const la::CsrMatrix segs(n, n, rp, seg_col, val);
  std::vector<index_t> rest_rows(static_cast<std::size_t>(updated));
  for (index_t i = 0; i < updated; ++i) rest_rows[i] = i;
  const la::SellSegments rest = la::SellSegments::build(
      segs, segs.row_ptr().data(), segs.row_ptr().data() + 1, rest_rows);
  const Vec diag = rng.uniform_vector(rows, 1.0, 2.0);
  const Vec r = make_block(rng, rows);
  for (const int form : {0, 1, 2}) {
    const bool save = form == 2;
    const bool last = form == 1;
    const Vec swept = both_paths(
        [&] {
          Vec z = x;
          Vec aux = y;
          la::simd::block_sweep_segments(la::simd::RunView{}, rest.view(),
                                         diag.data(), 0.75,
                                         save ? nullptr : r.data(), z.data(),
                                         aux.data(), last);
          z.insert(z.end(), aux.begin(), aux.end());
          return z;
        },
        "block_sweep_segments");
    for (std::size_t c = 0; c < kW; ++c) {
      const Vec rc = column(r, c);
      Vec zc = column(x, c);
      Vec auxc = column(y, c);
      for (index_t i = 0; i < updated; ++i) {
        const double sum = la::simd::row_dot(val.data(), seg_col.data(),
                                             zc.data(), rp[i], rp[i + 1]);
        if (save) {
          auxc[i] = -sum;
          continue;
        }
        zc[i] = (auxc[i] - sum + 0.75 * rc[i]) / diag[i];
        auxc[i] = last ? 0.0 : -sum;
      }
      const Vec zs(swept.begin(), swept.begin() + rows * kW);
      const Vec auxs(swept.begin() + rows * kW, swept.end());
      EXPECT_TRUE(bitwise_equal(column(zs, c), zc)) << form << " " << c;
      EXPECT_TRUE(bitwise_equal(column(auxs, c), auxc)) << form << " " << c;
    }
  }
}

// The fused sweep kernel: two hand-built constant-offset runs plus
// leftover SELL slices.  The AVX2 path is bitwise its portable twin, and
// every row is bitwise row_dot over its segment followed by the class
// update.  Run lengths 1..9 cover the 4-row body and the scalar tail; term
// counts 0, 1, 7, 8, 9 and 17 cover the empty sum and the lane wrap.  z
// holds -0.0, +-inf and NaN among the coupled rows, and values hold -0.0
// (so an infinity can meet a zero).  Each row couples to at most one
// non-finite z: IEEE 754 leaves open which payload NaN + NaN keeps, and a
// compiler may commute a scalar add, so no kernel can promise those bits.
TEST(SimdDispatch, SweepSegmentsAreBitwiseRowDotPlusClassUpdate) {
  util::Rng rng(17);
  const index_t n = 260;
  // Rows [120, 140) are updated; every coupling reaches at least 25 rows
  // away, outside that window, as in a colour class.
  Vec z_finite = rng.uniform_vector(static_cast<std::size_t>(n), -1.0, 1.0);
  for (index_t i = 0; i < n; i += 9) z_finite[i] = -0.0;
  const Vec y0 = rng.uniform_vector(static_cast<std::size_t>(n), -1.0, 1.0);
  const Vec r = rng.uniform_vector(static_cast<std::size_t>(n), -1.0, 1.0);
  const Vec diag = rng.uniform_vector(static_cast<std::size_t>(n), 1.0, 2.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {inf, -inf,
                             std::numeric_limits<double>::quiet_NaN()};
  const auto offset = [](index_t k) {
    return (k % 2 == 0 ? -1 : 1) * (25 + 5 * k);
  };

  // Leftover rows 134..139 over a CSR matrix with ragged segments.
  la::CooBuilder coo(n, n);
  for (index_t i = 134; i < 140; ++i) {
    for (index_t k = 0; k < (i * 5) % 11; ++k) {
      coo.add(i, i + offset(k + i % 3),
              k % 4 == 0 ? -0.0 : rng.uniform(-1.0, 1.0));
    }
  }
  const la::CsrMatrix a = coo.build();
  const la::SellSegments rest = la::SellSegments::build(
      a, a.row_ptr().data(), a.row_ptr().data() + 1,
      std::vector<index_t>{134, 135, 136, 137, 138, 139});

  for (const index_t len : {1, 2, 3, 4, 5, 6, 7, 8, 9}) {
    for (const index_t terms : {0, 1, 7, 8, 9, 17}) {
      // Run 0: rows [120, 120 + len) on `terms` offsets; run 1: rows
      // [129, 129 + len1) on the others, ending before the leftovers.
      const index_t len1 = std::min<index_t>(10 - len, 5);
      const index_t terms1 = 17 - terms;
      const std::vector<index_t> row{120, 129};
      const std::vector<index_t> lens{len, len1};
      const std::vector<index_t> off_ptr{0, terms, terms + terms1};
      const std::vector<std::size_t> val_ptr{
          0, static_cast<std::size_t>(terms * len)};
      std::vector<index_t> off;
      for (index_t k = 0; k < terms; ++k) off.push_back(offset(k));
      for (index_t k = 0; k < terms1; ++k) off.push_back(offset(terms1 - k));
      Vec val;
      for (index_t q = 0; q < terms * len + terms1 * len1; ++q) {
        val.push_back(q % 6 == 0 ? -0.0 : rng.uniform(-1.0, 1.0));
      }
      const std::vector<index_t> count{terms, terms1};
      la::simd::RunView runs;
      runs.val = val.data();
      runs.off = off.data();
      runs.row = row.data();
      runs.len = lens.data();
      runs.off_at = off_ptr.data();
      runs.val_at = val_ptr.data();
      runs.count = count.data();
      runs.num_runs = 2;

      // Every updated row's segment in CSR order: (row, values, columns).
      struct Segment {
        index_t row;
        Vec val;
        std::vector<index_t> col;
      };
      std::vector<Segment> segments;
      for (index_t q = 0; q < 2; ++q) {
        for (index_t t = 0; t < lens[q]; ++t) {
          Segment seg{row[q] + t, {}, {}};
          for (index_t k = off_ptr[q]; k < off_ptr[q + 1]; ++k) {
            seg.col.push_back(seg.row + off[k]);
            seg.val.push_back(
                val[val_ptr[q] + (k - off_ptr[q]) * lens[q] + t]);
          }
          segments.push_back(seg);
        }
      }
      for (index_t i = 134; i < 140; ++i) {
        const auto b = a.row_ptr()[i];
        const auto e = a.row_ptr()[i + 1];
        segments.push_back({i, Vec(a.values().begin() + b,
                                   a.values().begin() + e),
                            std::vector<index_t>(a.col_idx().begin() + b,
                                                 a.col_idx().begin() + e)});
      }
      // One non-finite z per row, at a row no other segment reads.
      std::vector<int> readers(static_cast<std::size_t>(n), 0);
      for (const Segment& seg : segments) {
        for (const index_t c : seg.col) ++readers[c];
      }
      Vec z0 = z_finite;
      std::size_t placed = 0;
      for (const Segment& seg : segments) {
        for (const index_t c : seg.col) {
          if (readers[c] != 1) continue;
          z0[c] = specials[placed++ % 3];
          break;
        }
      }

      for (const int form : {0, 1, 2}) {
        const bool save = form == 2;
        const bool last = form == 1;
        const std::string what = "len=" + std::to_string(len) + " terms=" +
                                 std::to_string(terms) + " form=" +
                                 std::to_string(form);
        const Vec out = both_paths(
            [&] {
              Vec z = z0;
              Vec y = y0;
              la::simd::sweep_segments(runs, rest.view(), diag.data(), 0.75,
                                       save ? nullptr : r.data(), z.data(),
                                       y.data(), last);
              z.insert(z.end(), y.begin(), y.end());
              return z;
            },
            what);

        // The reference: row_dot over each row's segment, then the class
        // update.
        Vec z = z0;
        Vec y = y0;
        for (const Segment& seg : segments) {
          const index_t i = seg.row;
          const double sum =
              la::simd::row_dot(seg.val.data(), seg.col.data(), z0.data(), 0,
                                static_cast<index_t>(seg.col.size()));
          if (save) {
            y[i] = -sum;
            continue;
          }
          z[i] = (y[i] - sum + 0.75 * r[i]) / diag[i];
          y[i] = last ? 0.0 : -sum;
        }
        z.insert(z.end(), y.begin(), y.end());
        EXPECT_TRUE(bitwise_equal(out, z)) << what;
      }
    }
  }
}

// The run kernels dispatch each run once on its term count to a kernel
// compiled for that count (longer runs loop over the terms), so every
// count must give row_dot's bits: counts 0-17, across the 8-term lane wrap
// and into the loop, and run lengths 1-9 (the scalar rows of a short run,
// the 4-row body and the masked last rows).  Two runs in one view, on
// `terms` and 17 - terms terms, so the count changes from run to run.
// Values hold explicit zeros and -0.0, x holds -0.0.  Checked for every
// kernel that reads runs: run_spmv_rows over every range that clips the
// runs, sweep_segments, block_run_rows and block_sweep_segments, each
// column of a block against row_dot on that column.
TEST(SimdDispatch, FixedCountRunKernelsAreBitwiseTheLaneSchedule) {
  util::Rng rng(29);
  const index_t n = 300;
  const auto rows = static_cast<std::size_t>(n);
  Vec x = rng.uniform_vector(rows, -1.0, 1.0);
  for (index_t i = 0; i < n; i += 9) x[i] = -0.0;
  const Vec xb = make_block(rng, rows);
  const Vec y0 = rng.uniform_vector(rows, -1.0, 1.0);
  const Vec yb0 = make_block(rng, rows);
  const Vec r = rng.uniform_vector(rows, -1.0, 1.0);
  const Vec rb = make_block(rng, rows);
  const Vec diag = rng.uniform_vector(rows, 1.0, 2.0);
  // Every coupling reaches at least 25 rows away, outside rows [120, 140)
  // that the runs cover, as in a colour class.
  const auto offset = [](index_t k) {
    return (k % 2 == 0 ? -1 : 1) * (25 + 5 * k);
  };

  for (index_t len = 1; len <= 9; ++len) {
    for (index_t terms = 0; terms <= 17; ++terms) {
      const std::vector<index_t> row{120, 130};
      const std::vector<index_t> lens{len, len};
      const std::vector<index_t> count{terms, 17 - terms};
      const std::vector<index_t> off_at{0, terms};
      const std::vector<std::size_t> val_at{
          0, static_cast<std::size_t>(terms * len)};
      std::vector<index_t> off;
      for (index_t k = 0; k < terms; ++k) off.push_back(offset(k));
      for (index_t k = 0; k < 17 - terms; ++k) off.push_back(offset(16 - k));
      Vec val;
      for (index_t q = 0; q < 17 * len; ++q) {
        val.push_back(q % 6 == 0   ? -0.0
                      : q % 6 == 3 ? 0.0
                                   : rng.uniform(-1.0, 1.0));
      }
      la::simd::RunView runs;
      runs.val = val.data();
      runs.off = off.data();
      runs.row = row.data();
      runs.len = lens.data();
      runs.off_at = off_at.data();
      runs.val_at = val_at.data();
      runs.count = count.data();
      runs.num_runs = 2;
      const std::string what =
          "len=" + std::to_string(len) + " terms=" + std::to_string(terms);

      // Each run row's sum over vector v, on row_dot's schedule.
      const auto row_sums = [&](const Vec& v) {
        Vec sums(rows, std::numeric_limits<double>::quiet_NaN());
        for (index_t q = 0; q < 2; ++q) {
          for (index_t t = 0; t < len; ++t) {
            const index_t i = row[q] + t;
            Vec vals;
            std::vector<index_t> cols;
            for (index_t k = 0; k < count[q]; ++k) {
              vals.push_back(val[val_at[q] + static_cast<std::size_t>(
                                                 k * len + t)]);
              cols.push_back(i + off[off_at[q] + k]);
            }
            sums[i] = la::simd::row_dot(vals.data(), cols.data(), v.data(), 0,
                                        count[q]);
          }
        }
        return sums;
      };
      const auto in_runs = [&](index_t i) {
        return (i >= 120 && i < 120 + len) || (i >= 130 && i < 130 + len);
      };
      const Vec sums = row_sums(x);

      // run_spmv_rows, clipped to every range over the runs.
      for (const bool subtract : {false, true}) {
        for (index_t begin = 119; begin <= 140; ++begin) {
          for (index_t end = begin; end <= 140; ++end) {
            const Vec out = both_paths(
                [&] {
                  Vec y = y0;
                  la::simd::run_spmv_rows(runs, x.data(), y.data(), begin,
                                          end, subtract);
                  return y;
                },
                what + " run_spmv_rows");
            Vec want = y0;
            for (index_t i = begin; i < end; ++i) {
              if (!in_runs(i)) continue;
              want[i] = subtract ? want[i] - sums[i] : sums[i];
            }
            ASSERT_TRUE(bitwise_equal(out, want))
                << what << " [" << begin << ", " << end << ")"
                << (subtract ? " subtract" : "");
          }
        }
      }

      // The class update of row i from its sum, as sweep_segments does it.
      const auto update = [&](index_t i, double sum, double ri, double& zi,
                              double& yi, int form) {
        if (form == 2) {
          yi = -sum;
          return;
        }
        zi = (yi - sum + 0.75 * ri) / diag[i];
        yi = form == 1 ? 0.0 : -sum;
      };
      for (const int form : {0, 1, 2}) {
        const double* rv = form == 2 ? nullptr : r.data();
        const double* rbv = form == 2 ? nullptr : rb.data();
        const std::string phase = what + " form=" + std::to_string(form);
        const Vec swept = both_paths(
            [&] {
              Vec z = x;
              Vec y = y0;
              la::simd::sweep_segments(runs, la::simd::SellView{},
                                       diag.data(), 0.75, rv, z.data(),
                                       y.data(), form == 1);
              z.insert(z.end(), y.begin(), y.end());
              return z;
            },
            phase + " sweep_segments");
        Vec want = x;
        Vec want_y = y0;
        for (index_t i = 0; i < n; ++i) {
          if (in_runs(i)) update(i, sums[i], r[i], want[i], want_y[i], form);
        }
        want.insert(want.end(), want_y.begin(), want_y.end());
        EXPECT_TRUE(bitwise_equal(swept, want)) << phase;

        const Vec block_swept = both_paths(
            [&] {
              Vec z = xb;
              Vec y = yb0;
              la::simd::block_sweep_segments(runs, la::simd::SellView{},
                                             diag.data(), 0.75, rbv, z.data(),
                                             y.data(), form == 1);
              z.insert(z.end(), y.begin(), y.end());
              return z;
            },
            phase + " block_sweep_segments");
        const Vec zs(block_swept.begin(), block_swept.begin() + rows * kW);
        const Vec ys(block_swept.begin() + rows * kW, block_swept.end());
        for (std::size_t c = 0; c < kW; ++c) {
          const Vec xc = column(xb, c);
          const Vec sums_c = row_sums(xc);
          const Vec rc = column(rb, c);
          Vec zc = xc;
          Vec yc = column(yb0, c);
          for (index_t i = 0; i < n; ++i) {
            if (in_runs(i)) update(i, sums_c[i], rc[i], zc[i], yc[i], form);
          }
          EXPECT_TRUE(bitwise_equal(column(zs, c), zc)) << phase << " " << c;
          EXPECT_TRUE(bitwise_equal(column(ys, c), yc)) << phase << " " << c;
        }
      }

      // block_run_rows: column c is the run rows' sums over column c.
      for (const bool subtract : {false, true}) {
        const Vec out = both_paths(
            [&] {
              Vec y = yb0;
              la::simd::block_run_rows(runs, xb.data(), y.data(), subtract);
              return y;
            },
            what + " block_run_rows");
        for (std::size_t c = 0; c < kW; ++c) {
          const Vec sums_c = row_sums(column(xb, c));
          Vec want = column(yb0, c);
          for (index_t i = 0; i < n; ++i) {
            if (in_runs(i)) want[i] = subtract ? want[i] - sums_c[i]
                                               : sums_c[i];
          }
          EXPECT_TRUE(bitwise_equal(column(out, c), want))
              << what << " block_run_rows " << c
              << (subtract ? " subtract" : "");
        }
      }
    }
  }
}

// The run storage's block product — with its runs, and without
// (every row through block_csr_rows) — and the block sweep: every column
// is bitwise the single-vector CSR product on both kernel paths.
TEST(SimdDispatch, BlockOperatorsAndSweepMatchSingleVectorPerColumn) {
  const auto p = problems::ProblemRegistry::instance().create("femplate:a=24");
  const auto cs = color::make_colored_system(p.matrix, p.classes);
  const la::CsrMatrix& k = cs.matrix;
  const la::DiaMatrix runs = la::DiaMatrix::from_csr(k);
  const la::DiaMatrix no_runs = la::DiaMatrix::without_runs(k);
  ASSERT_GT(runs.runs().num_runs, 0);
  ASSERT_EQ(no_runs.runs().num_runs, 0);
  const auto rows = static_cast<std::size_t>(k.rows());
  util::Rng rng(13);
  const Vec x = make_block(rng, rows);
  const Vec y = make_block(rng, rows);

  const std::pair<const la::DiaMatrix*, const char*> stores[] = {
      {&runs, "runs"}, {&no_runs, "without_runs"}};
  for (const auto& [store, name] : stores) {
    for (const bool subtract : {false, true}) {
      const std::string what = std::string(name) +
                               (subtract ? " multiply_sub" : " multiply");
      const Vec out = both_paths(
          [&] {
            Vec blk = y;
            store->multiply_block(x.data(), blk.data(), subtract);
            return blk;
          },
          what);
      for (std::size_t c = 0; c < kW; ++c) {
        Vec yc = column(y, c);
        if (subtract) {
          k.multiply_sub(column(x, c), yc);
        } else {
          k.multiply(column(x, c), yc);
        }
        EXPECT_TRUE(bitwise_equal(column(out, c), yc)) << what << " " << c;
      }
    }
  }

  const core::MulticolorMStepSsor sweep(
      cs, core::least_squares_alphas(3, core::ssor_interval()));
  const Vec z = both_paths(
      [&] {
        Vec out;
        sweep.apply_block(x, out, 3);
        return out;
      },
      "apply_block");
  for (std::size_t c = 0; c < kW; ++c) {
    Vec zc;
    sweep.apply(column(x, c), zc);
    EXPECT_TRUE(bitwise_equal(column(z, c), zc)) << "sweep column " << c;
  }
}

// One symmetric pair of NaN couplings, for every coupled pair of the
// 8 x 8 grid: a row that reads one sums to NaN, and the block sweep's class
// update must combine that sum with y and r in the single-vector order,
// (y - sum) + a * r — subtracting a NaN keeps its sign where adding its
// negation flips it — so column 0 of apply_block keeps apply()'s bits on
// both kernel paths.  One step: with more, NaNs of both signs meet in one
// product or sum, and IEEE 754 leaves open which one survives.
TEST(SimdDispatch, NanCouplingsKeepSingleVectorBitsInBlockSweep) {
  const auto p = problems::ProblemRegistry::instance().create("poisson2d:n=8");
  const auto& rp = p.matrix.row_ptr();
  const auto& col = p.matrix.col_idx();
  util::Rng rng(23);
  const Vec r = make_block(rng, static_cast<std::size_t>(p.matrix.rows()));
  const Vec r0 = column(r, 0);
  for (index_t i = 0; i < p.matrix.rows(); ++i) {
    for (index_t t = rp[i]; t < rp[i + 1]; ++t) {
      const index_t j = col[t];
      if (j <= i) continue;
      la::CsrMatrix k = p.matrix;
      k.values()[static_cast<std::size_t>(t)] =
          std::numeric_limits<double>::quiet_NaN();
      const auto back = std::lower_bound(col.begin() + rp[j],
                                         col.begin() + rp[j + 1], i);
      k.values()[static_cast<std::size_t>(back - col.begin())] =
          std::numeric_limits<double>::quiet_NaN();
      const auto cs = color::make_colored_system(k, p.classes);
      const core::MulticolorMStepSsor sweep(
          cs, core::least_squares_alphas(1, core::ssor_interval()));
      for (const SimdMode mode :
           {SimdMode::kForceScalar, SimdMode::kForceVector}) {
        const SimdModeGuard guard(mode);
        Vec block;
        sweep.apply_block(r, block, static_cast<int>(kW));
        Vec single;
        sweep.apply(r0, single);
        ASSERT_TRUE(std::any_of(single.begin(), single.end(),
                                [](double v) { return std::isnan(v); }));
        EXPECT_TRUE(bitwise_equal(column(block, 0), single))
            << "pair " << i << "," << j
            << (mode == SimdMode::kForceScalar ? " scalar" : " vector");
      }
    }
  }
}

// Every splitting, serial and threaded: the full PCG pipeline must
// converge to the bit-identical solution in the same number of
// iterations whichever kernel path runs.
TEST(SimdDispatch, SolvesAreBitwiseForEverySplitting) {
  const auto p = problems::ProblemRegistry::instance().create("femplate:a=8");
  const char* const splittings[] = {"ssor", "jacobi", "richardson"};
  for (const char* splitting : splittings) {
    for (const int threads : {0, 2}) {
      solver::SolverConfig cfg;
      cfg.splitting = splitting;
      if (std::string(splitting) == "richardson") cfg.params = "ones";
      cfg.steps = 2;
      cfg.tolerance = 1e-8;
      cfg.execution.threads = threads;

      solver::SolveReport scalar_run;
      solver::SolveReport vector_run;
      {
        const SimdModeGuard guard(SimdMode::kForceScalar);
        scalar_run =
            solver::Solver::from_config(cfg).solve(p.matrix, p.rhs, p.classes);
      }
      {
        const SimdModeGuard guard(SimdMode::kForceVector);
        vector_run =
            solver::Solver::from_config(cfg).solve(p.matrix, p.rhs, p.classes);
      }
      const std::string label =
          std::string(splitting) + "/threads=" + std::to_string(threads);
      ASSERT_TRUE(scalar_run.converged()) << label;
      ASSERT_TRUE(vector_run.converged()) << label;
      EXPECT_EQ(scalar_run.iterations(), vector_run.iterations()) << label;
      EXPECT_TRUE(bitwise_equal(scalar_run.solution, vector_run.solution))
          << label;
    }
  }
}

}  // namespace
}  // namespace mstep
