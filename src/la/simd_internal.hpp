// Internal declarations of the AVX2 kernel variants (src/la/simd_avx2.cpp,
// compiled with -mavx2).  Only src/la/simd.cpp — the dispatcher — may call
// these, and only after checking simd_active(); the public surface is
// la/simd.hpp.  Every function here is the bitwise twin of the portable
// kernel of the same name.
#pragma once

#include <cstddef>

#include "la/simd.hpp"

#if defined(MSTEP_HAS_AVX2)

namespace mstep::la::simd::avx2 {

[[nodiscard]] double dot_block(const double* x, const double* y,
                               std::size_t n);
[[nodiscard]] double row_dot(const double* val, const index_t* col,
                             const double* x, index_t begin, index_t end);
[[nodiscard]] double step_update_max(double a, const double* p, double* u,
                                     std::size_t n);

void axpy(double a, const double* x, double* y, std::size_t n);
void xpay(const double* x, double b, double* y, std::size_t n);
void scale_copy(double a, const double* x, double* y, std::size_t n);
void hadamard(const double* x, const double* y, double* w, std::size_t n);

void csr_spmv_rows(const index_t* rp, const index_t* col, const double* val,
                   const double* x, double* y, index_t row_begin,
                   index_t row_end, bool subtract);
void sell_spmv_slices(const SellView& s, const double* x, double* y,
                      index_t slice_begin, index_t slice_end, bool subtract);
void run_spmv_rows(const RunView& runs, const double* x, double* y,
                   index_t begin, index_t end, bool subtract);
void sweep_segments(const RunView& runs, const SellView& rest,
                    const double* diag, double a, const double* r, double* z,
                    double* y, bool last);

void block_dot(const double* x, const double* y, std::size_t rows,
               double* out);
void block_step_update_max(const double* a, const double* p,
                           double* const* u, std::size_t rows, double* out);
void block_axpy(const double* a, const double* x, double* y,
                std::size_t rows);
void block_xpay(const double* x, const double* b, double* y,
                std::size_t rows);
void block_csr_rows(const index_t* rp, const index_t* col, const double* val,
                    const double* x, double* y, index_t row_begin,
                    index_t row_end, bool subtract);
void block_run_rows(const RunView& runs, const double* x, double* y,
                    bool subtract);
void block_sweep_segments(const RunView& runs, const SellView& rest,
                          const double* diag, double a, const double* r,
                          double* z, double* y, bool last);

}  // namespace mstep::la::simd::avx2

#endif  // MSTEP_HAS_AVX2
