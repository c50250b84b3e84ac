// Region-sharded SpMV: the solve loop's K*p products dispatched over the
// shard plan's per-class row strips, one pool task per shard.
//
// Unlike the sweep, SpMV has no inter-class data dependence — x is fully
// formed before the product starts — so no halo staging is needed here;
// each shard reads x directly and writes only its owned rows (CSR, and the
// run storage, whose runs are clipped to each strip) or its slice strip
// (SELL, whose sigma-sorted slices interleave rows across shard
// boundaries, so the strip partition follows slices instead of the
// ownership map).  Every per-row kernel is the serial one on a sub-range,
// so the product is bitwise identical to the serial operator for any
// shard count.
//
// This is the only partitioned SpMV: the solver's outer products and the
// generic m-step engine's K z both run here, on the one strip partition
// the Algorithm-2 sweep uses.
#pragma once

#include "la/linear_operator.hpp"
#include "par/thread_pool.hpp"
#include "shard/partition.hpp"

namespace mstep::shard {

class ShardedOperator final : public la::LinearOperator {
 public:
  // The solver runs the DiaMatrix constructor; outside the tests only
  // perfbench/ runs the CSR and SELL ones, which go with
  // solver::MatrixFormat.
  ShardedOperator(const la::CsrMatrix& a, const ShardPlan& plan,
                  par::ThreadPool& pool)
      : csr_(&a), plan_(&plan), pool_(&pool) {}
  ShardedOperator(const la::DiaMatrix& a, const ShardPlan& plan,
                  par::ThreadPool& pool)
      : dia_(&a), plan_(&plan), pool_(&pool) {}
  ShardedOperator(const la::SellMatrix& a, const ShardPlan& plan,
                  par::ThreadPool& pool)
      : sell_(&a), plan_(&plan), pool_(&pool) {}

  [[nodiscard]] index_t rows() const override;
  void multiply(const Vec& x, Vec& y) const override {
    run(x, y, /*subtract=*/false);
  }
  void multiply_sub(const Vec& x, Vec& y) const override {
    run(x, y, /*subtract=*/true);
  }
  [[nodiscard]] index_t num_nonzero_diagonals() const override;

 private:
  void run(const Vec& x, Vec& y, bool subtract) const;

  const la::CsrMatrix* csr_ = nullptr;
  const la::DiaMatrix* dia_ = nullptr;
  const la::SellMatrix* sell_ = nullptr;
  const ShardPlan* plan_;
  par::ThreadPool* pool_;
};

}  // namespace mstep::shard
