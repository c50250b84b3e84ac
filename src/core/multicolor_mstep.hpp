// Algorithm 2 of the paper: the m-step multicolor SSOR preconditioner with
// the Conrad–Wallach auxiliary vector.
//
// One m-step SSOR application is m symmetric multicolor SOR sweeps on
// K z = alpha_s r from z = 0.  A naive symmetric sweep computes both the
// strictly-lower and strictly-upper coupling sums in each half-sweep.  The
// Conrad–Wallach trick (1979) stores the lower sums computed during the
// forward half in an auxiliary vector y and reuses them in the backward
// half (and vice versa across steps), so each full symmetric sweep performs
// only ONE traversal of the off-diagonal entries — "only as expensive as
// one Multicolor SOR iteration" (Section 3).
//
// Two further reuse opportunities from the paper are implemented exactly:
//  * the backward half-sweep skips the last colour class (its value would
//    be identical to the forward value just computed), and
//  * the backward update of the FIRST class is deferred: within the step
//    loop the next forward pass performs it (only the alpha coefficient
//    differs, and nobody reads the value in between), and after the last
//    step an explicit final solve with alpha_0 completes it — the "(3)"
//    line after the loop in Algorithms 2/3.
//
// The operator is mathematically identical to
// MStepPreconditioner(SsorSplitting(omega = 1)) applied to the
// colour-permuted matrix; the tests verify the equivalence to rounding.
//
// Storage.  The sweep reads the solve's one matrix storage, la::DiaMatrix:
// constant-offset row runs — the paper's §3.1 diagonal storage, cut to the
// rows that have it — over the CSR rows.  The store is cut at every (strip,
// class) cell, so each run lies in one cell, and for each cell the plan
// keeps two views of its runs (la::SweepSegments): the lower half sums
// each run's leading lower-class terms, the upper half its trailing
// upper-class terms — both a term begin and a count over the same stored
// offsets and values, with no second copy of the couplings.  The rows no
// usable run covers keep their half as SELL slices.  One fused kernel,
// la::simd::sweep_segments, sums 4 rows at a time and applies the class
// update in place; its block form, la::simd::block_sweep_segments, reads
// the same views for apply_block, so no sweep reads the CSR arrays.  Every
// row keeps its CSR term order and row_dot's 8-lane schedule (term k to
// lane k mod 8), and negating the finished sum commutes with rounding, so
// each row's value is bitwise -row_dot(segment) whichever layout holds it.
//
// This is the only implementation of the sweep, for every execution mode:
// an immutable, shareable MulticolorSweepPlan, and engines that own only
// per-call scratch.  The plan cuts every colour class into contiguous
// strips (shard::ShardPlan).  With a pool, N strips run each phase as one
// pool dispatch, every strip reading and writing the one shared z: a
// class-c phase writes only class-c rows, each owned by one strip, its
// segment sums read only rows of other classes, and the pool rendezvous
// orders one phase's writes before the next phase's reads.  Without a pool
// the strips of each phase run inline, in order — with one strip that is
// the serial kernel.  Since each row's bits do not depend on its layout
// and the phase order is the class order, every strip count gives the
// one-strip bits and the same KernelLog stream.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/kernel_log.hpp"
#include "core/preconditioner.hpp"
#include "la/dia_matrix.hpp"
#include "la/sweep_segments.hpp"
#include "par/thread_pool.hpp"
#include "shard/halo.hpp"
#include "shard/partition.hpp"

namespace mstep::core {

/// The immutable part of Algorithm 2 on one coloured system; engines share
/// it through a std::shared_ptr<const MulticolorSweepPlan>.
struct MulticolorSweepPlan {
  /// `cs` must remain alive; its diagonal class blocks must be diagonal
  /// (verified, throws std::invalid_argument otherwise).  `alphas[i]` is
  /// the coefficient of G^i, m = alphas.size() >= 1.  `strips` must be cut
  /// from cs.class_start.  `store` is the matrix storage the sweep reads:
  /// la::DiaMatrix::from_csr(cs.matrix, cuts) with every cell boundary of
  /// `strips` among the cuts (throws std::invalid_argument otherwise);
  /// null builds one cut at exactly those boundaries.
  MulticolorSweepPlan(const color::ColoredSystem& cs,
                      std::vector<double> alphas, shard::ShardPlan strips,
                      std::shared_ptr<const la::DiaMatrix> store = nullptr);
  /// Convenience: shard::ShardPlan::build(cs.class_start, strips) and its
  /// own store.
  MulticolorSweepPlan(const color::ColoredSystem& cs,
                      std::vector<double> alphas, int strips = 1);

  [[nodiscard]] int num_strips() const { return strips.num_shards(); }

  const color::ColoredSystem* cs;
  std::vector<double> alphas;
  color::RowSplits splits;  // diagonal + lower/upper row splits
  shard::ShardPlan strips;
  shard::HaloPlan halo;  // rows strips read from each other; empty with one
  std::shared_ptr<const la::DiaMatrix> store;
  // Per strip and class (index strip * classes + class): the strictly-
  // lower / strictly-upper row segments as views of the store's runs plus
  // SELL leftovers (la::SweepSegments), summed 4 rows at a time and
  // updated in place by simd::sweep_segments — bitwise -row_dot per row,
  // but vectorized ACROSS the class's independent rows.
  std::vector<la::SweepSegments> lower;
  std::vector<la::SweepSegments> upper;
  // Prices each class in the KernelLog: per class, the distinct offsets
  // that hold a nonzero, counted from the segments above.
  color::ClassDiagonalCensus census;
};

/// One Algorithm-2 engine: a shared plan plus this engine's scratch.
/// Engines sharing a plan may apply concurrently from different threads.
class MulticolorMStepSsor : public Preconditioner {
 public:
  /// The serial sweep on a private one-strip plan.
  MulticolorMStepSsor(const color::ColoredSystem& cs,
                      std::vector<double> alphas, KernelLog* log = nullptr);
  /// A private plan on `strips`, run on `pool` (which must outlive the
  /// engine).
  MulticolorMStepSsor(const color::ColoredSystem& cs,
                      std::vector<double> alphas, shard::ShardPlan strips,
                      par::ThreadPool& pool, KernelLog* log = nullptr);
  /// An engine over a shared plan.  With `pool` and two or more strips
  /// each phase is one pool dispatch; without one the strips run inline,
  /// in order.  `log` (optional) receives the kernel stream.
  explicit MulticolorMStepSsor(std::shared_ptr<const MulticolorSweepPlan> plan,
                               par::ThreadPool* pool = nullptr,
                               KernelLog* log = nullptr);

  [[nodiscard]] index_t size() const override { return plan_->cs->size(); }
  void apply(const Vec& r, Vec& z) const override;
  /// apply() on an n x la::simd::kSellSlice row-interleaved block: one
  /// pass over each class's segments (la::simd::block_sweep_segments,
  /// strip by strip) serves every column, and column c of z is bitwise
  /// apply() of column c of r.  Runs serially on the calling thread
  /// whatever the plan's strips.  The kernel log hears `columns` copies
  /// of apply()'s stream — the live columns' census.
  void apply_block(const Vec& r, Vec& z, int columns) const;
  [[nodiscard]] int steps() const override {
    return static_cast<int>(plan_->alphas.size());
  }
  /// "multicolor-ssor-m{m}" with one strip, "...-s{N}" with N strips.
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const std::shared_ptr<const MulticolorSweepPlan>& plan()
      const {
    return plan_;
  }
  [[nodiscard]] const shard::HaloPlan& halo() const { return plan_->halo; }

  /// Off-diagonal entry traversals per apply() — the quantity the
  /// Conrad–Wallach trick halves.  Exposed for the ablation bench.
  [[nodiscard]] long long offdiag_traversals_per_apply() const;

 private:
  struct Phase;
  /// Walks Algorithm 2's phase schedule, calling run(phase) for each and
  /// narrating `columns` copies of the kernel stream.
  template <typename Run>
  void walk(const Run& run, int columns) const;
  void run_phase(const Phase& phase, const Vec& r, Vec& z) const;
  void run_strip(const Phase& phase, int s, const Vec& r, Vec& z) const;
  void run_block_phase(const Phase& phase, const Vec& r, Vec& z) const;

  std::shared_ptr<const MulticolorSweepPlan> plan_;
  par::ThreadPool* pool_;
  KernelLog* log_;

  // apply() is logically const but stages per-call state here: the
  // Conrad–Wallach auxiliary vector (a block in apply_block).
  mutable Vec y_;
};

}  // namespace mstep::core
