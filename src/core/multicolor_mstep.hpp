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
// This is the only implementation of the sweep, for every execution mode:
// an immutable, shareable MulticolorSweepPlan, and engines that own only
// per-call scratch.  The plan cuts every colour class into contiguous
// strips (shard::ShardPlan).  One strip runs each phase inline on z — the
// serial kernel.  N strips run each phase as one pool dispatch, every strip
// reading and writing the one shared z: a class-c phase writes only class-c
// rows, each owned by one strip, its segment sums read only rows of other
// classes, and the pool rendezvous orders one phase's writes before the
// next phase's reads.  la::simd::sell_neg_slices is bitwise -row_dot per
// row however the rows are sliced and the phase order is the class order,
// so every strip count gives the one-strip bits and the same KernelLog
// stream.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/kernel_log.hpp"
#include "core/preconditioner.hpp"
#include "la/sell_matrix.hpp"
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
  /// from cs.class_start.
  MulticolorSweepPlan(const color::ColoredSystem& cs,
                      std::vector<double> alphas, shard::ShardPlan strips);
  /// Convenience: shard::ShardPlan::build(cs.class_start, strips).
  MulticolorSweepPlan(const color::ColoredSystem& cs,
                      std::vector<double> alphas, int strips = 1);

  [[nodiscard]] int num_strips() const { return strips.num_shards(); }

  const color::ColoredSystem* cs;
  std::vector<double> alphas;
  color::RowSplits splits;            // diagonal + lower/upper row splits
  color::ClassDiagonalCensus census;  // prices each class in the KernelLog
  shard::ShardPlan strips;
  shard::HaloPlan halo;  // rows strips read from each other; empty with one
  // Per strip and class (index strip * classes + class): the strictly-
  // lower / strictly-upper row segments in SELL slices, summed 4 rows at a
  // time by simd::sell_neg_slices — bitwise -row_dot per row, but
  // vectorized ACROSS the class's independent rows.
  std::vector<la::SellSegments> lower;
  std::vector<la::SellSegments> upper;
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
  /// An engine over a shared plan.  `pool` is required when the plan has
  /// two or more strips (throws std::invalid_argument otherwise) and
  /// unused with one.  `log` (optional) receives the kernel stream.
  explicit MulticolorMStepSsor(std::shared_ptr<const MulticolorSweepPlan> plan,
                               par::ThreadPool* pool = nullptr,
                               KernelLog* log = nullptr);

  [[nodiscard]] index_t size() const override { return plan_->cs->size(); }
  void apply(const Vec& r, Vec& z) const override;
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
  void run_phase(const Phase& phase, const Vec& r, Vec& z) const;
  void run_strip(const Phase& phase, int s, const Vec& r, Vec& z) const;

  std::shared_ptr<const MulticolorSweepPlan> plan_;
  par::ThreadPool* pool_;
  KernelLog* log_;

  // apply() is logically const but stages per-call state here.
  mutable Vec y_;   // Conrad–Wallach auxiliary vector
  mutable Vec xl_;  // the current class's scattered sums
};

}  // namespace mstep::core
