#include "core/multicolor_mstep.hpp"

#include <cassert>
#include <stdexcept>

#include "la/simd.hpp"
#include "obs/trace.hpp"

namespace mstep::core {

MulticolorSweepPlan::MulticolorSweepPlan(const color::ColoredSystem& cs,
                                         std::vector<double> alphas,
                                         shard::ShardPlan strips)
    : cs(&cs), alphas(std::move(alphas)),
      splits(color::compute_row_splits(cs)),
      census(color::compute_class_diagonal_census(cs, splits)),
      strips(std::move(strips)) {
  if (this->alphas.empty()) {
    throw std::invalid_argument("MulticolorSweepPlan: need m >= 1");
  }
  if (this->strips.class_start() != cs.class_start) {
    throw std::invalid_argument(
        "MulticolorSweepPlan: strips were not cut from this system");
  }
  const int ns = num_strips();
  if (ns >= 2) halo = shard::HaloPlan(cs, this->strips, splits);

  // Slice every strip's row segments into SELL layout once: the SELL lanes
  // replay row_dot's schedule and negation commutes with rounding, so a
  // strip's sums are the whole-class sums.
  const auto& rp = cs.matrix.row_ptr();
  for (int s = 0; s < ns; ++s) {
    for (int c = 0; c < cs.num_classes(); ++c) {
      const index_t b = this->strips.begin(s, c);
      const index_t e = this->strips.end(s, c);
      lower.push_back(la::SellSegments::build(cs.matrix, rp.data(),
                                              splits.lo_end.data(), b, e));
      upper.push_back(la::SellSegments::build(
          cs.matrix, splits.up_begin.data(), rp.data() + 1, b, e));
    }
  }
}

MulticolorSweepPlan::MulticolorSweepPlan(const color::ColoredSystem& cs,
                                         std::vector<double> alphas,
                                         int strips)
    : MulticolorSweepPlan(cs, std::move(alphas),
                          shard::ShardPlan::build(cs.class_start, strips)) {}

// One phase of the schedule: which class to update (or save/final-solve).
struct MulticolorMStepSsor::Phase {
  enum Kind { kForward, kBackward, kSave, kFinal } kind;
  int cls;       // class updated (kForward/kBackward/kFinal) or 0 (kSave)
  double alpha;  // step coefficient (kForward/kBackward/kFinal)
};

MulticolorMStepSsor::MulticolorMStepSsor(const color::ColoredSystem& cs,
                                         std::vector<double> alphas,
                                         KernelLog* log)
    : MulticolorMStepSsor(
          std::make_shared<const MulticolorSweepPlan>(cs, std::move(alphas)),
          nullptr, log) {}

MulticolorMStepSsor::MulticolorMStepSsor(const color::ColoredSystem& cs,
                                         std::vector<double> alphas,
                                         shard::ShardPlan strips,
                                         par::ThreadPool& pool,
                                         KernelLog* log)
    : MulticolorMStepSsor(std::make_shared<const MulticolorSweepPlan>(
                              cs, std::move(alphas), std::move(strips)),
                          &pool, log) {}

MulticolorMStepSsor::MulticolorMStepSsor(
    std::shared_ptr<const MulticolorSweepPlan> plan, par::ThreadPool* pool,
    KernelLog* log)
    : plan_(std::move(plan)), pool_(pool), log_(log) {
  if (plan_->num_strips() >= 2 && pool_ == nullptr) {
    throw std::invalid_argument(
        "MulticolorMStepSsor: a plan with 2+ strips needs a thread pool");
  }
}

// Strip s's share of one phase, on the z every strip shares.  A class-c
// phase writes z (and y, xl) only at strip s's class-c rows, and its
// segment sums read z only at rows of other classes — the diagonal class
// blocks are diagonal.  A padded SELL lane gathers z at the first row of
// its own slice (la::SellSegments), a row this strip writes only after
// its sums.  So no strip reads a row another strip is writing, and the
// pool rendezvous between phases publishes each phase's writes.
void MulticolorMStepSsor::run_strip(const Phase& phase, int s, const Vec& r,
                                    Vec& z) const {
  const MulticolorSweepPlan& plan = *plan_;
  const int nc = plan.cs->num_classes();
  const int c = phase.cls;
  const std::size_t seg = static_cast<std::size_t>(s) * nc + c;
  const index_t row_begin = plan.strips.begin(s, c);
  const index_t row_end = plan.strips.end(s, c);
  const Vec& diag = plan.splits.diag;
  const double a = phase.alpha;

  if (phase.kind == Phase::kSave) {
    // Class 0's upper sums scatter straight into y.
    const la::SellSegments& segs = plan.upper[seg];
    la::simd::sell_neg_slices(segs.view(), z.data(), y_.data(), 0,
                              segs.num_slices());
    return;
  }
  if (phase.kind == Phase::kFinal) {
    for (index_t i = row_begin; i < row_end; ++i) {
      z[i] = (y_[i] + a * r[i]) / diag[i];
    }
    return;
  }

  const la::SellSegments& segs =
      (phase.kind == Phase::kForward ? plan.lower : plan.upper)[seg];
  la::simd::sell_neg_slices(segs.view(), z.data(), xl_.data(), 0,
                            segs.num_slices());

  // The last class has no upper couplings: its "saved" value for the next
  // use must be the (empty) upper sum, not the lower sum.
  const bool last = phase.kind == Phase::kForward && c == nc - 1;
  for (index_t i = row_begin; i < row_end; ++i) {
    const double x = xl_[i];
    z[i] = (x + y_[i] + a * r[i]) / diag[i];
    y_[i] = last ? 0.0 : x;
  }
}

void MulticolorMStepSsor::run_phase(const Phase& phase, const Vec& r,
                                    Vec& z) const {
  const int ns = plan_->num_strips();
  if (ns == 1) {
    run_strip(phase, 0, r, z);
    return;
  }
  // The pool rendezvous is the inter-phase barrier.  Strip bodies never
  // block on each other, so any strips x threads combination is
  // deadlock-free.
  pool_->for_each(0, ns, [&](index_t s) {
    const obs::Span shard_span("shard");
    run_strip(phase, static_cast<int>(s), r, z);
  });
}

void MulticolorMStepSsor::apply(const Vec& r, Vec& z) const {
  const MulticolorSweepPlan& plan = *plan_;
  const color::ColoredSystem& cs = *plan.cs;
  const index_t n = cs.size();
  assert(static_cast<index_t>(r.size()) == n);
  const int m = steps();
  const int nc = cs.num_classes();

  z.assign(n, 0.0);
  y_.assign(n, 0.0);
  xl_.resize(n);  // written per class before it is read

  // Emitted from the calling thread after each phase, so the stream is
  // the same for every strip count.
  auto log_class = [&](int c, bool lower) {
    if (!log_) return;
    const index_t len = cs.class_size(c);
    log_->spmv_diagonals(len,
                         lower ? plan.census.lower[c] : plan.census.upper[c]);
    log_->vec_op(len, 3);  // x + y + alpha*r fused adds
    log_->diag_op(len);    // divide by D_c
  };

  for (int s = 1; s <= m; ++s) {
    const obs::Span sweep_span("sweep");
    const double a = plan.alphas[m - s];
    // Forward half-sweep.  For class 0 this doubles as the deferred
    // backward update of the previous step (y holds its upper sums).
    for (int c = 0; c < nc; ++c) {
      run_phase({Phase::kForward, c, a}, r, z);
      log_class(c, /*lower=*/true);
    }
    // Backward half-sweep over classes nc-2 .. 1.  Class nc-1 is skipped
    // (its backward value equals the forward value just computed); class 0
    // is deferred (see below).
    for (int c = nc - 2; c >= 1; --c) {
      run_phase({Phase::kBackward, c, a}, r, z);
      log_class(c, /*lower=*/false);
    }
    // Class 0: save its upper sums into y; the solve is deferred to the
    // next forward pass (inner steps) or the final solve below (last step).
    run_phase({Phase::kSave, 0, a}, r, z);
    if (log_) {
      log_->spmv_diagonals(cs.class_size(0), plan.census.upper[0]);
      log_->end_precond_step();
    }
  }
  // Final deferred class-0 solve with alpha_0 — line (3) of Algorithm 2.
  run_phase({Phase::kFinal, 0, plan.alphas[0]}, r, z);
  if (log_) {
    log_->vec_op(cs.class_size(0), 2);
    log_->diag_op(cs.class_size(0));
  }
}

std::string MulticolorMStepSsor::name() const {
  const int ns = plan_->num_strips();
  return "multicolor-ssor-m" + std::to_string(steps()) +
         (ns >= 2 ? "-s" + std::to_string(ns) : "");
}

long long MulticolorMStepSsor::offdiag_traversals_per_apply() const {
  // Per step: all lower entries once (forward) + upper entries of classes
  // nc-2..1 plus class 0 (backward).  Lower and upper entry totals are
  // equal by symmetry; the last class has no upper entries, so the grand
  // total per step is (nnz - n) * (1/2 + 1/2) = nnz - n traversals, i.e.
  // one full off-diagonal traversal per symmetric sweep.
  const long long offdiag = plan_->cs->matrix.nnz() - plan_->cs->size();
  return offdiag * static_cast<long long>(steps());
}

}  // namespace mstep::core
