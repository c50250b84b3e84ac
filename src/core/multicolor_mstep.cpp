#include "core/multicolor_mstep.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "la/simd.hpp"
#include "obs/trace.hpp"

namespace mstep::core {

namespace {

/// The offsets among `segs`' terms that hold a nonzero and are not yet
/// marked `stamp` in `mark` (indexed by offset), marked and counted.
int count_offsets(const la::SweepSegments& segs, int stamp, int* mark) {
  int counted = 0;
  const auto count = [&](index_t offset) {
    if (mark[offset] == stamp) return;
    mark[offset] = stamp;
    ++counted;
  };
  const la::simd::RunView runs = segs.runs();
  for (index_t q = 0; q < runs.num_runs; ++q) {
    const auto len = static_cast<std::size_t>(runs.len[q]);
    for (index_t k = 0; k < runs.count[q]; ++k) {
      const double* v =
          runs.val + runs.val_at[q] + static_cast<std::size_t>(k) * len;
      if (std::any_of(v, v + len, [](double x) { return x != 0.0; })) {
        count(runs.off[runs.off_at[q] + k]);
      }
    }
  }
  const la::simd::SellView rest = segs.rest().view();
  constexpr auto kC = static_cast<index_t>(la::simd::kSellSlice);
  for (index_t slot = 0; slot < rest.num_slices * kC; ++slot) {
    const index_t g = rest.perm[slot];
    if (g < 0) continue;
    const std::size_t base = rest.slice_ptr[slot / kC] + slot % kC;
    for (index_t j = 0; j < rest.len[slot]; ++j) {
      const std::size_t at = base + static_cast<std::size_t>(j) * kC;
      if (rest.val[at] != 0.0) count(rest.col[at] - g);
    }
  }
  return counted;
}

}  // namespace

MulticolorSweepPlan::MulticolorSweepPlan(
    const color::ColoredSystem& cs, std::vector<double> alphas,
    shard::ShardPlan strips, std::shared_ptr<const la::DiaMatrix> store)
    : cs(&cs), alphas(std::move(alphas)),
      splits(color::compute_row_splits(cs)), strips(std::move(strips)),
      store(std::move(store)) {
  if (this->alphas.empty()) {
    throw std::invalid_argument("MulticolorSweepPlan: need m >= 1");
  }
  if (this->strips.class_start() != cs.class_start) {
    throw std::invalid_argument(
        "MulticolorSweepPlan: strips were not cut from this system");
  }
  const int ns = num_strips();
  if (ns >= 2) halo = shard::HaloPlan(cs, this->strips);

  // View every strip's row segments in the store, whose runs never cross a
  // cell: each row's sum keeps row_dot's schedule and negation commutes
  // with rounding, so a strip's sums are the whole-class sums.
  const std::vector<index_t> cells = this->strips.cell_bounds();
  if (!this->store) {
    this->store = std::make_shared<const la::DiaMatrix>(
        la::DiaMatrix::from_csr(cs.matrix, cells));
  }
  const std::vector<index_t>& cuts = this->store->cuts();
  if (this->store->rows() != cs.size() ||
      !std::includes(cuts.begin(), cuts.end(), cells.begin(), cells.end())) {
    throw std::invalid_argument(
        "MulticolorSweepPlan: the store is not cut at the strip cells");
  }
  const auto& rp = cs.matrix.row_ptr();
  const int nc = cs.num_classes();
  for (int s = 0; s < ns; ++s) {
    for (int c = 0; c < nc; ++c) {
      const index_t b = this->strips.begin(s, c);
      const index_t e = this->strips.end(s, c);
      lower.push_back(la::SweepSegments::build(
          *this->store, cs.matrix, rp.data(), splits.lo_end.data(), b, e));
      upper.push_back(la::SweepSegments::build(*this->store, cs.matrix,
                                               splits.up_begin.data(),
                                               rp.data() + 1, b, e));
    }
  }

  // The census from the segments: per run one offset per term, per
  // leftover row its entries.  Lower offsets are negative and upper ones
  // positive, so one mark per offset in (-n, n), stamped with the class
  // that counted it, serves both halves of every class, class by class.
  const index_t n = cs.size();
  std::vector<int> counted_in(2 * static_cast<std::size_t>(n), -1);
  census.lower.assign(nc, 0);
  census.upper.assign(nc, 0);
  for (int c = 0; c < nc; ++c) {
    for (int s = 0; s < ns; ++s) {
      const std::size_t cell = static_cast<std::size_t>(s) * nc + c;
      census.lower[c] += count_offsets(lower[cell], c, counted_in.data() + n);
      census.upper[c] += count_offsets(upper[cell], c, counted_in.data() + n);
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
    : plan_(std::move(plan)), pool_(pool), log_(log) {}

// Strip s's share of one phase, on the z every strip shares.  A class-c
// phase writes z and y only at strip s's class-c rows, and its segment
// sums read z only at rows of other classes — the diagonal class blocks
// are diagonal.  Run rows read z only through their couplings and have no
// padded lanes; a padded SELL lane of the leftover rows gathers z at the
// first row of its own slice (la::SellSegments), a row of this strip.  So
// no strip reads a row another strip is writing, and the pool rendezvous
// between phases publishes each phase's writes.
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

  if (phase.kind == Phase::kFinal) {
    for (index_t i = row_begin; i < row_end; ++i) {
      z[i] = (y_[i] + a * r[i]) / diag[i];
    }
    return;
  }
  // The save phase scatters class 0's upper sums straight into y.  The last
  // class has no upper couplings: its "saved" value for the next use must
  // be the (empty) upper sum, not the lower sum.
  const bool forward = phase.kind == Phase::kForward;
  const la::SweepSegments& segs = (forward ? plan.lower : plan.upper)[seg];
  la::simd::sweep_segments(segs.runs(), segs.rest().view(), diag.data(), a,
                           phase.kind == Phase::kSave ? nullptr : r.data(),
                           z.data(), y_.data(), forward && c == nc - 1);
}

void MulticolorMStepSsor::run_phase(const Phase& phase, const Vec& r,
                                    Vec& z) const {
  const int ns = plan_->num_strips();
  if (ns == 1 || pool_ == nullptr) {
    for (int s = 0; s < ns; ++s) run_strip(phase, s, r, z);
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

// Block form of run_phase over a whole class: every strip's segments in
// turn, on the calling thread.
void MulticolorMStepSsor::run_block_phase(const Phase& phase, const Vec& r,
                                          Vec& z) const {
  constexpr std::size_t kW = la::simd::kSellSlice;
  const MulticolorSweepPlan& plan = *plan_;
  const color::ColoredSystem& cs = *plan.cs;
  const int nc = cs.num_classes();
  const int c = phase.cls;
  const Vec& diag = plan.splits.diag;
  const double a = phase.alpha;

  if (phase.kind == Phase::kFinal) {
    for (index_t i = cs.class_start[c]; i < cs.class_start[c + 1]; ++i) {
      const std::size_t at = static_cast<std::size_t>(i) * kW;
      for (std::size_t k = at; k < at + kW; ++k) {
        z[k] = (y_[k] + a * r[k]) / diag[i];
      }
    }
    return;
  }
  const bool forward = phase.kind == Phase::kForward;
  for (int s = 0; s < plan.num_strips(); ++s) {
    const la::SweepSegments& segs =
        (forward ? plan.lower : plan.upper)[static_cast<std::size_t>(s) * nc +
                                            c];
    la::simd::block_sweep_segments(
        segs.runs(), segs.rest().view(), diag.data(), a,
        phase.kind == Phase::kSave ? nullptr : r.data(), z.data(), y_.data(),
        forward && c == nc - 1);
  }
}

template <typename Run>
void MulticolorMStepSsor::walk(const Run& run, int columns) const {
  const MulticolorSweepPlan& plan = *plan_;
  const color::ColoredSystem& cs = *plan.cs;
  const int m = steps();
  const int nc = cs.num_classes();

  // Emitted from the calling thread after each phase, so the stream is
  // the same for every strip count.
  const auto narrate = [&](auto&& emit) {
    if (!log_) return;
    for (int k = 0; k < columns; ++k) emit();
  };
  auto log_class = [&](int c, bool lower) {
    narrate([&] {
      const index_t len = cs.class_size(c);
      log_->spmv_diagonals(
          len, lower ? plan.census.lower[c] : plan.census.upper[c]);
      log_->vec_op(len, 3);  // x + y + alpha*r fused adds
      log_->diag_op(len);    // divide by D_c
    });
  };

  for (int s = 1; s <= m; ++s) {
    const obs::Span sweep_span("sweep");
    const double a = plan.alphas[m - s];
    // Forward half-sweep.  For class 0 this doubles as the deferred
    // backward update of the previous step (y holds its upper sums).
    for (int c = 0; c < nc; ++c) {
      run(Phase{Phase::kForward, c, a});
      log_class(c, /*lower=*/true);
    }
    // Backward half-sweep over classes nc-2 .. 1.  Class nc-1 is skipped
    // (its backward value equals the forward value just computed); class 0
    // is deferred (see below).
    for (int c = nc - 2; c >= 1; --c) {
      run(Phase{Phase::kBackward, c, a});
      log_class(c, /*lower=*/false);
    }
    // Class 0: save its upper sums into y; the solve is deferred to the
    // next forward pass (inner steps) or the final solve below (last step).
    run(Phase{Phase::kSave, 0, a});
    narrate([&] {
      log_->spmv_diagonals(cs.class_size(0), plan.census.upper[0]);
      log_->end_precond_step();
    });
  }
  // Final deferred class-0 solve with alpha_0 — line (3) of Algorithm 2.
  run(Phase{Phase::kFinal, 0, plan.alphas[0]});
  narrate([&] {
    log_->vec_op(cs.class_size(0), 2);
    log_->diag_op(cs.class_size(0));
  });
}

void MulticolorMStepSsor::apply(const Vec& r, Vec& z) const {
  const index_t n = size();
  assert(static_cast<index_t>(r.size()) == n);
  z.assign(n, 0.0);
  y_.assign(n, 0.0);
  walk([&](const Phase& phase) { run_phase(phase, r, z); }, 1);
}

void MulticolorMStepSsor::apply_block(const Vec& r, Vec& z,
                                      int columns) const {
  const std::size_t len = static_cast<std::size_t>(size()) *
                          la::simd::kSellSlice;
  assert(r.size() == len);
  z.assign(len, 0.0);
  y_.assign(len, 0.0);
  walk([&](const Phase& phase) { run_block_phase(phase, r, z); }, columns);
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
