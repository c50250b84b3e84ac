#include "core/multicolor_mstep.hpp"

#include <algorithm>
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

// One phase of the schedule: which class to update (or save/final-solve)
// and which class's ghost rows to drain first — statically the class the
// previous phase updated, which is exactly when its ghosts become stale.
struct MulticolorMStepSsor::Phase {
  enum Kind { kForward, kBackward, kSave, kFinal } kind;
  int cls;        // class updated (kForward/kBackward/kFinal) or 0 (kSave)
  int drain_cls;  // class to drain at phase start; -1 for none
  double alpha;   // step coefficient (kForward/kBackward/kFinal)
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
                                         KernelLog* log, bool verify_halo)
    : MulticolorMStepSsor(std::make_shared<const MulticolorSweepPlan>(
                              cs, std::move(alphas), std::move(strips)),
                          &pool, log, verify_halo) {}

MulticolorMStepSsor::MulticolorMStepSsor(
    std::shared_ptr<const MulticolorSweepPlan> plan, par::ThreadPool* pool,
    KernelLog* log, bool verify_halo)
    : plan_(std::move(plan)), pool_(pool), log_(log),
      verify_halo_(verify_halo) {
  const int ns = plan_->num_strips();
  if (ns == 1) return;
  if (pool_ == nullptr) {
    throw std::invalid_argument(
        "MulticolorMStepSsor: a plan with 2+ strips needs a thread pool");
  }
  for (int to = 0; to < ns; ++to) {
    for (int from = 0; from < ns; ++from) {
      for (int c = 0; c < plan_->cs->num_classes(); ++c) {
        mail_.emplace_back(plan_->halo.recv_rows(to, from, c).size());
      }
    }
  }
  zloc_.resize(ns);
}

void MulticolorMStepSsor::run_strip(const Phase& phase, int s, const Vec& r,
                                    Vec& z) const {
  const MulticolorSweepPlan& plan = *plan_;
  const int ns = plan.num_strips();
  const int nc = plan.cs->num_classes();
  const bool replicated = ns >= 2;
  const auto mailbox = [&](int to, int from, int c) -> shard::GhostMailbox& {
    return mail_[(static_cast<std::size_t>(to) * ns + from) * nc + c];
  };
  Vec& zl = replicated ? zloc_[s] : z;  // one strip works on z itself

  // (1) Drain the previous phase's class into the replica.  Every strip
  // drains every phase — even one with no rows to update — so a mailbox is
  // always consumed before its next post overwrites it.
  if (replicated && phase.drain_cls >= 0) {
    for (int from = 0; from < ns; ++from) {
      const auto& rows = plan.halo.recv_rows(s, from, phase.drain_cls);
      if (rows.empty()) continue;
      const obs::Span halo_span("halo_exchange");
      mailbox(s, from, phase.drain_cls).take(zl, rows, verify_halo_);
      obs::count(obs::Counter::kHaloExchanges, 1);
      obs::count(obs::Counter::kHaloDoubles,
                 static_cast<long long>(rows.size()));
    }
  }

  const int c = phase.cls;
  const std::size_t seg = static_cast<std::size_t>(s) * nc + c;
  const index_t row_begin = plan.strips.begin(s, c);
  const index_t row_end = plan.strips.end(s, c);
  const Vec& diag = plan.splits.diag;
  const double a = phase.alpha;

  if (phase.kind == Phase::kSave) {
    // Class 0's upper sums scatter straight into y.
    const la::SellSegments& segs = plan.upper[seg];
    la::simd::sell_neg_slices(segs.view(), zl.data(), y_.data(), 0,
                              segs.num_slices());
    return;
  }
  if (phase.kind == Phase::kFinal) {
    for (index_t i = row_begin; i < row_end; ++i) {
      z[i] = (y_[i] + a * r[i]) / diag[i];
    }
    return;
  }

  // (2) Segment sums from the replica.
  const la::SellSegments& segs =
      (phase.kind == Phase::kForward ? plan.lower : plan.upper)[seg];
  la::simd::sell_neg_slices(segs.view(), zl.data(), xl_.data(), 0,
                            segs.num_slices());

  // The last class has no upper couplings: its "saved" value for the next
  // use must be the (empty) upper sum, not the lower sum.
  const bool last = phase.kind == Phase::kForward && c == nc - 1;
  const auto update_rows = [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) {
      const double x = xl_[i];
      z[i] = (x + y_[i] + a * r[i]) / diag[i];
      y_[i] = last ? 0.0 : x;
    }
    if (replicated) std::copy(z.begin() + b, z.begin() + e, zl.begin() + b);
  };
  if (!replicated) {
    update_rows(row_begin, row_end);
    return;
  }

  // (3) Boundary rows first, then post them — the sends overlap (4).
  const std::vector<index_t>& boundary = plan.halo.boundary_rows(s, c);
  for (const index_t i : boundary) update_rows(i, i + 1);
  for (int to = 0; to < ns; ++to) {
    const auto& rows = plan.halo.send_rows(s, to, c);
    if (rows.empty()) continue;
    const obs::Span halo_span("halo_exchange");
    mailbox(to, s, c).post(z, rows);
  }
  // (4) Interior rows: the gaps between the sorted, owned boundary rows.
  index_t i = row_begin;
  for (const index_t b : boundary) {
    update_rows(i, b);
    i = b + 1;
  }
  update_rows(i, row_end);
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
  for (Vec& zl : zloc_) zl.assign(n, 0.0);

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
    // backward update of the previous step (y holds its upper sums).  F(0)
    // drains nothing: the previous phase (a save) updates no z class.
    for (int c = 0; c < nc; ++c) {
      run_phase({Phase::kForward, c, c - 1, a}, r, z);
      log_class(c, /*lower=*/true);
    }
    // Backward half-sweep over classes nc-2 .. 1.  Class nc-1 is skipped
    // (its backward value equals the forward value just computed); class 0
    // is deferred (see below).  B(c) drains c+1, updated just before.
    for (int c = nc - 2; c >= 1; --c) {
      run_phase({Phase::kBackward, c, c + 1, a}, r, z);
      log_class(c, /*lower=*/false);
    }
    // Class 0: save its upper sums into y; the solve is deferred to the
    // next forward pass (inner steps) or the final solve below (last step).
    run_phase({Phase::kSave, 0, nc >= 2 ? 1 : 0, a}, r, z);
    if (log_) {
      log_->spmv_diagonals(cs.class_size(0), plan.census.upper[0]);
      log_->end_precond_step();
    }
  }
  // Final deferred class-0 solve with alpha_0 — line (3) of Algorithm 2.
  // It reads only owned y and r, so nothing is drained first.
  run_phase({Phase::kFinal, 0, -1, plan.alphas[0]}, r, z);
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
