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
/// `nonzero` caches, per start of a store value column, whether the column
/// holds a nonzero (-1: not tested yet), so each distinct column is tested
/// once however many terms share it.
int count_offsets(const la::SweepSegments& segs, int stamp, int* mark,
                  signed char* nonzero) {
  int counted = 0;
  const auto count = [&](index_t offset) {
    if (mark[offset] == stamp) return;
    mark[offset] = stamp;
    ++counted;
  };
  const la::simd::RunView runs = segs.runs();
  for (index_t q = 0; q < runs.num_runs; ++q) {
    const index_t len = runs.len[q];
    for (index_t k = runs.off_at[q]; k < runs.off_at[q] + runs.count[q];
         ++k) {
      signed char& any = nonzero[runs.col[k]];
      if (any < 0) {
        const double* v = runs.val + runs.col[k];
        const bool found =
            std::any_of(v, v + len, [](double x) { return x != 0.0; });
        any = found ? 1 : 0;
      }
      if (any != 0) count(runs.off[k]);
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
    const color::ColoredSystem& cs, const std::vector<int>& owner, int parts,
    std::shared_ptr<const la::DiaMatrix> store)
    : cs(&cs), parts(parts), splits(color::compute_row_splits(cs)),
      halo(cs, owner, parts),  // validates the owner map
      store(std::move(store)) {
  // Each class cut into its parts' ranges: a range ends where the owner
  // changes.  `bounds` collects every range bound, ascending.
  const int nc = cs.num_classes();
  const index_t n = cs.size();
  cell_ranges.resize(static_cast<std::size_t>(parts) * nc);
  std::vector<index_t> bounds;
  for (int c = 0; c < nc; ++c) {
    for (index_t i = cs.class_start[c]; i < cs.class_start[c + 1];) {
      index_t e = i + 1;
      while (e < cs.class_start[c + 1] && owner[e] == owner[i]) ++e;
      cell_ranges[cell(owner[i], c)].push_back({i, e});
      bounds.push_back(i);
      i = e;
    }
  }
  bounds.push_back(n);

  // View every cell's row segments in the store, whose runs never cross a
  // range: each row's sum keeps row_dot's schedule and negation commutes
  // with rounding, so a cell's sums are the whole-class sums.
  if (!this->store) {
    this->store = std::make_shared<const la::DiaMatrix>(
        la::DiaMatrix::from_csr(cs.matrix, bounds));
  }
  const std::vector<index_t>& cuts = this->store->cuts();
  if (this->store->rows() != n ||
      !std::includes(cuts.begin(), cuts.end(), bounds.begin(), bounds.end())) {
    throw std::invalid_argument(
        "MulticolorSweepPlan: the store is not cut at every range bound");
  }
  const auto& rp = cs.matrix.row_ptr();
  for (const std::vector<la::RowSpan>& spans : cell_ranges) {
    lower.push_back(la::SweepSegments::build(
        *this->store, cs.matrix, rp.data(), splits.lo_end.data(), spans));
    upper.push_back(la::SweepSegments::build(
        *this->store, cs.matrix, splits.up_begin.data(), rp.data() + 1, spans));
  }

  // The census from the segments: per run one offset per term, per
  // leftover row its entries.  Lower offsets are negative and upper ones
  // positive, so one mark per offset in (-n, n), stamped with the class
  // that counted it, serves both halves of every class, class by class.
  std::vector<int> counted_in(2 * static_cast<std::size_t>(n), -1);
  std::vector<signed char> nonzero(this->store->held_values(), -1);
  census.lower.assign(nc, 0);
  census.upper.assign(nc, 0);
  for (int c = 0; c < nc; ++c) {
    for (int p = 0; p < parts; ++p) {
      census.lower[c] += count_offsets(lower[cell(p, c)], c,
                                       counted_in.data() + n, nonzero.data());
      census.upper[c] += count_offsets(upper[cell(p, c)], c,
                                       counted_in.data() + n, nonzero.data());
    }
  }
}

MulticolorSweepPlan::MulticolorSweepPlan(const color::ColoredSystem& cs,
                                         int strips)
    : MulticolorSweepPlan(cs,
                          shard::ShardPlan::build(cs.class_start, strips)) {}

// Run rows read z only through their couplings; a padded SELL lane of the
// leftover rows gathers z at the first row of its own slice
// (la::SellSegments), a row of this cell.  So parts sharing one z never
// read a row another part is writing.
void MulticolorSweepPlan::run_part(const SweepPhase& phase, int part,
                                   const double* r, double* z, double* y,
                                   bool block) const {
  const int c = phase.cls;
  const double* diag = splits.diag.data();
  const double a = phase.alpha;
  if (phase.kind == SweepPhase::kFinal) {
    const std::size_t w = block ? la::simd::kSellSlice : 1;
    for (const la::RowSpan& range : ranges(part, c)) {
      for (index_t i = range.begin; i < range.end; ++i) {
        const std::size_t at = static_cast<std::size_t>(i) * w;
        for (std::size_t k = at; k < at + w; ++k) {
          z[k] = (y[k] + a * r[k]) / diag[i];
        }
      }
    }
    return;
  }
  // The save phase scatters class 0's upper sums straight into y.  The last
  // class has no upper couplings: its "saved" value for the next use must
  // be the (empty) upper sum, not the lower sum.
  const bool forward = phase.kind == SweepPhase::kForward;
  const la::SweepSegments& segs = (forward ? lower : upper)[cell(part, c)];
  (block ? la::simd::block_sweep_segments : la::simd::sweep_segments)(
      segs.runs(), segs.rest().view(), diag, a,
      phase.kind == SweepPhase::kSave ? nullptr : r, z, y,
      forward && c == cs->num_classes() - 1);
}

MulticolorMStepSsor::MulticolorMStepSsor(const color::ColoredSystem& cs,
                                         std::vector<double> alphas,
                                         KernelLog* log)
    : MulticolorMStepSsor(std::make_shared<const MulticolorSweepPlan>(cs),
                          std::move(alphas), nullptr, log) {}

MulticolorMStepSsor::MulticolorMStepSsor(const color::ColoredSystem& cs,
                                         std::vector<double> alphas,
                                         const shard::ShardPlan& strips,
                                         par::ThreadPool& pool,
                                         KernelLog* log)
    : MulticolorMStepSsor(
          std::make_shared<const MulticolorSweepPlan>(cs, strips),
          std::move(alphas), &pool, log) {}

MulticolorMStepSsor::MulticolorMStepSsor(
    std::shared_ptr<const MulticolorSweepPlan> plan,
    std::vector<double> alphas, par::ThreadPool* pool, KernelLog* log)
    : plan_(std::move(plan)), alphas_(std::move(alphas)), pool_(pool),
      log_(log) {
  if (alphas_.empty()) {
    throw std::invalid_argument("MulticolorMStepSsor: need m >= 1");
  }
}

void MulticolorMStepSsor::run_phase(const SweepPhase& phase, const Vec& r,
                                    Vec& z) const {
  const MulticolorSweepPlan& plan = *plan_;
  const int parts = plan.num_parts();
  if (parts == 1 || pool_ == nullptr) {
    for (int p = 0; p < parts; ++p) {
      plan.run_part(phase, p, r.data(), z.data(), y_.data());
    }
    return;
  }
  // The pool rendezvous is the inter-phase barrier.  Part bodies never
  // block on each other, so any parts x threads combination is
  // deadlock-free.
  pool_->for_each(0, parts, [&](index_t p) {
    const obs::Span shard_span("shard");
    plan.run_part(phase, static_cast<int>(p), r.data(), z.data(), y_.data());
  });
}

template <typename Run>
void MulticolorMStepSsor::walk(const Run& run, int columns) const {
  const MulticolorSweepPlan& plan = *plan_;
  const color::ColoredSystem& cs = *plan.cs;
  // Emitted from the calling thread after each phase, so the stream is
  // the same for every owner map.
  plan.for_each_phase(alphas_, [&](const SweepPhase& phase) {
    run(phase);
    if (!log_) return;
    const int c = phase.cls;
    const index_t len = cs.class_size(c);
    // Every phase but the final one sums a class half; every phase but
    // the save updates the class: x + y + alpha*r (y + alpha*r in the
    // final one), then the divide by D_c.
    for (int k = 0; k < columns; ++k) {
      if (phase.kind != SweepPhase::kFinal) {
        log_->spmv_diagonals(len, phase.kind == SweepPhase::kForward
                                      ? plan.census.lower[c]
                                      : plan.census.upper[c]);
      }
      if (phase.kind == SweepPhase::kSave) {
        log_->end_precond_step();
        continue;
      }
      log_->vec_op(len, phase.kind == SweepPhase::kFinal ? 2 : 3);
      log_->diag_op(len);
    }
  });
}

void MulticolorMStepSsor::apply(const Vec& r, Vec& z) const {
  const index_t n = size();
  assert(static_cast<index_t>(r.size()) == n);
  z.assign(n, 0.0);
  y_.assign(n, 0.0);
  walk([&](const SweepPhase& phase) { run_phase(phase, r, z); }, 1);
}

void MulticolorMStepSsor::apply_block(const Vec& r, Vec& z,
                                      int columns) const {
  const std::size_t len = static_cast<std::size_t>(size()) *
                          la::simd::kSellSlice;
  assert(r.size() == len);
  z.assign(len, 0.0);
  y_.assign(len, 0.0);
  const MulticolorSweepPlan& plan = *plan_;
  walk(
      [&](const SweepPhase& phase) {
        for (int p = 0; p < plan.num_parts(); ++p) {
          plan.run_part(phase, p, r.data(), z.data(), y_.data(),
                        /*block=*/true);
        }
      },
      columns);
}

std::string MulticolorMStepSsor::name() const {
  const int parts = plan_->num_parts();
  return "multicolor-ssor-m" + std::to_string(steps()) +
         (parts >= 2 ? "-s" + std::to_string(parts) : "");
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
