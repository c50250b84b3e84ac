#include "femsim/dist_solver.hpp"

#include <algorithm>
#include <cmath>

#include "core/mstep.hpp"
#include "core/params.hpp"
#include "core/pcg_iterate.hpp"
#include "la/simd.hpp"

namespace mstep::femsim {

DistributedPlateSolver::DistributedPlateSolver(const fem::PlateMesh& mesh,
                                               const fem::Material& mat,
                                               const fem::EdgeLoad& load,
                                               const Assignment& assignment) {
  auto sys = fem::assemble_plane_stress(mesh, mat, load);
  cs_ = std::make_unique<const color::ColoredSystem>(color::make_colored_system(
      sys.stiffness, color::six_color_classes(mesh)));
  f_colored_ = cs_->permute(sys.load);

  // Owner of every (colored-ordering) equation, from the node assignment.
  std::vector<int> owner(cs_->size(), -1);
  for (index_t old_eq = 0; old_eq < cs_->size(); ++old_eq) {
    const auto [node, dof] = mesh.equation_node_dof(old_eq);
    (void)dof;
    owner[cs_->inv_perm[old_eq]] = assignment.proc_of_node[node];
  }
  build_proc_data(owner, assignment.nprocs);
}

DistributedPlateSolver::DistributedPlateSolver(
    color::ColoredSystem cs, Vec f_colored,
    const std::vector<int>& owner_of_eq, int nprocs)
    : cs_(std::make_unique<const color::ColoredSystem>(std::move(cs))),
      f_colored_(std::move(f_colored)) {
  build_proc_data(owner_of_eq, nprocs);
}

void DistributedPlateSolver::build_proc_data(
    const std::vector<int>& owner, int nprocs) {
  // The plan validates the owner map that indexes pdata_ below.
  plan_ = std::make_unique<const core::MulticolorSweepPlan>(*cs_, owner,
                                                            nprocs);
  const int nc = cs_->num_classes();
  const auto& rp = cs_->matrix.row_ptr();

  pdata_.assign(nprocs, {});
  for (auto& pd : pdata_) {
    pd.rows.assign(nc, 0);
    pd.nnz_lower.assign(nc, 0);
    pd.nnz_upper.assign(nc, 0);
  }
  for (int c = 0; c < nc; ++c) {
    for (index_t i = cs_->class_start[c]; i < cs_->class_start[c + 1]; ++i) {
      ProcData& pd = pdata_[owner[i]];
      pd.owned.push_back(i);
      pd.nnz_owned += rp[i + 1] - rp[i];
      ++pd.rows[c];
      pd.nnz_lower[c] += plan_->splits.lo_end[i] - rp[i];
      pd.nnz_upper[c] += rp[i + 1] - plan_->splits.up_begin[i];
    }
  }
}

DistResult DistributedPlateSolver::solve(const DistOptions& options) const {
  return solve_with_traffic(options, nullptr);
}

/// Algorithm 1's backend on one simulated processor: core's iteration
/// body (core/pcg_iterate.hpp) runs on every processor at once, each on
/// full-length vectors of which only its own rows, and the ghosts its
/// exchanges fill, are meaningful.  Reductions go through the sum network
/// and the stopping decision through the flag network, so every
/// processor takes every branch together.  Each kernel is priced on the
/// processor's clock, in Algorithm 3's order and amounts.
struct DistributedPlateSolver::ProcBackend {
  const la::DiaMatrix& k;
  core::PcgWorkspace& ws;
  core::PcgResult& res;
  const DistributedPlateSolver& solver;
  const std::vector<double>& alphas;  // empty for m = 0: z = r
  double f_norm;
  Proc& proc;
  const ProcData& pd;
  Vec y;  // the sweep's Conrad–Wallach sums

  [[nodiscard]] index_t diagonals() const { return k.num_diagonals(); }
  [[nodiscard]] long long owned() const {
    return static_cast<long long>(pd.owned.size());
  }

  void residual0() {
    const auto n = static_cast<std::size_t>(k.rows());
    for (Vec* v : {&res.solution, &ws.r, &ws.p, &ws.zw, &y}) v->assign(n, 0.0);
    for (index_t i : pd.owned) ws.r[i] = solver.f_colored_[i];  // u0 = 0
  }
  // With u0 = 0, r0 = f: the zero-load guard and ||f|| read the whole
  // load every processor holds, off the machine's clock (Algorithm 3 has
  // no such test).
  void residual0_nrm2(double* out) const { out[0] = f_norm; }
  void rhs_nrm2(double* out) const { out[0] = f_norm; }
  void nrm2(const Vec& x, double* out) {
    dot(x, x, out);
    out[0] = std::sqrt(out[0]);
  }

  /// The part's partial in la::dot's fixed-block 8-lane schedule (term i
  /// -> block i / kReductionBlock, lane i mod 8, blocks summed in order),
  /// combined in rank order: with one processor this IS the sequential
  /// library kernel, which with the plan's sweep and store keeps the P=1
  /// solve bitwise core::pcg_solve.
  void dot(const Vec& x, const Vec& yv, double* out) {
    double total = 0.0;
    double lane[la::simd::kDotLanes] = {};
    index_t block = 0;
    bool open = false;
    auto flush = [&] {
      double s = lane[0];
      for (std::size_t l = 1; l < la::simd::kDotLanes; ++l) s += lane[l];
      total += s;
      std::fill(std::begin(lane), std::end(lane), 0.0);
    };
    for (index_t i : pd.owned) {  // ascending
      const index_t b = i / la::kReductionBlock;
      if (open && b != block) flush();
      block = b;
      open = true;
      // kReductionBlock is a multiple of kDotLanes, so the in-block lane
      // of term i is simply i mod kDotLanes.
      lane[static_cast<std::size_t>(i) % la::simd::kDotLanes] += x[i] * yv[i];
    }
    if (open) flush();
    proc.compute(2 * owned());
    out[0] = proc.allreduce_sum(total);
  }

  /// One record per neighbour: the border values of classes
  /// c_first..c_last, in the halo plan's row order on both ends.
  void exchange(Vec& v, int c_first, int c_last, int tag) {
    const shard::HaloPlan& halo = solver.plan_->halo;
    const int me = proc.rank();
    for (const int q : halo.neighbors(me)) {
      std::vector<double> payload;
      for (int c = c_first; c <= c_last; ++c) {
        for (index_t id : halo.recv_rows(q, me, c)) payload.push_back(v[id]);
      }
      proc.send(q, tag, std::move(payload));
    }
    for (const int q : halo.neighbors(me)) {
      const std::vector<double> data = proc.recv(q, tag);
      std::size_t at = 0;
      for (int c = c_first; c <= c_last; ++c) {
        for (index_t id : halo.recv_rows(me, q, c)) v[id] = data[at++];
      }
    }
  }

  /// w = K p on the owned rows: the border p values (one record per
  /// neighbour, all colours at once), then the plan's store over this
  /// part's ranges.
  void multiply(Vec& p, Vec& w) {
    exchange(p, 0, solver.cs_->num_classes() - 1, /*tag=*/1);
    for (int c = 0; c < solver.cs_->num_classes(); ++c) {
      for (const la::RowSpan& range : solver.plan_->ranges(proc.rank(), c)) {
        k.multiply_rows(p, w, range.begin, range.end, /*subtract=*/false);
      }
    }
    proc.compute(2 * pd.nnz_owned);
  }

  /// Algorithm 3: z = M^{-1} r — the plan's phase schedule on this
  /// processor's part, each phase priced, with the border exchanges that
  /// keep every ghost fresh exactly when it is read (see header).
  void precondition(const Vec& r, Vec& z, int /*nlive*/) {
    if (alphas.empty()) {
      copy(r, z);
      return;
    }
    const core::MulticolorSweepPlan& plan = *solver.plan_;
    std::fill(z.begin(), z.end(), 0.0);
    for (index_t i : pd.owned) y[i] = 0.0;
    plan.for_each_phase(alphas, [&](const core::SweepPhase& phase) {
      plan.run_part(phase, proc.rank(), r.data(), z.data(), y.data());
      const int c = phase.cls;
      switch (phase.kind) {
        case core::SweepPhase::kForward:
          proc.compute(2 * pd.nnz_lower[c] + 4 * pd.rows[c]);
          if (c % 2 == 1) exchange(z, c - 1, c, /*tag=*/10 + c);
          break;
        case core::SweepPhase::kBackward:
          proc.compute(2 * pd.nnz_upper[c] + 4 * pd.rows[c]);
          if (c % 2 == 0) exchange(z, c, c + 1, /*tag=*/20 + c);
          break;
        case core::SweepPhase::kSave:
          proc.compute(2 * pd.nnz_upper[0]);
          break;
        case core::SweepPhase::kFinal:
          proc.compute(3 * pd.rows[0]);
          break;
      }
    });
  }

  void copy(const Vec& x, Vec& v) {
    for (index_t i : pd.owned) v[i] = x[i];
    proc.compute(owned());
  }
  /// Unpriced: axpy prices the u and r updates together, as one step.
  void step_update_max(const double* a, const Vec& p, double* out) {
    double delta_inf = 0.0;
    for (index_t i : pd.owned) {
      const double step = a[0] * p[i];
      res.solution[i] += step;
      delta_inf = std::max(delta_inf, std::abs(step));
    }
    out[0] = delta_inf;
  }
  void axpy(const double* a, const Vec& x, Vec& v) {
    for (index_t i : pd.owned) v[i] += a[0] * x[i];
    proc.compute(5 * owned());
  }
  void xpay(const Vec& x, const double* b, Vec& v) {
    for (index_t i : pd.owned) v[i] = x[i] + b[0] * v[i];
    proc.compute(2 * owned());
  }
  /// Each processor raises its flag when its own rows meet the test.
  bool converged(double value, double bound) {
    return proc.all_flags(value < bound);
  }
  void retire(std::size_t /*c*/, bool /*final_residual*/) {}
};

DistResult DistributedPlateSolver::solve_with_traffic(
    const DistOptions& options,
    std::vector<std::vector<long long>>* traffic) const {
  const int nprocs = static_cast<int>(pdata_.size());
  const int m = options.m;
  const std::vector<double> alphas =
      m == 0 ? std::vector<double>{}
             : (options.parametrized
                    ? core::least_squares_alphas(m, core::ssor_interval())
                    : core::unparametrized_alphas(m));
  core::PcgOptions pcg;
  pcg.tolerance = options.tolerance;
  pcg.max_iterations = options.max_iterations;
  const double f_norm = la::nrm2(f_colored_);

  Machine machine(nprocs, options.costs);

  // Shared outputs, disjointly written by the processors; every
  // processor stops at the same step, so rank 0 reports it.
  Vec global_u(cs_->size(), 0.0);
  DistResult res;

  auto program = [&](Proc& proc) {
    const ProcData& pd = pdata_[proc.rank()];
    core::PcgWorkspace ws;
    core::PcgResult pcg_res;
    ProcBackend b{*plan_->store, ws, pcg_res, *this, alphas, f_norm, proc, pd,
                  {}};
    core::detail::iterate(b, 1, pcg, nullptr, &pcg_res);
    for (index_t i : pd.owned) global_u[i] = pcg_res.solution[i];
    if (proc.rank() == 0) {
      res.iterations = pcg_res.iterations;
      res.converged = pcg_res.converged;
    }
  };

  machine.run(program);

  res.simulated_seconds = machine.simulated_seconds();
  res.max_compute_seconds = machine.max_compute_seconds();
  res.max_comm_seconds = machine.max_comm_seconds();
  res.max_idle_seconds = machine.max_idle_seconds();
  res.total_records = machine.total_records();
  res.solution = cs_->unpermute(global_u);
  if (traffic != nullptr) {
    traffic->assign(nprocs, std::vector<long long>(nprocs, 0));
    for (int i = 0; i < nprocs; ++i) {
      for (int j = 0; j < nprocs; ++j) {
        (*traffic)[i][j] = machine.records_sent(i, j);
      }
    }
  }
  return res;
}

}  // namespace mstep::femsim
