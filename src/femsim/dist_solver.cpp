#include "femsim/dist_solver.hpp"

#include <algorithm>
#include <cmath>

#include "core/mstep.hpp"
#include "core/params.hpp"
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

DistResult DistributedPlateSolver::solve_with_traffic(
    const DistOptions& options,
    std::vector<std::vector<long long>>* traffic) const {
  const int nprocs = static_cast<int>(pdata_.size());
  const core::MulticolorSweepPlan& plan = *plan_;
  const index_t n = cs_->size();
  const int nc = cs_->num_classes();
  const int m = options.m;
  const std::vector<double> alphas =
      m == 0 ? std::vector<double>{}
             : (options.parametrized
                    ? core::least_squares_alphas(m, core::ssor_interval())
                    : core::unparametrized_alphas(m));

  Machine machine(nprocs, options.costs);

  // Shared outputs, disjointly written by the processors.
  Vec global_u(n, 0.0);
  std::vector<int> iter_of(nprocs, 0);
  std::vector<char> conv_of(nprocs, 0);

  auto program = [&](Proc& proc) {
    const int me = proc.rank();
    const ProcData& pd = pdata_[me];

    // Full-length workspaces; only owned + ghost entries are meaningful.
    Vec u(n, 0.0), r(n, 0.0), z(n, 0.0), p(n, 0.0), w(n, 0.0), y(n, 0.0);

    // --- helpers ----------------------------------------------------------
    // One record per neighbour: the border values of classes
    // c_first..c_last, in the halo plan's row order on both ends.
    auto exchange = [&](Vec& v, int c_first, int c_last, int tag) {
      for (const int q : plan.halo.neighbors(me)) {
        std::vector<double> payload;
        for (int c = c_first; c <= c_last; ++c) {
          for (index_t id : plan.halo.recv_rows(q, me, c)) {
            payload.push_back(v[id]);
          }
        }
        proc.send(q, tag, std::move(payload));
      }
      for (const int q : plan.halo.neighbors(me)) {
        const std::vector<double> data = proc.recv(q, tag);
        std::size_t k = 0;
        for (int c = c_first; c <= c_last; ++c) {
          for (index_t id : plan.halo.recv_rows(me, q, c)) v[id] = data[k++];
        }
      }
    };
    // Dots through la::dot's fixed-block 8-lane schedule (term i -> block
    // i / kReductionBlock, lane i mod 8, blocks summed in order): with one
    // processor this IS the sequential library kernel, which with the
    // plan's sweep and store is what keeps the P=1 solve bitwise identical
    // to core::pcg_solve.
    auto local_dot = [&](const Vec& x, const Vec& yv) {
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
        lane[static_cast<std::size_t>(i) % la::simd::kDotLanes] +=
            x[i] * yv[i];
      }
      if (open) flush();
      proc.compute(2 * static_cast<long long>(pd.owned.size()));
      return total;
    };

    // Algorithm 3: z = M^{-1} r — the plan's phase schedule on this
    // processor's part, each phase priced, with the border exchanges that
    // keep every ghost fresh exactly when it is read (see header).
    auto precond = [&](const Vec& rv, Vec& zv, Vec& yv) {
      if (m == 0) {
        for (index_t i : pd.owned) zv[i] = rv[i];
        proc.compute(static_cast<long long>(pd.owned.size()));
        return;
      }
      std::fill(zv.begin(), zv.end(), 0.0);
      for (index_t i : pd.owned) yv[i] = 0.0;
      plan.for_each_phase(alphas, [&](const core::SweepPhase& phase) {
        plan.run_part(phase, me, rv.data(), zv.data(), yv.data());
        const int c = phase.cls;
        switch (phase.kind) {
          case core::SweepPhase::kForward:
            proc.compute(2 * pd.nnz_lower[c] + 4 * pd.rows[c]);
            if (c % 2 == 1) exchange(zv, c - 1, c, /*tag=*/10 + c);
            break;
          case core::SweepPhase::kBackward:
            proc.compute(2 * pd.nnz_upper[c] + 4 * pd.rows[c]);
            if (c % 2 == 0) exchange(zv, c, c + 1, /*tag=*/20 + c);
            break;
          case core::SweepPhase::kSave:
            proc.compute(2 * pd.nnz_upper[0]);
            break;
          case core::SweepPhase::kFinal:
            proc.compute(3 * pd.rows[0]);
            break;
        }
      });
    };

    // --- Algorithm 1 -------------------------------------------------------
    for (index_t i : pd.owned) r[i] = f_colored_[i];  // u0 = 0
    precond(r, z, y);
    for (index_t i : pd.owned) p[i] = z[i];
    proc.compute(static_cast<long long>(pd.owned.size()));
    double rho = proc.allreduce_sum(local_dot(z, r));

    int iterations = 0;
    bool converged = false;
    for (int it = 0; it < options.max_iterations; ++it) {
      // Border p values, one record per neighbour (all colours at once).
      exchange(p, 0, nc - 1, /*tag=*/1);
      // w = K p on owned rows: the plan's store over this part's ranges.
      for (int c = 0; c < nc; ++c) {
        for (const la::RowSpan& range : plan.ranges(me, c)) {
          plan.store->multiply_rows(p, w, range.begin, range.end,
                                    /*subtract=*/false);
        }
      }
      proc.compute(2 * pd.nnz_owned);

      const double pw = proc.allreduce_sum(local_dot(p, w));
      if (pw <= 0.0) break;
      const double alpha = rho / pw;

      double delta_inf = 0.0;
      for (index_t i : pd.owned) {
        const double step = alpha * p[i];
        u[i] += step;
        delta_inf = std::max(delta_inf, std::abs(step));
      }
      for (index_t i : pd.owned) r[i] -= alpha * w[i];
      proc.compute(5 * static_cast<long long>(pd.owned.size()));

      iterations = it + 1;
      if (proc.all_flags(delta_inf < options.tolerance)) {
        converged = true;
        break;
      }

      precond(r, z, y);
      const double rho_new = proc.allreduce_sum(local_dot(z, r));
      const double beta = rho_new / rho;
      rho = rho_new;
      for (index_t i : pd.owned) p[i] = z[i] + beta * p[i];
      proc.compute(2 * static_cast<long long>(pd.owned.size()));
    }

    for (index_t i : pd.owned) global_u[i] = u[i];
    iter_of[proc.rank()] = iterations;
    conv_of[proc.rank()] = converged ? 1 : 0;
  };

  machine.run(program);

  DistResult res;
  res.iterations = iter_of[0];
  res.converged = conv_of[0] != 0;
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
