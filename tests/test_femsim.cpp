// Tests for the Finite Element Machine simulator: the message-passing
// machine itself, the node assignments of Figures 3/5, and the distributed
// solver's exact agreement with the sequential algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "color/coloring.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/mstep.hpp"
#include "core/params.hpp"
#include "core/pcg.hpp"
#include "fem/plane_stress.hpp"
#include "fem/tri_mesh.hpp"
#include "femsim/assignment.hpp"
#include "femsim/dist_solver.hpp"
#include "femsim/machine.hpp"
#include "shard/halo.hpp"
#include "util/rng.hpp"

namespace mstep::femsim {
namespace {

// ---- machine primitives -----------------------------------------------------

TEST(Machine, SendRecvDeliversData) {
  Machine m(2, FemCosts{});
  std::vector<double> got;
  m.run([&](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 7, {1.0, 2.0, 3.0});
    } else {
      got = p.recv(0, 7);
    }
  });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_DOUBLE_EQ(got[1], 2.0);
}

TEST(Machine, RecvMatchesTag) {
  Machine m(2, FemCosts{});
  std::vector<double> first, second;
  m.run([&](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 1, {1.0});
      p.send(1, 2, {2.0});
    } else {
      second = p.recv(0, 2);  // out of order on purpose
      first = p.recv(0, 1);
    }
  });
  EXPECT_DOUBLE_EQ(first[0], 1.0);
  EXPECT_DOUBLE_EQ(second[0], 2.0);
}

TEST(Machine, ClockAdvancesWithCompute) {
  FemCosts c;
  Machine m(1, c);
  m.run([&](Proc& p) {
    p.compute(1000);
    EXPECT_NEAR(p.clock(), 1000 * c.t_flop, 1e-12);
  });
}

TEST(Machine, ReceiverWaitsForSenderClock) {
  FemCosts c;
  Machine m(2, c);
  double recv_clock = 0.0;
  m.run([&](Proc& p) {
    if (p.rank() == 0) {
      p.compute(10000);  // sender is busy first
      p.send(1, 1, {42.0});
    } else {
      (void)p.recv(0, 1);
      recv_clock = p.clock();
    }
  });
  // Receiver clock >= sender compute + record cost.
  EXPECT_GE(recv_clock, 10000 * c.t_flop + c.t_record);
}

TEST(Machine, AllreduceSumsDeterministically) {
  Machine m(5, FemCosts{});
  std::vector<double> results(5);
  m.run([&](Proc& p) {
    results[p.rank()] = p.allreduce_sum(0.1 * (p.rank() + 1));
  });
  for (int i = 1; i < 5; ++i) EXPECT_DOUBLE_EQ(results[i], results[0]);
  EXPECT_NEAR(results[0], 0.1 + 0.2 + 0.3 + 0.4 + 0.5, 1e-15);
}

TEST(Machine, AllreduceSynchronizesClocks) {
  FemCosts c;
  Machine m(3, c);
  std::vector<double> clocks(3);
  m.run([&](Proc& p) {
    p.compute(1000LL * (p.rank() + 1));
    (void)p.allreduce_sum(1.0);
    clocks[p.rank()] = p.clock();
  });
  // Everyone ends at the slowest clock plus the reduction cost.
  const double expect = 3000 * c.t_flop + 2 * c.t_reduce_stage;
  for (double t : clocks) EXPECT_NEAR(t, expect, 1e-12);
}

TEST(Machine, FlagNetworkAllAndNotAll) {
  Machine m(4, FemCosts{});
  std::vector<int> all(4), some(4);
  m.run([&](Proc& p) {
    all[p.rank()] = p.all_flags(true) ? 1 : 0;
    some[p.rank()] = p.all_flags(p.rank() != 2) ? 1 : 0;
  });
  for (int v : all) EXPECT_EQ(v, 1);
  for (int v : some) EXPECT_EQ(v, 0);
}

TEST(Machine, SummaxCircuitReducesStages) {
  FemCosts soft;
  FemCosts hard = soft;
  hard.use_summax_circuit = true;
  Machine m1(8, soft), m2(8, hard);
  auto prog = [](Proc& p) { (void)p.allreduce_sum(1.0); };
  m1.run(prog);
  m2.run(prog);
  // 7 software stages vs ceil(log2 8) = 3.
  EXPECT_NEAR(m1.simulated_seconds() / m2.simulated_seconds(), 7.0 / 3.0,
              1e-9);
}

TEST(Machine, TrafficCensusCountsRecords) {
  Machine m(3, FemCosts{});
  m.run([&](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 1, {1.0});
      p.send(1, 1, {2.0});
      p.send(2, 1, {3.0});
    } else {
      (void)p.recv(0, 1);
      if (p.rank() == 1) (void)p.recv(0, 1);
    }
  });
  EXPECT_EQ(m.records_sent(0, 1), 2);
  EXPECT_EQ(m.records_sent(0, 2), 1);
  EXPECT_EQ(m.records_sent(1, 0), 0);
  EXPECT_EQ(m.total_records(), 3);
}

// ---- assignments (Figures 3 and 5) -------------------------------------------

TEST(Assignment, Figure5TwoProcessorBandsAreBalanced) {
  const fem::PlateMesh mesh(6, 6);  // the 60-equation Table 3 problem
  const Assignment a = row_bands(mesh, 2);
  const AssignmentStats st = analyze(a, mesh);
  EXPECT_TRUE(st.colors_balanced);
  EXPECT_TRUE(st.borders_equal);
  EXPECT_EQ(st.max_nodes, 15);
  EXPECT_EQ(st.min_nodes, 15);
}

TEST(Assignment, Figure5FiveProcessorStripsAreBalanced) {
  const fem::PlateMesh mesh(6, 6);
  const Assignment a = column_strips(mesh, 5);
  const AssignmentStats st = analyze(a, mesh);
  EXPECT_TRUE(st.colors_balanced);
  EXPECT_EQ(st.max_nodes, 6);
  EXPECT_EQ(st.min_nodes, 6);
  // Paper: "each processor has an equal number of R, B, and G nodes":
  for (const auto& cc : st.color_counts) {
    EXPECT_EQ(cc[0], 2);
    EXPECT_EQ(cc[1], 2);
    EXPECT_EQ(cc[2], 2);
  }
}

// Two free nodes CAN share coordinates (a seam where two plates are
// stitched, an L-shape's re-entrant corner duplicated by a mesh tool).
// The strip order is (x, y, node id) — the id tie-break makes it TOTAL,
// so the ownership boundary between coincident nodes never depends on
// std::sort's partition choices: the lower node id always gets the lower
// (or equal) strip.  Shard partitions and halo plans key off this
// ownership, so it must be deterministic across standard libraries.
TEST(Assignment, CoordinateStripTieBreaksOnNodeId) {
  fem::TriMesh mesh;
  // Four coincident free nodes at (0.5, 0.5) interleaved with distinct
  // ones, plus a constrained node that must stay unassigned.
  const index_t a = mesh.add_node(0.0, 0.0);
  const index_t d0 = mesh.add_node(0.5, 0.5);
  const index_t b = mesh.add_node(0.25, 0.75);
  const index_t d1 = mesh.add_node(0.5, 0.5);
  const index_t fixed = mesh.add_node(0.4, 0.4, /*constrained=*/true);
  const index_t d2 = mesh.add_node(0.5, 0.5);
  const index_t d3 = mesh.add_node(0.5, 0.5);
  const index_t c = mesh.add_node(1.0, 0.25);
  mesh.add_triangle(a, d0, b);
  mesh.add_triangle(d0, b, d1);
  mesh.add_triangle(d1, fixed, d2);
  mesh.add_triangle(d2, d3, c);
  mesh.finalize();

  // 7 free nodes in (x, y, id) order: a, b, d0, d1, d2, d3, c — cut into
  // 3 strips of sizes 3/2/2 by the k*p/total rule.  The boundary falls
  // BETWEEN coincident nodes: only the id tie-break decides that d1 ends
  // strip 0 and d2 starts strip 1, deterministically.
  const auto owner = coordinate_strip_owner(mesh, 3);
  EXPECT_EQ(owner[fixed], -1);
  EXPECT_EQ(owner[a], 0);
  EXPECT_EQ(owner[b], 0);
  EXPECT_EQ(owner[d0], 0);
  EXPECT_EQ(owner[d1], 1);
  EXPECT_EQ(owner[d2], 1);
  EXPECT_EQ(owner[d3], 2);
  EXPECT_EQ(owner[c], 2);

  // The duplicated group stays in ascending-strip order by id: the
  // assignment is monotone in node id within a coordinate tie.
  EXPECT_LE(owner[d0], owner[d1]);
  EXPECT_LE(owner[d1], owner[d2]);
  EXPECT_LE(owner[d2], owner[d3]);
}

TEST(Assignment, RejectsNonDividingCounts) {
  const fem::PlateMesh mesh(6, 6);
  EXPECT_THROW(row_bands(mesh, 4), std::invalid_argument);
  EXPECT_THROW(column_strips(mesh, 3), std::invalid_argument);
}

TEST(Assignment, RectangularBlocksCoverFigure3) {
  // Figure 3b-style: 2x2 processors on a plate with 6 rows, 6 unconstrained
  // columns -> 9 nodes per processor.
  const fem::PlateMesh mesh(6, 7);
  const Assignment a = rectangular_blocks(mesh, 2, 2);
  const AssignmentStats st = analyze(a, mesh);
  EXPECT_EQ(st.max_nodes, 9);
  EXPECT_EQ(st.min_nodes, 9);
  EXPECT_TRUE(st.colors_balanced);
}

TEST(Assignment, NeighborPairsForStrips) {
  const fem::PlateMesh mesh(6, 6);
  const Assignment a = column_strips(mesh, 5);
  const auto pairs = neighbor_pairs(a, mesh);
  // Strips form a path: 0-1, 1-2, 2-3, 3-4.
  ASSERT_EQ(pairs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pairs[i].first, i);
    EXPECT_EQ(pairs[i].second, i + 1);
  }
}

TEST(Assignment, BlockPartitionUsesSixOfEightLinks) {
  // Figure 4: with the down-right diagonal triangulation a block partition
  // talks to L, R, U, D, and the two anti-diagonal corners only.
  const fem::PlateMesh mesh(9, 10);  // 9 rows, 9 unconstrained cols
  const Assignment a = rectangular_blocks(mesh, 3, 3);
  const auto pairs = neighbor_pairs(a, mesh);
  // Center processor (rank 4) must have exactly 6 neighbours.
  int center_links = 0;
  for (auto [p, q] : pairs) {
    if (p == 4 || q == 4) ++center_links;
  }
  EXPECT_EQ(center_links, 6);
}

// ---- distributed solver ---------------------------------------------------------

struct Table3Problem {
  fem::PlateMesh mesh{6, 6};
  fem::Material mat{};
  fem::EdgeLoad load{1.0, 0.0};
};

class DistSolverVsSequential
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DistSolverVsSequential, MatchesSequentialPcg) {
  const auto [nprocs, m] = GetParam();
  Table3Problem prob;
  const Assignment assign =
      nprocs == 1 ? row_bands(prob.mesh, 1)
                  : (nprocs == 2 ? row_bands(prob.mesh, 2)
                                 : column_strips(prob.mesh, 5));
  const DistributedPlateSolver solver(prob.mesh, prob.mat, prob.load, assign);

  DistOptions opt;
  opt.m = m;
  opt.tolerance = 1e-6;
  const DistResult dist = solver.solve(opt);
  EXPECT_TRUE(dist.converged);

  // Sequential reference (identical algorithm and stopping rule).
  auto sys = fem::assemble_plane_stress(prob.mesh, prob.mat, prob.load);
  const auto cs = color::make_colored_system(
      sys.stiffness, color::six_color_classes(prob.mesh));
  const Vec fc = cs.permute(sys.load);
  core::PcgOptions popt;
  popt.tolerance = 1e-6;
  core::PcgResult seq;
  if (m == 0) {
    seq = core::cg_solve(cs.matrix, fc, popt);
  } else {
    const core::MulticolorMStepSsor prec(
        cs, core::least_squares_alphas(m, core::ssor_interval()));
    seq = core::pcg_solve(cs.matrix, fc, prec, popt);
  }

  EXPECT_EQ(dist.iterations, seq.iterations)
      << "P=" << nprocs << " m=" << m;
  const Vec seq_orig = cs.unpermute(seq.solution);
  double err = 0.0;
  for (std::size_t i = 0; i < seq_orig.size(); ++i) {
    err = std::max(err, std::abs(seq_orig[i] - dist.solution[i]));
  }
  // With P > 1 the reduction order differs from the sequential dot, so the
  // iterates drift at rounding level per iteration; both runs converge to
  // the same tolerance, so they agree to about the stopping threshold.
  EXPECT_LT(err, 5e-6) << "P=" << nprocs << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistSolverVsSequential,
    ::testing::Combine(::testing::Values(1, 2, 5),
                       ::testing::Values(0, 1, 2, 3, 4)));

TEST(DistSolver, IterationCountsIdenticalAcrossProcessorCounts) {
  // The paper's Table 3 shows the same iteration column for 1, 2 and 5
  // processors — the distributed preconditioner is exactly the sequential
  // operator.
  Table3Problem prob;
  for (int m : {0, 2, 4}) {
    DistOptions opt;
    opt.m = m;
    opt.tolerance = 1e-4;
    std::vector<int> iters;
    for (int p : {1, 2, 5}) {
      const Assignment assign =
          p == 1 ? row_bands(prob.mesh, 1)
                 : (p == 2 ? row_bands(prob.mesh, 2)
                           : column_strips(prob.mesh, 5));
      const DistributedPlateSolver solver(prob.mesh, prob.mat, prob.load,
                                          assign);
      iters.push_back(solver.solve(opt).iterations);
    }
    EXPECT_EQ(iters[0], iters[1]) << "m=" << m;
    EXPECT_EQ(iters[0], iters[2]) << "m=" << m;
  }
}

TEST(DistSolver, SpeedupIsRealAndBelowIdeal) {
  Table3Problem prob;
  DistOptions opt;
  opt.m = 2;
  opt.tolerance = 1e-4;

  const DistributedPlateSolver s1(prob.mesh, prob.mat, prob.load,
                                  row_bands(prob.mesh, 1));
  const DistributedPlateSolver s2(prob.mesh, prob.mat, prob.load,
                                  row_bands(prob.mesh, 2));
  const DistributedPlateSolver s5(prob.mesh, prob.mat, prob.load,
                                  column_strips(prob.mesh, 5));
  const double t1 = s1.solve(opt).simulated_seconds;
  const double t2 = s2.solve(opt).simulated_seconds;
  const double t5 = s5.solve(opt).simulated_seconds;

  EXPECT_GT(t1 / t2, 1.5);
  EXPECT_LT(t1 / t2, 2.0);
  EXPECT_GT(t1 / t5, 2.5);
  EXPECT_LT(t1 / t5, 5.0);
}

TEST(DistSolver, CommOverheadGrowsWithM) {
  // Observation (3) of the paper: preconditioner communications dominate
  // the overhead, so comm seconds grow with m.
  Table3Problem prob;
  const DistributedPlateSolver s2(prob.mesh, prob.mat, prob.load,
                                  row_bands(prob.mesh, 2));
  DistOptions opt;
  opt.tolerance = 1e-4;
  opt.m = 1;
  const double comm_per_iter_1 =
      s2.solve(opt).max_comm_seconds / s2.solve(opt).iterations;
  opt.m = 4;
  const DistResult r4 = s2.solve(opt);
  const double comm_per_iter_4 = r4.max_comm_seconds / r4.iterations;
  EXPECT_GT(comm_per_iter_4, comm_per_iter_1 * 2);
}

TEST(DistSolver, SingleProcessorMatchesSequentialBitwise) {
  // With P=1 the machine runs core's Algorithm 1 on every row, with the
  // library's dot schedule, sweep and store: the solve is core::pcg_solve
  // (cg_solve at m = 0) byte for byte, converged or stopped by the cap.
  Table3Problem prob;
  const DistributedPlateSolver s1(prob.mesh, prob.mat, prob.load,
                                  row_bands(prob.mesh, 1));
  auto sys = fem::assemble_plane_stress(prob.mesh, prob.mat, prob.load);
  const auto cs = color::make_colored_system(
      sys.stiffness, color::six_color_classes(prob.mesh));
  const Vec fc = cs.permute(sys.load);
  for (int m = 0; m <= 6; ++m) {
    for (int cap : {20000, 3}) {
      DistOptions opt;
      opt.m = m;
      opt.tolerance = 1e-5;
      opt.max_iterations = cap;
      const DistResult dist = s1.solve(opt);

      core::PcgOptions popt;
      popt.tolerance = opt.tolerance;
      popt.max_iterations = cap;
      core::PcgResult seq;
      if (m == 0) {
        seq = core::cg_solve(cs.matrix, fc, popt);
      } else {
        const core::MulticolorMStepSsor prec(
            cs, core::least_squares_alphas(m, core::ssor_interval()));
        seq = core::pcg_solve(cs.matrix, fc, prec, popt);
      }
      const Vec seq_orig = cs.unpermute(seq.solution);
      ASSERT_EQ(dist.solution.size(), seq_orig.size());
      EXPECT_EQ(std::memcmp(dist.solution.data(), seq_orig.data(),
                            seq_orig.size() * sizeof(double)),
                0)
          << "m=" << m << " cap=" << cap;
      EXPECT_EQ(dist.iterations, seq.iterations) << "m=" << m << " cap=" << cap;
      EXPECT_EQ(dist.converged, seq.converged) << "m=" << m << " cap=" << cap;
      if (cap == 3) {
        EXPECT_EQ(dist.iterations, 3) << "m=" << m;
      }
    }
  }
}

// A zero load is already solved: every processor stops before the first
// step, converged, as core::cg_solve does, with nothing on the machine's
// clock and no record sent.
TEST(DistSolver, ZeroLoadConvergesWithoutIterating) {
  const fem::PlateMesh mesh(6, 6);
  const fem::Material mat;
  const fem::EdgeLoad load{0.0, 0.0};
  for (int p : {1, 2, 5}) {
    const DistributedPlateSolver solver(
        mesh, mat, load,
        p == 5 ? column_strips(mesh, 5) : row_bands(mesh, p));
    for (int m : {0, 2}) {
      DistOptions opt;
      opt.m = m;
      const DistResult dist = solver.solve(opt);
      EXPECT_TRUE(dist.converged) << "P=" << p << " m=" << m;
      EXPECT_EQ(dist.iterations, 0) << "P=" << p << " m=" << m;
      EXPECT_EQ(dist.simulated_seconds, 0.0) << "P=" << p << " m=" << m;
      EXPECT_EQ(dist.total_records, 0) << "P=" << p << " m=" << m;
      for (double u : dist.solution) EXPECT_EQ(u, 0.0);
    }
  }
}

TEST(DistSolver, UnparametrizedOptionWorks) {
  Table3Problem prob;
  const DistributedPlateSolver s(prob.mesh, prob.mat, prob.load,
                                 row_bands(prob.mesh, 2));
  DistOptions opt;
  opt.m = 3;
  opt.tolerance = 1e-4;
  opt.parametrized = false;
  const DistResult un = s.solve(opt);
  opt.parametrized = true;
  const DistResult par = s.solve(opt);
  EXPECT_TRUE(un.converged);
  EXPECT_LE(par.iterations, un.iterations);
}

TEST(DistSolver, BlockAssignmentWithDiagonalNeighborsMatchesSequential) {
  // Rectangular blocks produce diagonal (corner) neighbour links — the
  // hardest case for the per-colour exchange schedule.  The distributed
  // operator must still be exactly the sequential one: same iteration
  // count for every m.
  const fem::PlateMesh mesh(6, 7);  // 6 unconstrained columns -> 2x2 blocks
  const fem::Material mat;
  const fem::EdgeLoad load{1.0, 0.5};
  const Assignment assign = rectangular_blocks(mesh, 2, 2);
  const DistributedPlateSolver solver(mesh, mat, load, assign);

  auto sys = fem::assemble_plane_stress(mesh, mat, load);
  const auto cs = color::make_colored_system(
      sys.stiffness, color::six_color_classes(mesh));
  const Vec fc = cs.permute(sys.load);

  for (int m : {1, 2, 3, 5}) {
    DistOptions opt;
    opt.m = m;
    opt.tolerance = 1e-6;
    const DistResult dist = solver.solve(opt);
    const core::MulticolorMStepSsor prec(
        cs, core::least_squares_alphas(m, core::ssor_interval()));
    core::PcgOptions popt;
    popt.tolerance = 1e-6;
    const auto seq = core::pcg_solve(cs.matrix, fc, prec, popt);
    EXPECT_EQ(dist.iterations, seq.iterations) << "m=" << m;
    EXPECT_TRUE(dist.converged);
  }
}

TEST(DistSolver, NineProcessorGridMatchesSequential) {
  const fem::PlateMesh mesh(9, 10);  // 9 rows x 9 unconstrained columns
  const fem::Material mat;
  const fem::EdgeLoad load{1.0, 0.0};
  const DistributedPlateSolver solver(mesh, mat, load,
                                      rectangular_blocks(mesh, 3, 3));
  DistOptions opt;
  opt.m = 2;
  opt.tolerance = 1e-5;
  const DistResult dist = solver.solve(opt);

  auto sys = fem::assemble_plane_stress(mesh, mat, load);
  const auto cs = color::make_colored_system(
      sys.stiffness, color::six_color_classes(mesh));
  const core::MulticolorMStepSsor prec(
      cs, core::least_squares_alphas(2, core::ssor_interval()));
  core::PcgOptions popt;
  popt.tolerance = 1e-5;
  const auto seq = core::pcg_solve(cs.matrix, cs.permute(sys.load), prec, popt);
  EXPECT_EQ(dist.iterations, seq.iterations);
  EXPECT_TRUE(dist.converged);
}

TEST(DistSolver, TrafficOnlyBetweenNeighbors) {
  Table3Problem prob;
  const Assignment a = column_strips(prob.mesh, 5);
  const DistributedPlateSolver s(prob.mesh, prob.mat, prob.load, a);
  DistOptions opt;
  opt.m = 2;
  opt.tolerance = 1e-4;
  std::vector<std::vector<long long>> traffic;
  (void)s.solve_with_traffic(opt, &traffic);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (std::abs(i - j) == 1) {
        EXPECT_GT(traffic[i][j], 0) << i << "->" << j;
      } else {
        EXPECT_EQ(traffic[i][j], 0) << i << "->" << j;
      }
    }
  }
}

// Any node->processor map, not only the paper's strips and blocks: a
// seeded random map on the 9x10 plate (both dofs of a node on one
// processor, as the exchange schedule requires) keeps the P=1 iteration
// count, and records flow exactly between halo-plan neighbours.  Each
// node draws one of two processors of its column strip, so processors of
// strips 0 and 2 never couple and the zero-traffic side is exercised too.
TEST(DistSolver, RandomNodeMapMatchesOneProcessorAndHaloNeighbors) {
  const fem::PlateMesh mesh(9, 10);
  const fem::Material mat;
  const fem::EdgeLoad load{1.0, 0.0};
  constexpr int kProcs = 6;
  Assignment assign = column_strips(mesh, kProcs / 2);
  assign.nprocs = kProcs;
  util::Rng rng(2024);
  for (int& proc : assign.proc_of_node) {
    if (proc >= 0) proc = 2 * proc + static_cast<int>(rng.uniform_index(2));
  }
  const DistributedPlateSolver random(mesh, mat, load, assign);
  const DistributedPlateSolver single(mesh, mat, load, row_bands(mesh, 1));

  DistOptions opt;
  opt.m = 2;
  opt.tolerance = 1e-5;
  std::vector<std::vector<long long>> traffic;
  const DistResult dist = random.solve_with_traffic(opt, &traffic);
  EXPECT_TRUE(dist.converged);
  EXPECT_EQ(dist.iterations, single.solve(opt).iterations);

  const auto& cs = random.colored_system();
  std::vector<int> owner(cs.size());
  for (index_t eq = 0; eq < cs.size(); ++eq) {
    owner[cs.inv_perm[eq]] =
        assign.proc_of_node[mesh.equation_node_dof(eq).first];
  }
  const shard::HaloPlan halo(cs, owner, kProcs);
  EXPECT_LT(halo.neighbors(0).size(), static_cast<std::size_t>(kProcs - 1));
  for (int i = 0; i < kProcs; ++i) {
    const auto& nbrs = halo.neighbors(i);
    for (int j = 0; j < kProcs; ++j) {
      if (std::find(nbrs.begin(), nbrs.end(), j) != nbrs.end()) {
        EXPECT_GT(traffic[i][j], 0) << i << "->" << j;
      } else {
        EXPECT_EQ(traffic[i][j], 0) << i << "->" << j;
      }
    }
  }
}

}  // namespace
}  // namespace mstep::femsim
