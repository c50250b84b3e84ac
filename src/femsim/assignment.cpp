#include "femsim/assignment.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace mstep::femsim {

namespace {

Assignment empty_assignment(const fem::PlateMesh& mesh, int p) {
  Assignment a;
  a.nprocs = p;
  a.proc_of_node.assign(mesh.num_nodes(), -1);
  return a;
}

}  // namespace

Assignment row_bands(const fem::PlateMesh& mesh, int p) {
  if (p < 1 || mesh.nrows() % p != 0) {
    throw std::invalid_argument("row_bands: p must divide the row count");
  }
  Assignment a = empty_assignment(mesh, p);
  const int rows_per = mesh.nrows() / p;
  for (int r = 0; r < mesh.nrows(); ++r) {
    for (int c = 1; c < mesh.ncols(); ++c) {
      a.proc_of_node[mesh.node_id(r, c)] = r / rows_per;
    }
  }
  return a;
}

Assignment column_strips(const fem::PlateMesh& mesh, int p) {
  const int ucols = mesh.num_unconstrained_columns();
  if (p < 1 || ucols % p != 0) {
    throw std::invalid_argument(
        "column_strips: p must divide the unconstrained column count");
  }
  Assignment a = empty_assignment(mesh, p);
  const int cols_per = ucols / p;
  for (int r = 0; r < mesh.nrows(); ++r) {
    for (int c = 1; c < mesh.ncols(); ++c) {
      a.proc_of_node[mesh.node_id(r, c)] = (c - 1) / cols_per;
    }
  }
  return a;
}

Assignment rectangular_blocks(const fem::PlateMesh& mesh, int pr, int pc) {
  const int ucols = mesh.num_unconstrained_columns();
  if (pr < 1 || pc < 1 || mesh.nrows() % pr != 0 || ucols % pc != 0) {
    throw std::invalid_argument(
        "rectangular_blocks: grid must divide rows and unconstrained cols");
  }
  Assignment a = empty_assignment(mesh, pr * pc);
  const int rows_per = mesh.nrows() / pr;
  const int cols_per = ucols / pc;
  for (int r = 0; r < mesh.nrows(); ++r) {
    for (int c = 1; c < mesh.ncols(); ++c) {
      const int br = r / rows_per;
      const int bc = (c - 1) / cols_per;
      a.proc_of_node[mesh.node_id(r, c)] = br * pc + bc;
    }
  }
  return a;
}

AssignmentStats analyze(const Assignment& a, const fem::PlateMesh& mesh) {
  AssignmentStats st;
  st.color_counts.assign(a.nprocs, {0, 0, 0});
  st.border_nodes.assign(a.nprocs, 0);

  std::vector<int> per_proc_nodes(a.nprocs, 0);
  for (index_t node = 0; node < static_cast<index_t>(mesh.num_nodes());
       ++node) {
    const int p = a.proc_of_node[node];
    if (p < 0) continue;
    per_proc_nodes[p]++;
    st.color_counts[p][static_cast<int>(mesh.color(node))]++;
    bool border = false;
    for (index_t nb : mesh.neighbor_nodes(node)) {
      const int q = a.proc_of_node[nb];
      if (q >= 0 && q != p) border = true;
    }
    if (border) st.border_nodes[p]++;
  }

  st.colors_balanced = true;
  for (const auto& cc : st.color_counts) {
    if (cc[0] != cc[1] || cc[1] != cc[2]) st.colors_balanced = false;
  }
  st.borders_equal =
      a.nprocs <= 1 ||
      std::all_of(st.border_nodes.begin(), st.border_nodes.end(),
                  [&](int b) { return b == st.border_nodes[0]; });
  st.max_nodes = a.nprocs
                     ? *std::max_element(per_proc_nodes.begin(),
                                         per_proc_nodes.end())
                     : 0;
  st.min_nodes = a.nprocs
                     ? *std::min_element(per_proc_nodes.begin(),
                                         per_proc_nodes.end())
                     : 0;
  return st;
}

std::vector<std::pair<int, int>> neighbor_pairs(const Assignment& a,
                                                const fem::PlateMesh& mesh) {
  std::set<std::pair<int, int>> pairs;
  for (index_t node = 0; node < static_cast<index_t>(mesh.num_nodes());
       ++node) {
    const int p = a.proc_of_node[node];
    if (p < 0) continue;
    for (index_t nb : mesh.neighbor_nodes(node)) {
      const int q = a.proc_of_node[nb];
      if (q >= 0 && q != p) pairs.emplace(std::min(p, q), std::max(p, q));
    }
  }
  return {pairs.begin(), pairs.end()};
}

std::vector<int> coordinate_strip_owner(const fem::TriMesh& mesh, int p) {
  if (p < 1) throw std::invalid_argument("coordinate_strip_owner: p >= 1");
  std::vector<index_t> free_nodes;
  for (index_t v = 0; v < mesh.num_nodes(); ++v) {
    if (!mesh.is_constrained(v)) free_nodes.push_back(v);
  }
  std::sort(free_nodes.begin(), free_nodes.end(), [&](index_t a, index_t b) {
    if (mesh.node_x(a) != mesh.node_x(b)) {
      return mesh.node_x(a) < mesh.node_x(b);
    }
    if (mesh.node_y(a) != mesh.node_y(b)) {
      return mesh.node_y(a) < mesh.node_y(b);
    }
    // Final tie-break on node id: two free nodes CAN share coordinates
    // (an L-shape seam, a mesh stitched from two plates), and without a
    // total order std::sort's ownership boundary would depend on the
    // implementation's partition choices — the strip assignment must be
    // deterministic because shard partitions and halo plans key off it.
    return a < b;
  });
  std::vector<int> owner(mesh.num_nodes(), -1);
  const std::size_t total = free_nodes.size();
  for (std::size_t k = 0; k < total; ++k) {
    owner[free_nodes[k]] = static_cast<int>(k * p / total);
  }
  return owner;
}

std::vector<int> owner_of_colored_equations(
    const fem::TriMesh& mesh, const color::ColoredSystem& cs,
    const std::vector<int>& owner_of_node) {
  std::vector<int> owner(cs.size(), -1);
  for (index_t old_eq = 0; old_eq < cs.size(); ++old_eq) {
    const auto [node, dof] = mesh.equation_node_dof(old_eq);
    (void)dof;
    owner[cs.inv_perm[old_eq]] = owner_of_node[node];
  }
  return owner;
}

}  // namespace mstep::femsim
