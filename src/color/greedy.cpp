#include "color/greedy.hpp"

#include <algorithm>
#include <stdexcept>

namespace mstep::color {

namespace {

/// First-fit colouring of vertices 0..n-1 in order: each vertex takes the
/// smallest colour none of its already-coloured neighbours holds.
/// `for_neighbors(v, visit)` calls visit(w) for every neighbour w of v.
/// used_by[c] == v marks colour c as taken around v, so no per-vertex
/// clearing is needed.
template <typename ForNeighbors>
std::vector<int> first_fit(std::size_t n, const ForNeighbors& for_neighbors) {
  std::vector<int> color(n, -1);
  std::vector<std::size_t> used_by;
  for (std::size_t v = 0; v < n; ++v) {
    for_neighbors(v, [&](index_t w) {
      const int cw = color[w];
      if (cw < 0) return;
      if (static_cast<std::size_t>(cw) >= used_by.size()) {
        used_by.resize(static_cast<std::size_t>(cw) + 1, n);
      }
      used_by[cw] = v;
    });
    std::size_t c = 0;
    while (c < used_by.size() && used_by[c] == v) ++c;
    color[v] = static_cast<int>(c);
  }
  return color;
}

}  // namespace

std::vector<int> greedy_vertex_coloring(
    const std::vector<std::vector<index_t>>& adjacency) {
  return first_fit(adjacency.size(), [&](std::size_t v, const auto& visit) {
    for (index_t w : adjacency[v]) visit(w);
  });
}

ColorClasses greedy_classes(const fem::TriMesh& mesh) {
  const std::vector<int> node_color =
      greedy_vertex_coloring(mesh.node_adjacency());
  int ncolors = 0;
  for (index_t node = 0; node < mesh.num_nodes(); ++node) {
    if (!mesh.is_constrained(node)) {
      ncolors = std::max(ncolors, node_color[node] + 1);
    }
  }
  ColorClasses cc;
  cc.classes.assign(static_cast<std::size_t>(2) * ncolors, {});
  for (int g = 0; g < ncolors; ++g) {
    for (int dof = 0; dof < 2; ++dof) {
      auto& cls = cc.classes[2 * g + dof];
      for (index_t node = 0; node < mesh.num_nodes(); ++node) {
        if (mesh.is_constrained(node) || node_color[node] != g) continue;
        cls.push_back(mesh.equation_id(node, dof));
      }
    }
  }
  // Drop empty classes (a colour may only appear on constrained nodes).
  cc.classes.erase(
      std::remove_if(cc.classes.begin(), cc.classes.end(),
                     [](const std::vector<index_t>& c) { return c.empty(); }),
      cc.classes.end());
  return cc;
}

ColorClasses greedy_classes_from_matrix(const la::CsrMatrix& k) {
  if (k.rows() != k.cols()) {
    throw std::invalid_argument("greedy_classes_from_matrix: not square");
  }
  const auto& rp = k.row_ptr();
  const auto& col = k.col_idx();
  // The off-diagonal pattern of row v is v's neighbour list, explicit
  // zeros included.
  const std::vector<int> color = first_fit(
      static_cast<std::size_t>(k.rows()),
      [&](std::size_t v, const auto& visit) {
        const auto i = static_cast<index_t>(v);
        for (index_t t = rp[i]; t < rp[i + 1]; ++t) {
          if (col[t] != i) visit(col[t]);
        }
      });
  int ncolors = 0;
  for (int c : color) ncolors = std::max(ncolors, c + 1);
  ColorClasses cc;
  cc.classes.assign(ncolors, {});
  for (index_t i = 0; i < k.rows(); ++i) cc.classes[color[i]].push_back(i);
  return cc;
}

int greedy_color_count(const fem::TriMesh& mesh) {
  const std::vector<int> node_color =
      greedy_vertex_coloring(mesh.node_adjacency());
  int ncolors = 0;
  for (int c : node_color) ncolors = std::max(ncolors, c + 1);
  return ncolors;
}

}  // namespace mstep::color
