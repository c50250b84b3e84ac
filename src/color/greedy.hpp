// Greedy multicolor ordering for irregular regions.
//
// The structured plate gets its three colours from the closed form
// (r + 2c) mod 3; an irregular triangulation needs a graph colouring.  The
// greedy first-fit colouring over the node adjacency graph uses few colours
// on mesh-like graphs (bounded degree), and each node colour expands to two
// equation classes (u, v) exactly as in the structured case, preserving
// the property that every class diagonal block — and every same-colour
// paired-dof block — is diagonal.
#pragma once

#include <vector>

#include "color/coloring.hpp"
#include "fem/tri_mesh.hpp"

namespace mstep::color {

/// First-fit greedy colouring of an adjacency structure.  Returns one
/// colour id per vertex; the number of colours is max+1 and is bounded by
/// the maximum degree + 1.
[[nodiscard]] std::vector<int> greedy_vertex_coloring(
    const std::vector<std::vector<index_t>>& adjacency);

/// Equation classes for an irregular mesh: class(node colour g, dof d) =
/// 2g + d, equations within a class ordered by node id.
[[nodiscard]] ColorClasses greedy_classes(const fem::TriMesh& mesh);

/// Number of node colours the greedy colouring used on this mesh.
[[nodiscard]] int greedy_color_count(const fem::TriMesh& mesh);

/// Equation classes for an arbitrary symmetric sparse matrix: greedy
/// first-fit colouring of the off-diagonal adjacency graph, one class per
/// colour, equations within a class ordered by row id.  No two coupled
/// equations share a class, so every diagonal class block is diagonal —
/// this is how the Solver facade multicolour-orders a system it only
/// knows as a matrix.  Throws std::invalid_argument if `k` is not square.
[[nodiscard]] ColorClasses greedy_classes_from_matrix(const la::CsrMatrix& k);

}  // namespace mstep::color
