// Multicolor equation orderings (Adams & Ortega 1982) — the machinery that
// turns the stiffness matrix into the 6x6 block form of equation (3.1).
//
// A colouring partitions the equations into classes such that the diagonal
// block coupling a class to itself is *diagonal*; a class can then be
// updated with one reciprocal-diagonal multiply — in parallel, with no
// intra-class dependencies.  The plate problem needs six classes
// (Red/Black/Green x u/v); the 5-point Poisson problem needs two.
#pragma once

#include <string>
#include <vector>

#include "fem/plate_mesh.hpp"
#include "fem/poisson.hpp"
#include "la/csr_matrix.hpp"

namespace mstep::color {

/// Equation classes: classes[k] lists the equation ids (original ordering)
/// in class k, in their within-class order.
struct ColorClasses {
  std::vector<std::vector<index_t>> classes;

  [[nodiscard]] int num_classes() const {
    return static_cast<int>(classes.size());
  }
  [[nodiscard]] index_t total_equations() const;
};

/// Six-colour classes for the plate: class index k = 2 * colour + dof with
/// colour in {R=0, B=1, G=2} and dof in {u=0, v=1}; within a class,
/// equations are ordered bottom-to-top, left-to-right (the paper's CYBER
/// numbering).
[[nodiscard]] ColorClasses six_color_classes(const fem::PlateMesh& mesh);

/// Two-colour (red/black) classes for the 5-point Poisson problem.
[[nodiscard]] ColorClasses two_color_classes(const fem::PoissonProblem& p);

/// perm[new_index] = old_index for the class-concatenated ordering.
[[nodiscard]] std::vector<index_t> permutation_from_classes(
    const ColorClasses& classes);

/// inv[old_index] = new_index.
[[nodiscard]] std::vector<index_t> inverse_permutation(
    const std::vector<index_t>& perm);

/// A matrix reordered by colour classes, with the class boundaries kept.
/// This is the object every multicolour sweep operates on.
struct ColoredSystem {
  la::CsrMatrix matrix;              // K permuted symmetrically
  std::vector<index_t> class_start;  // size num_classes + 1
  std::vector<index_t> perm;         // perm[new] = old
  std::vector<index_t> inv_perm;     // inv_perm[old] = new

  [[nodiscard]] int num_classes() const {
    return static_cast<int>(class_start.size()) - 1;
  }
  [[nodiscard]] index_t size() const { return matrix.rows(); }
  [[nodiscard]] index_t class_size(int k) const {
    return class_start[k + 1] - class_start[k];
  }

  /// Reorder a vector from the original ordering into colour order.
  [[nodiscard]] Vec permute(const Vec& x) const;
  /// Inverse reordering.
  [[nodiscard]] Vec unpermute(const Vec& x) const;
  /// Allocation-free forms writing into a caller-owned buffer (resized on
  /// demand, capacity kept) — the batch engine's per-lane reorder scratch.
  /// `out` must not alias `x`.
  void permute_into(const Vec& x, Vec& out) const;
  void unpermute_into(const Vec& x, Vec& out) const;
};

/// Build the coloured system from a matrix in the original ordering.
[[nodiscard]] ColoredSystem make_colored_system(const la::CsrMatrix& k,
                                                const ColorClasses& classes);

/// Structural verification of equation (3.1).
struct BlockStructureReport {
  bool diagonal_blocks_are_diagonal = false;  // D_kk diagonal for all k
  bool paired_dof_blocks_are_diagonal = false;  // B12, B34, B56 diagonal
  index_t max_row_nnz = 0;
  index_t nnz = 0;
  std::string detail;  // human-readable block census
};

[[nodiscard]] BlockStructureReport verify_block_structure(
    const ColoredSystem& cs);

/// True iff no two equations in the same class are coupled by a nonzero —
/// the decoupling property the colouring must deliver.
[[nodiscard]] bool coloring_is_valid(const la::CsrMatrix& k,
                                     const ColorClasses& classes);

/// Per-row split of a coloured matrix into strictly-lower-class entries,
/// the diagonal, and strictly-upper-class entries — the structural analysis
/// every multicolour sweep (sequential, parallel, distributed) runs on.
/// Throws std::invalid_argument if a diagonal class block is not diagonal.
struct RowSplits {
  Vec diag;                       // diagonal entries
  std::vector<index_t> lo_end;    // per row: end of lower-class entries
  std::vector<index_t> up_begin;  // per row: begin of upper-class entries
};

[[nodiscard]] RowSplits compute_row_splits(const ColoredSystem& cs);

/// Per-class count of distinct nonzero (generalized) diagonals in the
/// strictly-lower-class and strictly-upper-class blocks.  The kernel
/// instrumentation prices one class sweep as this many vector triads
/// (Section 3.1); the multicolor sweep reports through it for any strip
/// count.  core::MulticolorSweepPlan counts it from its run segments, one
/// offset per run term.
struct ClassDiagonalCensus {
  std::vector<int> lower;  // per class
  std::vector<int> upper;
};

}  // namespace mstep::color
