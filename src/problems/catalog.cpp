// ProblemRegistry mechanics and the built-in generator catalog.
//
// Every generator manufactures its right-hand side from a known discrete
// solution (b = K u*) whenever it can, so a driver can report the true
// solve error, not just the stopping quantity.  Stencil generators also
// hand the solver their closed-form colour classes; the rest rely on the
// greedy matrix-graph colouring.
#include "problems/problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fem/plane_stress.hpp"
#include "fem/plate_mesh.hpp"
#include "fem/poisson.hpp"
#include "util/rng.hpp"

namespace mstep::problems {

namespace {

constexpr double kPi = 3.14159265358979323846;

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

double option_or(const ProblemOptions& options, const std::string& key,
                 double fallback) {
  auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

/// Integer option with range validation; throws std::invalid_argument on
/// a non-integral or out-of-range value.
int int_option(const ProblemOptions& options, const std::string& problem,
               const std::string& key, int fallback, int lo, int hi) {
  const double v = option_or(options, key, fallback);
  if (v != std::floor(v) || v < lo || v > hi) {
    throw std::invalid_argument(
        "problem '" + problem + "': option '" + key + "' must be an integer in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "], got " +
        util::format_double(v));
  }
  return static_cast<int>(v);
}

/// Finish a generated problem: manufacture b = K u*.
void finish(Problem* p, Vec exact) {
  if (!exact.empty()) {
    p->exact_solution = std::move(exact);
    p->rhs.resize(p->exact_solution.size());
    p->matrix.multiply(p->exact_solution, p->rhs);
  }
}

/// Red/black (two-colour) classes for a stencil whose neighbours all flip
/// the parity `parity(cell)` — the 5/7-point families.
color::ColorClasses parity_classes(index_t n,
                                   const std::function<int(index_t)>& parity,
                                   int num_colors) {
  color::ColorClasses cc;
  cc.classes.resize(static_cast<std::size_t>(num_colors));
  for (index_t e = 0; e < n; ++e) {
    cc.classes[static_cast<std::size_t>(parity(e))].push_back(e);
  }
  // Drop empty classes (e.g. a 1-wide grid may not reach every colour).
  cc.classes.erase(
      std::remove_if(cc.classes.begin(), cc.classes.end(),
                     [](const std::vector<index_t>& c) { return c.empty(); }),
      cc.classes.end());
  return cc;
}

/// Red/black classes of a row-major nx-wide 2D grid — shared by every
/// 5-point generator (the one place the parity/ordering convention
/// lives).
color::ColorClasses red_black_grid(int nx, index_t nn) {
  return parity_classes(
      nn,
      [nx](index_t e) {
        return (static_cast<int>(e) % nx + static_cast<int>(e) / nx) % 2;
      },
      2);
}

/// Grid restriction of u(x, y) on the interior points of the unit square
/// ((i+1)hx, (j+1)hy), row-major — the manufactured exact solutions.
Vec grid2d_exact(int nx, int ny,
                 const std::function<double(double, double)>& u) {
  const double hx = 1.0 / (nx + 1), hy = 1.0 / (ny + 1);
  Vec exact(static_cast<std::size_t>(nx) * ny);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      exact[static_cast<std::size_t>(j) * nx + i] =
          u((i + 1) * hx, (j + 1) * hy);
    }
  }
  return exact;
}

// ---- poisson2d: 5-point Laplacian on the unit square ------------------------

Problem make_poisson2d(const ProblemOptions& options) {
  const int n = int_option(options, "poisson2d", "n", 32, 1, 2048);
  const int nx = int_option(options, "poisson2d", "nx", n, 1, 2048);
  const int ny = int_option(options, "poisson2d", "ny", n, 1, 2048);
  const fem::PoissonProblem grid(nx, ny);

  Problem p;
  p.spec = {"poisson2d", {{"nx", double(nx)}, {"ny", double(ny)}}};
  p.description = "2D Poisson, 5-point stencil, " + std::to_string(nx) + "x" +
                  std::to_string(ny) + " interior grid, red/black colouring";
  p.matrix = grid.matrix();
  p.classes = color::two_color_classes(grid);
  finish(&p, grid.grid_function([](double x, double y) {
    return std::sin(kPi * x) * std::sin(kPi * y);
  }));
  return p;
}

// ---- poisson3d: 7-point Laplacian on the unit cube --------------------------

Problem make_poisson3d(const ProblemOptions& options) {
  const int n = int_option(options, "poisson3d", "n", 16, 1, 256);
  const int nx = int_option(options, "poisson3d", "nx", n, 1, 256);
  const int ny = int_option(options, "poisson3d", "ny", n, 1, 256);
  const int nz = int_option(options, "poisson3d", "nz", n, 1, 256);
  const auto total = static_cast<long long>(nx) * ny * nz;
  if (total > (1LL << 24)) {
    throw std::invalid_argument(
        "problem 'poisson3d': " + std::to_string(total) +
        " unknowns exceed the 2^24 cap; shrink n/nx/ny/nz");
  }
  const index_t nn = static_cast<index_t>(total);
  auto id = [&](int i, int j, int k) {
    return static_cast<index_t>((static_cast<long long>(k) * ny + j) * nx + i);
  };

  la::CooBuilder builder(nn, nn);
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const index_t e = id(i, j, k);
        builder.add(e, e, 6.0);
        if (i > 0) builder.add(e, id(i - 1, j, k), -1.0);
        if (i + 1 < nx) builder.add(e, id(i + 1, j, k), -1.0);
        if (j > 0) builder.add(e, id(i, j - 1, k), -1.0);
        if (j + 1 < ny) builder.add(e, id(i, j + 1, k), -1.0);
        if (k > 0) builder.add(e, id(i, j, k - 1), -1.0);
        if (k + 1 < nz) builder.add(e, id(i, j, k + 1), -1.0);
      }
    }
  }

  Problem p;
  p.spec = {"poisson3d",
            {{"nx", double(nx)}, {"ny", double(ny)}, {"nz", double(nz)}}};
  p.description = "3D Poisson, 7-point stencil, " + std::to_string(nx) + "x" +
                  std::to_string(ny) + "x" + std::to_string(nz) +
                  " interior grid, red/black colouring";
  p.matrix = builder.build();

  const double hx = 1.0 / (nx + 1), hy = 1.0 / (ny + 1), hz = 1.0 / (nz + 1);
  Vec exact(static_cast<std::size_t>(nn));
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        exact[static_cast<std::size_t>(id(i, j, k))] =
            std::sin(kPi * (i + 1) * hx) * std::sin(kPi * (j + 1) * hy) *
            std::sin(kPi * (k + 1) * hz);
      }
    }
  }
  p.classes = parity_classes(
      nn,
      [&](index_t e) {
        const int i = static_cast<int>(e) % nx;
        const int j = (static_cast<int>(e) / nx) % ny;
        const int k = static_cast<int>(e) / (nx * ny);
        return (i + j + k) % 2;
      },
      2);
  finish(&p, std::move(exact));
  return p;
}

// ---- aniso2d: anisotropic diffusion with a strength ratio -------------------

Problem make_aniso2d(const ProblemOptions& options) {
  const int n = int_option(options, "aniso2d", "n", 32, 1, 2048);
  const int nx = int_option(options, "aniso2d", "nx", n, 1, 2048);
  const int ny = int_option(options, "aniso2d", "ny", n, 1, 2048);
  const double ratio = option_or(options, "ratio", 100.0);
  if (!(ratio > 0.0) || !std::isfinite(ratio)) {
    throw std::invalid_argument(
        "problem 'aniso2d': option 'ratio' must be a positive anisotropy "
        "strength, got " +
        util::format_double(ratio));
  }
  const index_t nn = static_cast<index_t>(nx) * ny;
  auto id = [&](int i, int j) { return static_cast<index_t>(j) * nx + i; };

  // -(ratio u_xx + u_yy): x-coupling scaled by the ratio — the classic
  // hard case for unparametrized smoothers.
  la::CooBuilder builder(nn, nn);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const index_t e = id(i, j);
      builder.add(e, e, 2.0 * ratio + 2.0);
      if (i > 0) builder.add(e, id(i - 1, j), -ratio);
      if (i + 1 < nx) builder.add(e, id(i + 1, j), -ratio);
      if (j > 0) builder.add(e, id(i, j - 1), -1.0);
      if (j + 1 < ny) builder.add(e, id(i, j + 1), -1.0);
    }
  }

  Problem p;
  p.spec = {"aniso2d",
            {{"nx", double(nx)}, {"ny", double(ny)}, {"ratio", ratio}}};
  p.description = "2D anisotropic diffusion (eps = " +
                  util::format_double(ratio) + "), 5-point stencil, " +
                  std::to_string(nx) + "x" + std::to_string(ny) + " grid";
  p.matrix = builder.build();
  p.classes = red_black_grid(nx, nn);
  finish(&p, grid2d_exact(nx, ny, [](double x, double y) {
           return std::sin(kPi * x) * std::sin(2.0 * kPi * y);
         }));
  return p;
}

// ---- convdiff: symmetrized convection–diffusion with an SPD guard -----------

/// Cell Péclet number q = peclet * h / 2 of the central-difference scheme.
double convdiff_cell_peclet(int nx, double peclet) {
  return peclet / (2.0 * (nx + 1));
}

void convdiff_guard(int nx, double peclet) {
  if (!(peclet >= 0.0) || !std::isfinite(peclet)) {
    throw std::invalid_argument(
        "problem 'convdiff': option 'peclet' must be >= 0, got " +
        util::format_double(peclet));
  }
  const double q = convdiff_cell_peclet(nx, peclet);
  if (q >= 1.0) {
    throw std::invalid_argument(
        "problem 'convdiff': not SPD — cell Peclet number " +
        util::format_double(q) + " >= 1 (peclet = " +
        util::format_double(peclet) + ", nx = " + std::to_string(nx) +
        "); the symmetrized central-difference operator loses positive "
        "definiteness.  Refine the grid (raise n) or lower peclet below " +
        util::format_double(2.0 * (nx + 1)));
  }
}

Problem make_convdiff(const ProblemOptions& options) {
  const int n = int_option(options, "convdiff", "n", 32, 1, 2048);
  const int nx = int_option(options, "convdiff", "nx", n, 1, 2048);
  const int ny = int_option(options, "convdiff", "ny", n, 1, 2048);
  const double peclet = option_or(options, "peclet", 10.0);
  convdiff_guard(nx, peclet);
  // -u_xx - u_yy + peclet u_x, central differences.  The x-direction
  // tridiagonal with off-diagonals -(1 +- q) is diagonally similar to a
  // symmetric one with off-diagonal -sqrt(1 - q^2); that symmetrized
  // operator is what we assemble, and it is SPD exactly while the cell
  // Peclet q stays below 1 — the guard above.
  const double q = convdiff_cell_peclet(nx, peclet);
  const double off_x = -std::sqrt(1.0 - q * q);
  const index_t nn = static_cast<index_t>(nx) * ny;
  auto id = [&](int i, int j) { return static_cast<index_t>(j) * nx + i; };

  la::CooBuilder builder(nn, nn);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const index_t e = id(i, j);
      builder.add(e, e, 4.0);
      if (i > 0) builder.add(e, id(i - 1, j), off_x);
      if (i + 1 < nx) builder.add(e, id(i + 1, j), off_x);
      if (j > 0) builder.add(e, id(i, j - 1), -1.0);
      if (j + 1 < ny) builder.add(e, id(i, j + 1), -1.0);
    }
  }

  Problem p;
  p.spec = {"convdiff",
            {{"nx", double(nx)}, {"ny", double(ny)}, {"peclet", peclet}}};
  p.description = "symmetrized convection-diffusion (peclet = " +
                  util::format_double(peclet) + ", cell Peclet " +
                  util::format_double(q) + "), " + std::to_string(nx) + "x" +
                  std::to_string(ny) + " grid";
  p.matrix = builder.build();
  p.classes = red_black_grid(nx, nn);
  finish(&p, grid2d_exact(nx, ny, [](double x, double y) {
           return x * (1.0 - x) * std::sin(kPi * y);
         }));
  return p;
}

// ---- randspd: random banded strictly diagonally dominant SPD ----------------

Problem make_randspd(const ProblemOptions& options) {
  const int n = int_option(options, "randspd", "n", 500, 1, 1 << 22);
  const int band = int_option(options, "randspd", "band",
                              std::min(8, std::max(1, n - 1)), 1,
                              std::max(1, n - 1));
  const int seed = int_option(options, "randspd", "seed", 1, 0, 1 << 30);

  util::Rng rng(static_cast<std::uint64_t>(seed));
  la::CooBuilder builder(n, n);
  Vec row_abs(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = std::max(0, i - band); j < i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      builder.add(i, j, v);
      builder.add(j, i, v);
      row_abs[static_cast<std::size_t>(i)] += std::abs(v);
      row_abs[static_cast<std::size_t>(j)] += std::abs(v);
    }
  }
  // Strict diagonal dominance makes the symmetric matrix SPD.
  for (int i = 0; i < n; ++i) {
    builder.add(i, i, row_abs[static_cast<std::size_t>(i)] + 1.0 +
                          rng.uniform(0.0, 1.0));
  }

  Problem p;
  p.spec = {"randspd",
            {{"band", double(band)}, {"n", double(n)}, {"seed", double(seed)}}};
  p.description = "random strictly diagonally dominant SPD band matrix, n = " +
                  std::to_string(n) + ", half-bandwidth " +
                  std::to_string(band) + ", seed " + std::to_string(seed);
  p.matrix = builder.build();
  finish(&p, rng.uniform_vector(static_cast<std::size_t>(n)));
  return p;
}

// ---- stencil9: 9-point box stencil ------------------------------------------

Problem make_stencil9(const ProblemOptions& options) {
  const int n = int_option(options, "stencil9", "n", 32, 1, 2048);
  const int nx = int_option(options, "stencil9", "nx", n, 1, 2048);
  const int ny = int_option(options, "stencil9", "ny", n, 1, 2048);
  const index_t nn = static_cast<index_t>(nx) * ny;
  auto id = [&](int i, int j) { return static_cast<index_t>(j) * nx + i; };

  la::CooBuilder builder(nn, nn);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const index_t e = id(i, j);
      builder.add(e, e, 8.0);
      for (int dj = -1; dj <= 1; ++dj) {
        for (int di = -1; di <= 1; ++di) {
          if (di == 0 && dj == 0) continue;
          const int ii = i + di, jj = j + dj;
          if (ii < 0 || ii >= nx || jj < 0 || jj >= ny) continue;
          builder.add(e, id(ii, jj), -1.0);
        }
      }
    }
  }

  Problem p;
  p.spec = {"stencil9", {{"nx", double(nx)}, {"ny", double(ny)}}};
  p.description = "9-point box stencil Laplacian, " + std::to_string(nx) +
                  "x" + std::to_string(ny) + " grid, four-colour ordering";
  p.matrix = builder.build();
  // The Moore neighbourhood changes i or j parity for every neighbour, so
  // the four (i mod 2, j mod 2) classes decouple.
  p.classes = parity_classes(
      nn,
      [&](index_t e) {
        const int i = static_cast<int>(e) % nx;
        const int j = static_cast<int>(e) / nx;
        return (i % 2) * 2 + (j % 2);
      },
      4);
  finish(&p, grid2d_exact(nx, ny, [](double x, double y) {
           return std::sin(kPi * x) * std::sin(kPi * y);
         }));
  return p;
}

// ---- femplate / cyberplate: the paper's plane-stress plate ------------------

Problem make_plate(const std::string& name, const ProblemOptions& options,
                   int default_a, const std::string& flavour) {
  const int a = int_option(options, name, "a", default_a, 2, 512);
  const fem::PlateMesh mesh = fem::PlateMesh::unit_square(a);
  const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                              fem::EdgeLoad{1.0, 0.0});
  Problem p;
  p.spec = {name, {{"a", double(a)}}};
  p.description = flavour + ", a = " + std::to_string(a) + " (" +
                  std::to_string(sys.stiffness.rows()) +
                  " equations), six-colour ordering";
  p.matrix = sys.stiffness;
  p.rhs = sys.load;  // the physical load; no manufactured solution
  p.classes = color::six_color_classes(mesh);
  return p;
}

ProblemRegistry make_registry() {
  ProblemRegistry reg;

  auto simple = [](std::function<Problem(const ProblemOptions&)> factory,
                   std::vector<std::string> keys, std::string description) {
    ProblemRegistry::Entry e;
    e.factory = std::move(factory);
    e.option_keys = std::move(keys);
    e.description = std::move(description);
    return e;
  };

  reg.add("poisson2d",
          simple(make_poisson2d, {"n", "nx", "ny"},
                 "2D Poisson, 5-point stencil, red/black colouring"));
  reg.add("poisson3d",
          simple(make_poisson3d, {"n", "nx", "ny", "nz"},
                 "3D Poisson, 7-point stencil, red/black colouring"));
  reg.add("aniso2d",
          simple(make_aniso2d, {"n", "nx", "ny", "ratio"},
                 "2D anisotropic diffusion with strength ratio"));

  ProblemRegistry::Entry convdiff =
      simple(make_convdiff, {"n", "nx", "ny", "peclet"},
             "symmetrized convection-diffusion (SPD while cell Peclet < 1)");
  convdiff.validate_options = [](const ProblemOptions& options) {
    const int n = int_option(options, "convdiff", "n", 32, 1, 2048);
    const int nx = int_option(options, "convdiff", "nx", n, 1, 2048);
    convdiff_guard(nx, option_or(options, "peclet", 10.0));
  };
  reg.add("convdiff", std::move(convdiff));

  reg.add("randspd",
          simple(make_randspd, {"n", "band", "seed"},
                 "random strictly diagonally dominant SPD band matrix"));
  reg.add("stencil9",
          simple(make_stencil9, {"n", "nx", "ny"},
                 "9-point box stencil Laplacian, four-colour ordering"));
  reg.add("femplate",
          simple(
              [](const ProblemOptions& o) {
                return make_plate("femplate", o, 30,
                                  "plane-stress FEM plate (Section 3)");
              },
              {"a"}, "the paper's plane-stress FEM plate"));
  reg.add("cyberplate",
          simple(
              [](const ProblemOptions& o) {
                return make_plate(
                    "cyberplate", o, 41,
                    "plane-stress plate at the Table 2 CYBER sizes");
              },
              {"a"},
              "the Table 2 plate workload (DIA-oriented CYBER scenario)"));

  return reg;
}

}  // namespace

ProblemSpec ProblemSpec::from_string(const std::string& text) {
  ProblemSpec spec;
  util::parse_spec(text, "ProblemSpec", &spec.name, &spec.options);
  return spec;
}

ProblemRegistry& ProblemRegistry::instance() {
  static ProblemRegistry reg = make_registry();
  return reg;
}

void ProblemRegistry::add(const std::string& name, Entry entry) {
  if (!entry.factory) {
    throw std::invalid_argument("ProblemRegistry: entry for '" + name +
                                "' needs a factory");
  }
  entries_[name] = std::move(entry);
}

bool ProblemRegistry::contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

const ProblemRegistry::Entry& ProblemRegistry::at(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument("unknown problem '" + name + "' (known: " +
                                join_names(names()) + ")");
  }
  return it->second;
}

std::vector<std::string> ProblemRegistry::names() const {
  std::vector<std::string> out;
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

void ProblemRegistry::check_options(const std::string& name,
                                    const ProblemOptions& options) const {
  const Entry& entry = at(name);
  for (const auto& [key, value] : options) {
    if (std::find(entry.option_keys.begin(), entry.option_keys.end(), key) ==
        entry.option_keys.end()) {
      throw std::invalid_argument("problem '" + name +
                                  "' does not take option '" + key + "'");
    }
  }
  if (entry.validate_options) entry.validate_options(options);
}

Problem ProblemRegistry::create(const ProblemSpec& spec) const {
  check_options(spec.name, spec.options);
  return at(spec.name).factory(spec.options);
}

Problem ProblemRegistry::create(const std::string& spec_string) const {
  return create(ProblemSpec::from_string(spec_string));
}

}  // namespace mstep::problems
