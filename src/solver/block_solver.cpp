#include "solver/block_solver.h"

#include "diag/error.h"

#include <algorithm>
#include <complex>
#include <cstdint>
#include <memory>
#include <numbers>
#include <string>

#include "res/budget.h"
#include "numeric/lu.h"
#include "peec/assembly.h"
#include "peec/mesh.h"
#include "rt/parallel.h"

namespace rlcx::solver {

namespace {

using Complex = std::complex<double>;

/// One extraction conductor: a set of parallel filaments sharing terminals.
struct Conductor {
  std::vector<peec::Filament> filaments;
  bool is_ground = false;
  std::size_t block_trace = SIZE_MAX;  ///< index into block (signals/grounds)
};

peec::Bar trace_bar(const geom::Block& block, std::size_t i) {
  const geom::Trace& t = block.trace(i);
  const geom::Layer& layer = block.layer();
  peec::Bar bar;
  bar.axis = peec::Axis::kY;
  bar.a_min = 0.0;
  bar.length = block.length();
  bar.t_min = t.x_left();
  bar.t_width = t.width;
  bar.z_min = layer.z_bottom;
  bar.z_thick = layer.thickness;
  return bar;
}

peec::MeshOptions mesh_for(const peec::Bar& bar, double rho,
                           const SolveOptions& opt) {
  if (!opt.auto_mesh) return opt.mesh;
  const double depth = peec::skin_depth(rho, opt.frequency);
  return peec::mesh_for_skin_depth(bar, depth, opt.max_filaments_per_dim);
}

std::vector<peec::Filament> mesh_conductor(const peec::Bar& envelope,
                                           double rho,
                                           const SolveOptions& opt) {
  const peec::MeshOptions mopt = mesh_for(envelope, rho, opt);
  std::vector<peec::Filament> out;
  for (const peec::Bar& b : peec::mesh_cross_section(envelope, mopt)) {
    out.push_back({b, 1.0, peec::bar_resistance(b, rho)});
  }
  return out;
}

/// Conductor-level complex impedance matrix at the solve frequency:
/// filaments of a conductor are strictly parallel, so
/// Z_cond = (P^T Z_fil^{-1} P)^{-1} exactly, for any terminal conditions.
/// Full dense fill + blocked LU (numeric/lu.h).
ComplexMatrix conductor_impedance(const std::vector<Conductor>& conductors,
                                  const SolveOptions& opt) {
  std::vector<peec::Filament> all;
  std::vector<std::size_t> owner;
  for (std::size_t c = 0; c < conductors.size(); ++c) {
    for (const peec::Filament& f : conductors[c].filaments) {
      all.push_back(f);
      owner.push_back(c);
    }
  }
  const std::size_t nc = conductors.size();
  const std::size_t nf = all.size();
  // Reserve-or-refuse (docs/robustness.md "Resource governance"): the
  // reservation happens here on the serial spine, before any pool fan-out,
  // so the outcome is identical at every pool width.  A charge the budget
  // refuses unwinds as ResourceExhaustedError (exit code 7).
  const res::ScopedReservation reservation(
      "solver-dense", estimate_dense_solve_bytes(nf, nc));

  const RealMatrix lp = peec::partial_inductance_matrix(all, opt.partial);
  const double omega = 2.0 * std::numbers::pi * opt.frequency;
  ComplexMatrix z(nf, nf);
  for (std::size_t i = 0; i < nf; ++i) {
    for (std::size_t j = 0; j < nf; ++j)
      z(i, j) = Complex(0.0, omega * lp(i, j));
    z(i, i) += all[i].resistance;
  }

  // Z^{-1} P goes through the blocked multi-RHS substitution; column blocks
  // are independent (the substitution never mixes RHS columns), so they fan
  // out across the pool with each task writing its own columns.
  std::unique_ptr<LuDecomposition<Complex>> lu;
  try {
    lu = std::make_unique<LuDecomposition<Complex>>(std::move(z));
  } catch (const diag::SingularSystem& e) {
    throw diag::SingularSystem(
        "solver", "dense solver path: " + e.message(), e.column(),
        e.dimension(), e.condition_estimate());
  }
  ComplexMatrix zinv_p(nf, nc);
  rt::parallel_for(0, nc, [&](std::size_t lo, std::size_t hi) {
    ComplexMatrix rhs(nf, hi - lo);
    for (std::size_t i = 0; i < nf; ++i)
      if (owner[i] >= lo && owner[i] < hi) rhs(i, owner[i] - lo) = 1.0;
    const ComplexMatrix x = lu->solve(rhs);
    for (std::size_t i = 0; i < nf; ++i)
      for (std::size_t b = lo; b < hi; ++b) zinv_p(i, b) = x(i, b - lo);
  });

  // Y = P^T (Z^-1 P) reduced to conductor level, then inverted.  Row a of
  // Y accumulates the zinv_p rows of conductor a's filaments, in ascending
  // filament order.
  ComplexMatrix y(nc, nc);
  for (std::size_t i = 0; i < nf; ++i) {
    const std::size_t a = owner[i];
    for (std::size_t b = 0; b < nc; ++b) y(a, b) += zinv_p(i, b);
  }
  return inverse(y);
}

std::vector<Conductor> block_conductors(const geom::Block& block,
                                        const SolveOptions& opt) {
  std::vector<Conductor> conductors;
  const double rho = block.layer().rho;
  for (std::size_t i = 0; i < block.size(); ++i) {
    Conductor c;
    c.filaments = mesh_conductor(trace_bar(block, i), rho, opt);
    c.is_ground = block.trace(i).role == geom::TraceRole::kGround;
    c.block_trace = i;
    conductors.push_back(std::move(c));
  }
  auto add_plane = [&](int plane_layer) {
    const double prho = block.tech().layer(plane_layer).rho;
    for (const peec::Bar& strip : plane_strips(block, plane_layer, opt.plane)) {
      Conductor c;
      c.filaments = mesh_conductor(strip, prho, opt);
      c.is_ground = true;
      conductors.push_back(std::move(c));
    }
  };
  const geom::PlaneConfig pc = block.planes();
  if (pc == geom::PlaneConfig::kBelow || pc == geom::PlaneConfig::kBothSides)
    add_plane(block.plane_layer_below());
  if (pc == geom::PlaneConfig::kAbove || pc == geom::PlaneConfig::kBothSides)
    add_plane(block.plane_layer_above());
  return conductors;
}

}  // namespace

std::size_t estimate_dense_solve_bytes(std::size_t filaments,
                                       std::size_t conductors) {
  const std::size_t nf = filaments;
  const std::size_t nc = conductors;
  // Coexisting peaks: the real fill (lp, kept for the Z build), the
  // complex Z moved in place into its LU factors, and the multi-RHS
  // substitution blocks (zinv_p plus per-chunk rhs and solution).
  return std::max<std::size_t>(peec::estimate_fill_bytes(nf) +
                                   nf * nf * sizeof(Complex) +
                                   3 * nf * nc * sizeof(Complex),
                               1024);
}

std::size_t estimate_extract_bytes(const geom::Block& block,
                                   const SolveOptions& opt) {
  const std::vector<Conductor> conductors = block_conductors(block, opt);
  std::size_t nf = 0;
  for (const Conductor& c : conductors) nf += c.filaments.size();
  return estimate_dense_solve_bytes(nf, conductors.size());
}

std::vector<peec::Bar> plane_strips(const geom::Block& block, int plane_layer,
                                    const PlaneOptions& opt) {
  if (opt.strips < 1)
    throw diag::UsageError("solver", "plane_strips: strip count must be >= 1, got " +
                                         std::to_string(opt.strips));
  const geom::Layer& player = block.tech().layer(plane_layer);
  const double h = block.tech().dielectric_gap(
      std::min(plane_layer, block.layer_index()),
      std::max(plane_layer, block.layer_index()));
  const double margin = std::max(opt.margin_factor * h, opt.min_margin);

  double x_lo = block.trace(0).x_left();
  double x_hi = block.trace(block.size() - 1).x_right();
  x_lo -= margin;
  x_hi += margin;

  const double pitch = (x_hi - x_lo) / opt.strips;
  std::vector<peec::Bar> strips;
  strips.reserve(static_cast<std::size_t>(opt.strips));
  for (int i = 0; i < opt.strips; ++i) {
    peec::Bar s;
    s.axis = peec::Axis::kY;
    s.a_min = 0.0;
    s.length = block.length();
    s.t_min = x_lo + i * pitch;
    s.t_width = pitch;
    s.z_min = player.z_bottom;
    s.z_thick = player.thickness;
    strips.push_back(s);
  }
  return strips;
}

PartialResult extract_partial(const geom::Block& block,
                              const SolveOptions& opt) {
  if (opt.frequency <= 0.0)
    throw diag::UsageError(
        "solver", "extract_partial: frequency must be positive, got " +
                      std::to_string(opt.frequency) + " Hz");
  // Partial-inductance extraction ignores planes by definition: the return
  // path is decided later by the circuit simulator (paper Section II.A).
  std::vector<Conductor> conductors;
  const double rho = block.layer().rho;
  for (std::size_t i = 0; i < block.size(); ++i) {
    Conductor c;
    c.filaments = mesh_conductor(trace_bar(block, i), rho, opt);
    c.block_trace = i;
    conductors.push_back(std::move(c));
  }
  const ComplexMatrix z = conductor_impedance(conductors, opt);
  const double omega = 2.0 * std::numbers::pi * opt.frequency;

  const std::size_t n = block.size();
  PartialResult res;
  res.inductance = RealMatrix(n, n);
  res.resistance.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    res.resistance[i] = z(i, i).real();
    for (std::size_t j = 0; j < n; ++j)
      res.inductance(i, j) = z(i, j).imag() / omega;
  }
  return res;
}

LoopResult extract_loop(const geom::Block& block, const SolveOptions& opt) {
  if (opt.frequency <= 0.0)
    throw diag::UsageError(
        "solver", "extract_loop: frequency must be positive, got " +
                      std::to_string(opt.frequency) + " Hz");
  const std::vector<Conductor> conductors = block_conductors(block, opt);

  std::vector<std::size_t> sig, gnd;
  for (std::size_t c = 0; c < conductors.size(); ++c)
    (conductors[c].is_ground ? gnd : sig).push_back(c);
  if (sig.empty())
    throw diag::GeometryError(
        "solver", "extract_loop: the block has no signal traces (all " +
                      std::to_string(conductors.size()) +
                      " conductors are grounds/planes)");
  if (gnd.empty())
    throw diag::GeometryError(
        "solver",
        "extract_loop: no return path — the block needs ground traces or a "
        "plane (use extract_partial for bare coplanar signals)");

  const ComplexMatrix z = conductor_impedance(conductors, opt);
  const std::size_t ns = sig.size();
  const std::size_t ng = gnd.size();

  ComplexMatrix zss(ns, ns), zsg(ns, ng), zgs(ng, ns), zgg(ng, ng);
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < ns; ++j) zss(i, j) = z(sig[i], sig[j]);
    for (std::size_t g = 0; g < ng; ++g) zsg(i, g) = z(sig[i], gnd[g]);
  }
  for (std::size_t g = 0; g < ng; ++g) {
    for (std::size_t j = 0; j < ns; ++j) zgs(g, j) = z(gnd[g], sig[j]);
    for (std::size_t h = 0; h < ng; ++h) zgg(g, h) = z(gnd[g], gnd[h]);
  }

  // All grounds join the signals' far-end sink node and share the common
  // return drop V_G; enforcing sum(I_G) = -sum(I_S) yields the bordered
  // Schur reduction below (see DESIGN.md).
  LuDecomposition<Complex> lug(zgg);
  const ComplexMatrix zgg_inv_zgs = lug.solve(zgs);
  std::vector<Complex> ones(ng, Complex(1.0, 0.0));
  const std::vector<Complex> zgg_inv_1 = lug.solve(ones);

  Complex denom = 0.0;
  for (std::size_t g = 0; g < ng; ++g) denom += zgg_inv_1[g];

  // Row vector r_j = sum_g (Zgg^-1 Zgs)(g, j) - 1.
  std::vector<Complex> r(ns);
  for (std::size_t j = 0; j < ns; ++j) {
    Complex acc = 0.0;
    for (std::size_t g = 0; g < ng; ++g) acc += zgg_inv_zgs(g, j);
    r[j] = acc - Complex(1.0, 0.0);
  }
  // Column vector c_i = (Zsg Zgg^-1 1)(i) - 1.
  std::vector<Complex> cvec(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    Complex acc = 0.0;
    for (std::size_t g = 0; g < ng; ++g) acc += zsg(i, g) * zgg_inv_1[g];
    cvec[i] = acc - Complex(1.0, 0.0);
  }

  // Zsg (Zgg^-1 Zgs) — Zgg^-1 Zgs came out of the blocked multi-RHS solve
  // above, and the matmul accumulates over g in the same ascending order
  // the explicit triple loop did.
  const ComplexMatrix schur = zsg * zgg_inv_zgs;
  ComplexMatrix zloop(ns, ns);
  for (std::size_t i = 0; i < ns; ++i)
    for (std::size_t j = 0; j < ns; ++j)
      zloop(i, j) = zss(i, j) - schur(i, j) + cvec[i] * r[j] / denom;

  const double omega = 2.0 * std::numbers::pi * opt.frequency;
  LoopResult res;
  res.inductance = RealMatrix(ns, ns);
  res.resistance = RealMatrix(ns, ns);
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < ns; ++j) {
      res.inductance(i, j) = zloop(i, j).imag() / omega;
      res.resistance(i, j) = zloop(i, j).real();
    }
    res.signal_traces.push_back(conductors[sig[i]].block_trace);
  }
  return res;
}

}  // namespace rlcx::solver
