#include "probes.h"

#include <complex>
#include <numbers>

#include "numeric/lu.h"
#include "peec/assembly.h"
#include "peec/mesh.h"
#include "solver/block_solver.h"

namespace e2e {

using namespace rlcx;

namespace {

/// The filaments the block solver builds for one conductor envelope: a
/// skin-depth-graded cross-section mesh (solver::SolveOptions::auto_mesh).
void mesh_into(const peec::Bar& envelope, double rho,
               const solver::SolveOptions& opt,
               std::vector<peec::Filament>& out) {
  const peec::MeshOptions mopt =
      opt.auto_mesh
          ? peec::mesh_for_skin_depth(envelope,
                                      peec::skin_depth(rho, opt.frequency),
                                      opt.max_filaments_per_dim)
          : opt.mesh;
  for (const peec::Bar& b : peec::mesh_cross_section(envelope, mopt))
    out.push_back({b, 1.0, peec::bar_resistance(b, rho)});
}

std::vector<peec::Filament> block_filaments(const geom::Block& blk,
                                            const solver::SolveOptions& opt,
                                            bool loop) {
  std::vector<peec::Filament> all;
  for (std::size_t i = 0; i < blk.size(); ++i) {
    const geom::Trace& t = blk.trace(i);
    peec::Bar bar;
    bar.axis = peec::Axis::kY;
    bar.length = blk.length();
    bar.t_min = t.x_left();
    bar.t_width = t.width;
    bar.z_min = blk.layer().z_bottom;
    bar.z_thick = blk.layer().thickness;
    mesh_into(bar, blk.layer().rho, opt, all);
  }
  if (!loop) return all;
  auto add_plane = [&](int plane_layer) {
    const double rho = blk.tech().layer(plane_layer).rho;
    for (const peec::Bar& s : solver::plane_strips(blk, plane_layer, opt.plane))
      mesh_into(s, rho, opt, all);
  };
  const geom::PlaneConfig pc = blk.planes();
  if (pc == geom::PlaneConfig::kBelow || pc == geom::PlaneConfig::kBothSides)
    add_plane(blk.plane_layer_below());
  if (pc == geom::PlaneConfig::kAbove || pc == geom::PlaneConfig::kBothSides)
    add_plane(blk.plane_layer_above());
  return all;
}

}  // namespace

geom::Block pair_block(const geom::Technology& tech, int layer, double w,
                       double s, double l, geom::PlaneConfig planes) {
  std::vector<geom::Trace> traces{
      {geom::TraceRole::kSignal, w, -0.5 * (s + w), "a"},
      {geom::TraceRole::kSignal, w, 0.5 * (s + w), "b"}};
  return geom::Block(&tech, layer, l, std::move(traces), planes);
}

SolveProbe probe_solve(const geom::Block& blk, const solver::SolveOptions& opt,
                       bool loop, Tracer& tracer) {
  SolveProbe p;
  RealMatrix lp;
  std::vector<peec::Filament> fil;
  peec::FillStats fs;
  p.fill_ms = timed(tracer, "peec.mesh_fill", [&] {
    fil = block_filaments(blk, opt, loop);
    lp = peec::partial_inductance_matrix(fil, opt.partial, nullptr, &fs);
  });
  p.kernel_evals = fs.kernel_evals;
  p.pair_lookups = fs.pair_lookups;
  p.memo_hits = fs.memo_hits;
  const std::size_t n = fil.size();
  p.lu_dim = n;
  const double omega = 2.0 * std::numbers::pi * opt.frequency;
  ComplexMatrix z(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      z(i, j) = std::complex<double>(0.0, omega * lp(i, j));
    z(i, i) += fil[i].resistance;
  }
  p.lu_ms = timed(tracer, "numeric.lu", [&] {
    const LuDecomposition<std::complex<double>> lu(std::move(z));
  });
  p.extract_ms = timed(tracer, "solver.extract", [&] {
    if (loop)
      (void)solver::extract_loop(blk, opt);
    else
      (void)solver::extract_partial(blk, opt);
  });
  return p;
}

void report_solve_probes(const std::vector<SolveProbe>& probes,
                         bool with_fill_counters, Report& report) {
  std::vector<double> fill, lu, ex, dim;
  std::size_t evals = 0, lookups = 0, hits = 0;
  for (const SolveProbe& p : probes) {
    fill.push_back(p.fill_ms);
    lu.push_back(p.lu_ms);
    ex.push_back(p.extract_ms);
    dim.push_back(static_cast<double>(p.lu_dim));
    evals += p.kernel_evals;
    lookups += p.pair_lookups;
    hits += p.memo_hits;
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  report.layer("peec.fill_ms", mean(fill), "ms");
  report.layer("numeric.lu_ms", mean(lu), "ms");
  report.layer("numeric.lu_dim", mean(dim), "count");
  report.layer("solver.extract_ms", mean(ex), "ms");
  if (with_fill_counters) {
    peec::FillStats f;
    f.kernel_evals = evals;
    f.pair_lookups = lookups;
    f.memo_hits = hits;
    report_fill_counters(f, report);
  }
}

void report_fill_counters(const peec::FillStats& f, Report& report) {
  report.layer("peec.kernel_evals", static_cast<double>(f.kernel_evals),
               "count");
  report.layer("peec.memo_hit_ratio", f.hit_rate(), "ratio");
}

template <class Fn>
double TimedProvider::time(Fn&& fn) const {
  const Clock::time_point t0 = Clock::now();
  const double v = fn();
  nanos_.fetch_add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count()));
  lookups_.fetch_add(1);
  return v;
}

double TimedProvider::self(double w, double l) const {
  return time([&] { return inner_->self(w, l); });
}
double TimedProvider::mutual(double w1, double w2, double s, double l) const {
  return time([&] { return inner_->mutual(w1, w2, s, l); });
}
double TimedProvider::series_resistance(double w, double l) const {
  return time([&] { return inner_->series_resistance(w, l); });
}

std::size_t extrapolations(const core::InductanceTables& t) {
  return t.self.extrapolation_count() + t.mutual.extrapolation_count() +
         t.series_r.extrapolation_count();
}

}  // namespace e2e
