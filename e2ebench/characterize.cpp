// Workload `characterize`: cold-cache characterisation campaigns through
// core::characterize_batch, one call per table kind per round.
//
// The partial kind (planes none, several layers) is many small 2-trace
// blocks; the loop kind (planes below, a smaller grid) is fewer, larger
// blocks with plane strips, whose impedance systems feed the LU.  The
// grids are sized so each kind takes about half of a round.  Each round
// writes into a fresh, empty table cache.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>

#include "bench.h"
#include "core/batch_extractor.h"
#include "numeric/spline.h"
#include "numeric/units.h"
#include "oracles.h"
#include "probes.h"
#include "solver/frequency.h"

namespace e2e {

using namespace rlcx;
using units::um;

namespace {

struct Inputs {
  std::vector<core::BatchJob> partial;
  std::vector<core::BatchJob> loop;
  std::size_t partial_points = 0;
  std::size_t loop_points = 0;
};

std::size_t grid_points(const core::TableGrid& g) {
  return g.widths.size() * g.widths.size() * g.spacings.size() *
         g.lengths.size();
}

/// A geometric grid whose bounds the seed moves by up to +-3 %, which
/// changes every table value but not the work of a solve.
core::TableGrid seeded_grid(Rng& rng, double w0, double w1, double s0,
                            double s1, double l0, double l1, std::size_t n) {
  auto j = [&](double v) { return v * rng.uniform(0.97, 1.03); };
  core::TableGrid g;
  g.widths = geomspace(um(j(w0)), um(j(w1)), n);
  g.spacings = geomspace(um(j(s0)), um(j(s1)), n);
  g.lengths = geomspace(um(j(l0)), um(j(l1)), n);
  return g;
}

Inputs make_inputs(const Options& opt) {
  Rng rng(opt.seed);
  Inputs in;
  const std::vector<int> layers =
      opt.smoke ? std::vector<int>{6} : std::vector<int>{4, 5, 6};
  const std::size_t n_partial = opt.smoke ? 2 : 5;
  for (const int layer : layers) {
    core::BatchJob job;
    job.layer = layer;
    job.planes = geom::PlaneConfig::kNone;
    job.grid = seeded_grid(rng, 1, 20, 0.5, 10, 100, 6000, n_partial);
    in.partial_points += grid_points(job.grid);
    in.partial.push_back(std::move(job));
  }
  core::BatchJob loop;
  loop.layer = 6;
  loop.planes = geom::PlaneConfig::kBelow;
  loop.grid = opt.smoke ? seeded_grid(rng, 2, 12, 1, 8, 200, 600, 2)
                        : seeded_grid(rng, 2, 12, 1, 8, 300, 3000, 3);
  in.loop_points = grid_points(loop.grid);
  in.loop.push_back(std::move(loop));
  return in;
}

solver::SolveOptions solve_options() {
  solver::SolveOptions s;
  s.frequency = solver::significant_frequency(200e-12);  // CLI default
  return s;
}

/// Property and closed-form checks on one campaign's tables.
/// `partial_ref`, when given, is the partial table of the same layer.
void check_tables(const core::InductanceTables& t,
                  const core::InductanceTables* partial_ref,
                  const geom::Technology& tech, Report& report,
                  TimedProvider& lookups) {
  const bool loop = t.planes != geom::PlaneConfig::kNone;
  const std::string tag = std::string(loop ? "loop" : "partial") +
                          " layer " + std::to_string(t.layer);
  const auto& ax = t.mutual.axes();  // w1, w2, spacing, length
  const auto& W = ax[0];
  const auto& S = ax[2];
  const auto& L = ax[3];
  const double thick = tech.layer(t.layer).thickness;
  bool finite = true, rises = true, falls = true, bounded = true;
  bool below_partial = true;
  int grover_n = 0, neumann_n = 0;
  double grover_err = 0.0, neumann_err = 0.0;
  for (std::size_t i = 0; i < W.size(); ++i) {
    for (std::size_t m = 0; m < L.size(); ++m) {
      const double l_self = lookups.self(W[i], L[m]);
      finite = finite && std::isfinite(l_self) && l_self > 0.0;
      if (m > 0) rises = rises && l_self > t.self.at({i, m - 1});
      if (partial_ref != nullptr)
        below_partial =
            below_partial && l_self < partial_ref->self.lookup({W[i], L[m]});
      // Grover holds for a long, narrow bar carrying near-uniform
      // current: length over 100x the perimeter half and width within
      // two skin depths (about 3.3 um at the 1.6 GHz solve frequency).
      if (!loop && L[m] > 100.0 * (W[i] + thick) && W[i] < um(3.3)) {
        grover_err = std::max(
            grover_err,
            std::abs(l_self / grover_bar_self(L[m], W[i], thick) - 1.0));
        ++grover_n;
      }
      for (std::size_t j = 0; j < W.size(); ++j) {
        for (std::size_t k = 0; k < S.size(); ++k) {
          const double mut = lookups.mutual(W[i], W[j], S[k], L[m]);
          finite = finite && std::isfinite(mut);
          if (k > 0) falls = falls && mut < t.mutual.at({i, j, k - 1, m});
          const double l2 = t.self.at({j, m});
          bounded = bounded && std::abs(mut) < std::sqrt(l_self * l2);
          // Neumann's filaments stand in for bars whose widths are small
          // against their centre distance, on a long aspect.
          const double d = S[k] + 0.5 * (W[i] + W[j]);
          if (!loop && d > 4.0 * std::max({W[i], W[j], thick}) &&
              L[m] > 20.0 * d) {
            neumann_err = std::max(
                neumann_err,
                std::abs(mut / neumann_filament_mutual(L[m], d) - 1.0));
            ++neumann_n;
          }
        }
      }
    }
  }
  report.check(finite, tag + ": every L finite, self-L positive");
  report.check(rises, tag + ": self-L rises with length");
  report.check(falls, tag + ": mutual-L falls with spacing");
  report.check(bounded, tag + ": |M12| < sqrt(L1 L2) at every grid point");
  if (partial_ref != nullptr)
    report.check(below_partial,
                 tag + ": loop-L over the plane below partial self-L");
  if (!loop) {
    // Stated tolerances: 2 % for Grover, 1 % for Neumann.
    report.check(grover_n > 0 && grover_err < 0.02,
                 tag + ": long-aspect self-L within 2 % of Grover (max " +
                     std::to_string(100 * grover_err) + " % over " +
                     std::to_string(grover_n) + " points)");
    report.check(neumann_n > 0 && neumann_err < 0.01,
                 tag + ": long-aspect mutual-L within 1 % of Neumann (max " +
                     std::to_string(100 * neumann_err) + " % over " +
                     std::to_string(neumann_n) + " points)");
    report.notes["grover_max_err_pct"] =
        std::max(report.notes["grover_max_err_pct"], 100 * grover_err);
    report.notes["neumann_max_err_pct"] =
        std::max(report.notes["neumann_max_err_pct"], 100 * neumann_err);
  }
}

struct Round {
  double partial_s = 0.0;
  double loop_s = 0.0;
  double cpu_s = 0.0;
  double wall_ms = 0.0;  ///< the whole round, cache set-up and stores too
  peec::FillStats fills;
  core::BatchResult partial;
  core::BatchResult loop;
};

/// One campaign per kind into a fresh empty cache under `dir`.
Round run_round(const geom::Technology& tech, const Inputs& in,
                const solver::SolveOptions& sopt, const std::string& dir,
                Tracer& tracer) {
  Tracer::Scope span(tracer, "round", 0);
  std::filesystem::remove_all(dir);
  core::TableCache cache(dir);
  core::BatchOptions bo;
  bo.cache = &cache;
  Round r;
  const double cpu0 = process_cpu_seconds();
  r.fills = fill_delta([&] {
    r.partial_s = 1e-3 * timed(tracer, "core.characterize_batch partial", [&] {
                    r.partial =
                        core::characterize_batch(tech, in.partial, sopt, bo);
                  });
    r.loop_s = 1e-3 * timed(tracer, "core.characterize_batch loop", [&] {
                 r.loop = core::characterize_batch(tech, in.loop, sopt, bo);
               });
  });
  r.cpu_s = process_cpu_seconds() - cpu0;
  r.wall_ms = span.elapsed_ms();
  return r;
}

}  // namespace

void run_characterize(const Options& opt, Report& report, Tracer& tracer) {
  const geom::Technology tech = geom::Technology::generic_025um();
  const solver::SolveOptions sopt = solve_options();

  // Set-up: inputs, the pool's workers and one small warm-up campaign
  // (81 solves) so lazy initialisation is paid before timing; repeated,
  // median reported.
  Inputs in;
  std::vector<double> setups;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point t0 = Clock::now();
    in = make_inputs(opt);
    core::BatchJob warm = in.partial.front();
    Rng rng(opt.seed);
    warm.grid = seeded_grid(rng, 1, 20, 0.5, 10, 100, 6000, 3);
    std::filesystem::remove_all("warmup");
    core::TableCache cache("warmup");
    core::BatchOptions bo;
    bo.cache = &cache;
    (void)core::characterize_batch(tech, {warm}, sopt, bo);
    std::filesystem::remove_all("warmup");
    setups.push_back(seconds_since(t0));
  }
  report.e2e("setup_s", median(setups), "s");

  std::vector<double> ops_rate, partial_ms, loop_ms, round_ms;
  std::vector<double> round_untraced, round_traced;
  std::vector<double> campaign_s, cpu_util;
  peec::FillStats fills;
  std::size_t extrap = 0, lookups = 0;
  double lookup_ns = 0.0;
  const int min_rounds = opt.trace ? 2 : 1;
  const Clock::time_point start = Clock::now();
  for (int k = 0;
       k < min_rounds || (!opt.smoke && seconds_since(start) < opt.seconds);
       ++k) {
    // The traced run alternates untraced and traced rounds; the
    // difference of their medians is the tracing overhead.
    const bool traced = opt.trace && k % 2 == 1;
    Tracer off(false);
    Tracer& tr = traced ? tracer : off;
    const std::size_t ops = in.partial_points + in.loop_points;
    report.attempted += ops;
    Round r;
    try {
      r = run_round(tech, in, sopt, "round-" + std::to_string(k), tr);
    } catch (const std::exception& e) {
      report.failed += ops;
      report.check(false, std::string("campaign threw: ") + e.what());
      continue;
    }
    ops_rate.push_back(static_cast<double>(ops) / (r.partial_s + r.loop_s));
    partial_ms.push_back(1e3 * r.partial_s /
                         static_cast<double>(in.partial_points));
    loop_ms.push_back(1e3 * r.loop_s / static_cast<double>(in.loop_points));
    round_ms.push_back(r.wall_ms);
    (traced ? round_traced : round_untraced).push_back(r.partial_s + r.loop_s);

    Tracer::Scope checks(tr, "checks", 0);
    std::size_t solves = 0;
    for (const auto* res : {&r.partial, &r.loop})
      for (const core::BuildStats& s : res->stats) {
        solves += s.solves;
        report.check(s.solves == s.grid_points,
                     "solve count equals grid points");
      }
    report.check(solves == ops, "campaign solve count equals grid points");
    const core::InductanceTables* partial6 = nullptr;
    for (const core::InductanceTables& t : r.partial.tables)
      if (t.layer == 6) partial6 = &t;
    for (const auto* res : {&r.partial, &r.loop}) {
      for (const core::InductanceTables& t : res->tables) {
        TimedProvider timed_model(
            std::make_shared<core::TableInductanceModel>(t));
        check_tables(t, res == &r.loop ? partial6 : nullptr, tech, report,
                     timed_model);
        lookups += timed_model.lookups();
        lookup_ns += timed_model.mean_ns() *
                     static_cast<double>(timed_model.lookups());
        extrap += extrapolations(t);
      }
    }
    if (traced) {
      fills.kernel_evals += r.fills.kernel_evals;
      fills.pair_lookups += r.fills.pair_lookups;
      fills.memo_hits += r.fills.memo_hits;
      campaign_s.push_back(r.partial_s + r.loop_s);
      cpu_util.push_back(r.cpu_s / ((r.partial_s + r.loop_s) * kPoolWidth));
    }
    std::filesystem::remove_all("round-" + std::to_string(k));
  }
  report.e2e("ops_per_s", median(ops_rate), "1/s");
  report.e2e("light_p50_ms", median(partial_ms), "ms");
  report.e2e("medium_p50_ms", median(loop_ms), "ms");
  report.e2e("heavy_p50_ms", median(round_ms), "ms");
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  if (!opt.trace) return;

  // Layer probes on a fixed sample of this workload's own blocks: the
  // shortest, middle and longest length of the widest-spaced partial
  // pair on layer 6, and the extreme lengths of the loop grid.
  std::vector<SolveProbe> probes;
  auto sample = [&](const core::BatchJob& job, std::size_t li) {
    const core::TableGrid& g = job.grid;
    return pair_block(tech, job.layer, g.widths[g.widths.size() / 2],
                      g.spacings.back(), g.lengths[li], job.planes);
  };
  const core::BatchJob& pj = in.partial.back();
  for (const std::size_t li : {std::size_t{0}, pj.grid.lengths.size() / 2,
                               pj.grid.lengths.size() - 1})
    probes.push_back(probe_solve(sample(pj, li), sopt, false, tracer));
  const core::BatchJob& lj = in.loop.front();
  for (const std::size_t li : {std::size_t{0}, lj.grid.lengths.size() - 1})
    probes.push_back(probe_solve(sample(lj, li), sopt, true, tracer));
  report_solve_probes(probes, false, report);
  report_fill_counters(fills, report);

  // Cache load: one more cold campaign's entries read back, and checked
  // bit-identical to what the campaign returned.
  {
    std::filesystem::remove_all("loadcheck");
    core::TableCache cache("loadcheck");
    core::BatchOptions bo;
    bo.cache = &cache;
    const core::BatchResult br =
        core::characterize_batch(tech, in.loop, sopt, bo);
    std::vector<double> load_ms;
    for (std::size_t i = 0; i < in.loop.size(); ++i) {
      const std::string key = core::TableCache::key_text(
          tech, in.loop[i].layer, in.loop[i].planes, in.loop[i].grid, sopt);
      std::optional<core::InductanceTables> got;
      load_ms.push_back(timed(tracer, "core.cache_load",
                              [&] { got = cache.load(key); }));
      report.check(got &&
                       got->mutual.values() == br.tables[i].mutual.values() &&
                       got->self.values() == br.tables[i].self.values(),
                   "cache entry reads back bit-identical");
    }
    std::filesystem::remove_all("loadcheck");
    report.layer("core.cache_load_ms", median(load_ms), "ms");
  }
  report.layer("core.campaign_s", median(campaign_s), "s");
  report.layer("rt.cpu_utilisation", median(cpu_util), "ratio");
  report.layer("core.lookup_ns",
               lookups == 0 ? 0.0 : lookup_ns / static_cast<double>(lookups),
               "ns");
  report.layer("core.lookups", static_cast<double>(lookups), "count");
  report.layer("core.extrapolations", static_cast<double>(extrap), "count");
  report.layer("trace.overhead_pct",
               100.0 * (median(round_traced) / median(round_untraced) - 1.0),
               "%");
}

}  // namespace e2e
