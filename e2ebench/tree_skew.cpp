// Workload `tree_skew`: the paper's Section V flow through
// clocktree::compare_rc_rlc (RLC and RC-only analyses of one tree).
//
// Trees are the coplanar-waveguide and two-layer families at 4, 8 and 16
// sinks plus one symmetric 4-sink tree, with inductance from tables
// built on core::default_clock_grid() in set-up.  The ckt transient
// dominates here (about 5x per doubling of sinks).  The default grid is
// kept, so the root level's 12 um ground-to-ground spacing stays outside
// it and shows in core.extrapolations and diag.warnings.
#include <cmath>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "clocktree/skew.h"
#include "core/batch_extractor.h"
#include "numeric/units.h"
#include "oracles.h"
#include "probes.h"
#include "solver/frequency.h"

namespace e2e {

using namespace rlcx;
using units::um;

namespace {

constexpr double kRise = 150e-12;

struct Tree {
  std::string name;
  clocktree::HTreeSpec spec;
  bool symmetric = false;
  bool two_layer = false;
};

/// The paper's 3-level tree grown to `levels` levels (2^(levels-1)
/// sinks), each new level half as long and 0.7x as wide as its parent;
/// the seed moves lengths, loads and source resistance.
clocktree::HTreeSpec grow(clocktree::HTreeSpec s, std::size_t levels,
                          Rng& rng) {
  while (s.levels.size() < levels) {
    clocktree::LevelSpec l = s.levels.back();
    l.length *= 0.5;
    l.signal_width = std::max(um(2), 0.7 * l.signal_width);
    l.ground_width = l.signal_width;
    l.layer = s.levels.size() % 2 == 0 ? s.levels[0].layer
                                      : s.levels[1].layer;
    s.levels.push_back(l);
  }
  s.levels.resize(levels);
  for (clocktree::LevelSpec& l : s.levels) l.length *= rng.uniform(0.95, 1.05);
  s.driver.t_rise = kRise;
  s.driver.r_source = rng.uniform(15.0, 25.0);
  s.sink_cap = rng.uniform(150e-15, 250e-15);
  s.sink_cap_mismatch = rng.uniform(0.5, 1.5);
  return s;
}

std::vector<Tree> make_trees(const Options& opt) {
  Rng rng(opt.seed);
  std::vector<Tree> trees;
  const std::vector<std::size_t> levels =
      opt.smoke ? std::vector<std::size_t>{3}
                : std::vector<std::size_t>{3, 4, 5};
  for (const std::size_t n : levels) {
    trees.push_back({"cpw", grow(clocktree::example_cpw_tree(), n, rng), false,
                     false});
    trees.push_back({"two_layer",
                     grow(clocktree::example_two_layer_tree(), n, rng), false,
                     true});
  }
  Tree sym{"symmetric", grow(clocktree::example_cpw_tree(), 3, rng), true,
           false};
  sym.spec.sink_cap_mismatch = 0.0;
  trees.push_back(std::move(sym));
  return trees;
}

solver::SolveOptions solve_options() {
  solver::SolveOptions s;
  s.frequency = solver::significant_frequency(kRise);
  return s;
}

struct Tables {
  std::vector<std::shared_ptr<core::TableInductanceModel>> models;
  peec::FillStats fills;
  double campaign_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> load_ms;
};

/// Set-up: characterise the two structure classes the trees use (layers
/// 5 and 6, no planes) on the default grid into a fresh cache, then load
/// them back from it as a user's flow would.
Tables build_tables(const geom::Technology& tech,
                    const solver::SolveOptions& sopt, Tracer& tracer) {
  std::filesystem::remove_all("cache");
  core::TableCache cache("cache");
  std::vector<core::BatchJob> jobs;
  for (const int layer : {6, 5})
    jobs.push_back(
        {layer, geom::PlaneConfig::kNone, core::default_clock_grid()});
  core::BatchOptions bo;
  bo.cache = &cache;
  Tables t;
  const double cpu0 = process_cpu_seconds();
  core::BatchResult br;
  t.fills = fill_delta([&] {
    t.campaign_s = 1e-3 * timed(tracer, "core.characterize_batch", [&] {
                     br = core::characterize_batch(tech, jobs, sopt, bo);
                   });
  });
  t.cpu_s = process_cpu_seconds() - cpu0;
  for (const core::BatchJob& j : jobs) {
    std::optional<core::InductanceTables> got;
    t.load_ms.push_back(timed(tracer, "core.cache_load", [&] {
      got = cache.load(
          core::TableCache::key_text(tech, j.layer, j.planes, j.grid, sopt));
    }));
    if (!got) throw std::runtime_error("tree_skew: cache entry missing");
    t.models.push_back(std::make_shared<core::TableInductanceModel>(*got));
  }
  return t;
}

struct Library {
  core::InductanceLibrary lib;
  std::vector<std::shared_ptr<TimedProvider>> timed;
};

Library make_library(const Tables& t, bool timed_lookups) {
  Library l;
  for (const auto& m : t.models) {
    const core::InductanceTables& tb = m->tables();
    if (timed_lookups) {
      l.timed.push_back(std::make_shared<TimedProvider>(m));
      l.lib.add(tb.layer, tb.planes, l.timed.back());
    } else {
      l.lib.add(tb.layer, tb.planes, m);
    }
  }
  return l;
}

/// RC sink delays must lie below the Elmore delay of the RC tree, which
/// bounds the 50 % delay for a ramp input (Gupta et al.).  The ramp
/// crosses 50 % at t_rise / 2.
void check_elmore(const geom::Technology& tech, const Tree& tree,
                  const core::InductanceLibrary& lib,
                  const clocktree::SkewResult& rc, Report& report) {
  core::LadderOptions ladder;
  ladder.include_inductance = false;
  const clocktree::TreeNetlist tn =
      clocktree::build_tree_netlist(tech, tree.spec, lib, ladder);
  const std::vector<double> elmore = elmore_delays(tn.netlist);
  bool ok = !elmore.empty() && rc.sink_arrivals.size() == tn.sinks.size();
  for (std::size_t i = 0; ok && i < tn.sinks.size(); ++i) {
    const double bound = elmore[static_cast<std::size_t>(tn.sinks[i])];
    ok = rc.sink_delays[i] < bound &&
         rc.sink_arrivals[i] - 0.5 * tree.spec.driver.t_rise < bound;
  }
  report.check(ok, tree.name + " " + std::to_string(tree.spec.sink_count()) +
                       " sinks: RC sink delays below the Elmore bound");
}

void check_result(const Tree& tree, const clocktree::RcVsRlc& r,
                  Report& report) {
  const std::string tag =
      tree.name + " " + std::to_string(tree.spec.sink_count()) + " sinks";
  for (const clocktree::SkewResult* s : {&r.rlc, &r.rc}) {
    bool crossed = s->sink_arrivals.size() == tree.spec.sink_count();
    for (const double a : s->sink_arrivals)
      crossed = crossed && std::isfinite(a);
    report.check(crossed, tag + ": every sink crosses 50 %");
  }
  if (tree.symmetric)
    report.check(r.rlc.skew <= 0.01e-12 && r.rc.skew <= 0.01e-12,
                 tag + ": symmetric tree skew at most 0.01 ps");
  if (!tree.two_layer) return;
  const double diff = std::abs(r.rlc.skew - r.rc.skew) / r.rlc.skew;
  report.notes["two_layer_skew_diff_pct_sinks" +
               std::to_string(tree.spec.sink_count())] = 100.0 * diff;
  // Paper Section V: more than 10 % on its own (3-level, 4-sink) tree.
  if (tree.spec.sink_count() == 4)
    report.check(diff > 0.10,
                 tag + ": RLC and RC skews differ by more than 10 %");
}

/// The compare_rc_rlc steps taken apart through the layers' public
/// functions, for one tree: segments, netlist, transient, measurement.
void probe_tree(const geom::Technology& tech, const Tree& tree,
                const core::InductanceLibrary& lib, Tracer& tracer,
                Report& report) {
  const clocktree::HTreeSpec& spec = tree.spec;
  const std::string sinks = std::to_string(spec.sink_count());
  core::LadderOptions ladder;
  ladder.sections = clocktree::AnalysisOptions{}.ladder.sections;
  report.layer("clocktree.segments_ms",
               timed(tracer, "clocktree.extract_tree_segments", [&] {
                 (void)clocktree::extract_tree_segments(tech, spec, lib);
               }),
               "ms");
  std::vector<double> seg_ms;
  for (std::size_t lv = 0; lv < spec.levels.size(); ++lv) {
    const geom::Block blk = clocktree::level_block(tech, spec, lv);
    const core::InductanceProvider& p =
        lib.provider(blk.layer_index(), blk.planes());
    seg_ms.push_back(timed(tracer, "core.extract_segment_rlc",
                           [&] { (void)core::extract_segment_rlc(blk, p); }));
  }
  report.layer("core.segment_ms", median(seg_ms), "ms");
  clocktree::TreeNetlist tn;
  report.layer("clocktree.netlist_ms",
               timed(tracer, "clocktree.build_tree_netlist", [&] {
                 tn = clocktree::build_tree_netlist(tech, spec, lib, ladder);
               }),
               "ms");
  // The transient options analyze_skew derives for an auto horizon.
  ckt::TransientOptions topt;
  topt.dt = spec.driver.t_rise / 50.0;
  topt.t_stop = spec.driver.t_rise * 10.0 + 2e-9;
  std::optional<ckt::TransientResult> res;
  const double tran_ms = timed(tracer, "ckt.simulate", [&] {
    res.emplace(ckt::simulate(tn.netlist, topt));
  });
  report.layer("ckt.transient_ms.sinks" + sinks, tran_ms, "ms");
  report.layer("ckt.transient_ms", tran_ms, "ms");
  report.layer("ckt.steps_per_s",
               static_cast<double>(res->steps()) / (1e-3 * tran_ms), "1/s");
  report.layer("ckt.mna_dim",
               static_cast<double>(tn.netlist.node_count() - 1 +
                                   tn.netlist.inductors().size() +
                                   tn.netlist.vsources().size()),
               "count");
  report.layer("ckt.measure_ms", timed(tracer, "ckt.measure", [&] {
                 const ckt::Waveform ref = res->waveform(tn.driver_out);
                 for (const ckt::NodeId s : tn.sinks)
                   (void)ckt::delay_50(ref, res->waveform(s), spec.driver.vdd);
               }),
               "ms");
}

}  // namespace

void run_tree_skew(const Options& opt, Report& report, Tracer& tracer) {
  const geom::Technology tech = geom::Technology::generic_025um();
  const solver::SolveOptions sopt = solve_options();

  Tables tables;
  std::vector<double> setups;
  for (int k = 0; k < 3; ++k) {
    const Clock::time_point t0 = Clock::now();
    tables = build_tables(tech, sopt, tracer);
    setups.push_back(seconds_since(t0));
  }
  report.e2e("setup_s", median(setups), "s");
  const std::vector<Tree> trees = make_trees(opt);

  std::vector<double> rate, untraced_ms, traced_ms;
  std::map<std::size_t, std::vector<double>> by_sinks;  // compare_rc_rlc ms
  std::size_t extrap = 0, lookups = 0;
  double lookup_ns = 0.0;
  const int min_rounds = opt.trace ? 2 : 1;
  const Clock::time_point start = Clock::now();
  for (int k = 0;
       k < min_rounds || (!opt.smoke && seconds_since(start) < opt.seconds);
       ++k) {
    const bool traced = opt.trace && k % 2 == 1;
    Tracer off(false);
    Tracer& tr = traced ? tracer : off;
    Library lib = make_library(tables, traced);
    std::size_t extrap_before = 0;
    for (const auto& m : tables.models)
      extrap_before += extrapolations(m->tables());
    double round_ms = 0.0;
    std::size_t analyses = 0;
    Tracer::Scope round(tr, "round", 0);
    for (const Tree& tree : trees) {
      report.attempted += 2;
      clocktree::RcVsRlc r;
      double ms = 0.0;
      try {
        ms = timed(tr, "clocktree.compare_rc_rlc", [&] {
          r = clocktree::compare_rc_rlc(tech, tree.spec, lib.lib, {});
        });
      } catch (const std::exception& e) {
        report.failed += 2;
        report.check(false, tree.name + ": analysis threw: " + e.what());
        continue;
      }
      round_ms += ms;
      analyses += 2;
      by_sinks[tree.spec.sink_count()].push_back(ms);
      check_result(tree, r, report);
      if (k == 0) check_elmore(tech, tree, lib.lib, r.rc, report);
    }
    rate.push_back(static_cast<double>(analyses) / (1e-3 * round_ms));
    (traced ? traced_ms : untraced_ms).push_back(round_ms);
    if (traced) {
      for (const auto& m : tables.models) extrap += extrapolations(m->tables());
      extrap -= extrap_before;
      for (const auto& t : lib.timed) {
        lookups += t->lookups();
        lookup_ns += t->mean_ns() * static_cast<double>(t->lookups());
      }
    }
  }
  const std::size_t heavy = by_sinks.rbegin()->first;
  report.e2e("ops_per_s", median(rate), "1/s");
  report.e2e("light_p50_ms", median(by_sinks.begin()->second), "ms");
  report.e2e("medium_p50_ms",
             median(by_sinks.size() > 2 ? std::next(by_sinks.begin())->second
                                        : by_sinks.begin()->second),
             "ms");
  report.e2e("heavy_p50_ms", median(by_sinks[heavy]), "ms");
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  if (!opt.trace) return;

  // Per-layer breakdown of the cpw family, largest tree last so the
  // unsuffixed ckt metrics describe it.
  const Library lib = make_library(tables, false);
  for (const Tree& tree : trees)
    if (tree.name == "cpw") probe_tree(tech, tree, lib.lib, tracer, report);
  // The set-up campaign's solves, sampled on the default grid.
  std::vector<SolveProbe> probes;
  const core::TableGrid g = core::default_clock_grid();
  for (const double l : {g.lengths.front(), g.lengths.back()}) {
    const double w = g.widths[2], s = g.spacings.back();
    probes.push_back(probe_solve(
        pair_block(tech, 6, w, s, l, geom::PlaneConfig::kNone), sopt, false,
        tracer));
  }
  report_solve_probes(probes, false, report);
  report_fill_counters(tables.fills, report);
  report.layer("core.campaign_s", tables.campaign_s, "s");
  report.layer("rt.cpu_utilisation",
               tables.cpu_s / (tables.campaign_s * kPoolWidth), "ratio");
  report.layer("core.cache_load_ms", median(tables.load_ms), "ms");
  report.layer("core.lookups", static_cast<double>(lookups), "count");
  report.layer("core.lookup_ns",
               lookups == 0 ? 0.0 : lookup_ns / static_cast<double>(lookups),
               "ns");
  report.layer("core.extrapolations", static_cast<double>(extrap), "count");
  report.layer("trace.overhead_pct",
               100.0 * (median(traced_ms) / median(untraced_ms) - 1.0), "%");
}

}  // namespace e2e
