// Workload `serve_mix`: an in-process serve::Server on a Unix socket with
// its warm store primed in set-up, driven by two client connections in a
// closed loop over a seeded mix of three request classes:
//   lookup  signals-only extract, 80 %: table lookup plus protocol I/O
//   screen  full-structure cpw extract, 15 %: one small loop field solve
//   delay   RLC delay, 5 %: one small transient
// Every geometry stays inside the characterisation grid: an out-of-grid
// lookup emits a warning, and concurrent requests can then crash the
// daemon (ScopedWarningHandler pops the wrong entry; see README.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "ckt/transient.h"
#include "cli/cli.h"
#include "core/batch_extractor.h"
#include "core/netlist_builder.h"
#include "geom/builders.h"
#include "numeric/spline.h"
#include "numeric/units.h"
#include "probes.h"
#include "rt/pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "solver/frequency.h"

namespace e2e {

using namespace rlcx;
using units::um;

namespace {

enum Class { kLookup = 0, kScreen = 1, kDelay = 2 };
const char* const kClassName[] = {"lookup", "screen", "delay"};
// Requests per class in one client round: 256 / 48 / 16 of 320 is the
// 80 / 15 / 5 % mix.  Costs within a class vary with geometry, so a
// class's median is only steady across seeds over many geometries.
constexpr int kPerRound[] = {256, 48, 16};
constexpr int kDaemonPoolWidth = 1;

struct Request {
  Class cls;
  int layer = 6;
  double length_um = 0, w1_um = 0, w2_um = 0, spacing_um = 0, ground_um = 0;
  double rs = 0;
  std::vector<std::string> argv;

  /// The block the CLI builds from this request's argv.
  geom::Block block(const geom::Technology& tech) const {
    if (cls != kLookup)
      return geom::coplanar_waveguide(tech, layer, um(length_um), um(w1_um),
                                      um(ground_um), um(spacing_um));
    std::vector<geom::Trace> t{
        {geom::TraceRole::kSignal, um(w1_um), um(0.5 * w1_um), "s0"},
        {geom::TraceRole::kSignal, um(w2_um),
         um(w1_um + spacing_um + 0.5 * w2_um), "s1"}};
    return geom::Block(&tech, layer, um(length_um), std::move(t),
                       geom::PlaneConfig::kNone);
  }
};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

/// n values of [lo, hi], one from each of n equal strata, in seeded
/// order and rounded to what the request text carries.  Every seed thus
/// draws the same spread of sizes, so a round's work hardly depends on
/// the seed; only which geometry meets which does.
std::vector<double> strata(Rng& rng, double lo, double hi, int n) {
  std::vector<double> v;
  for (int k = 0; k < n; ++k)
    v.push_back(std::round(100.0 * (lo + (hi - lo) * (k + rng.uniform(0, 1)) /
                                              n)) /
                100.0);
  std::shuffle(v.begin(), v.end(), rng.engine());
  return v;
}

/// `n` requests of one class, inside the CLI's default 4-point grid
/// (widths 1-20, spacings 0.5-10, lengths 100-6000 um), ground-to-ground
/// spacings too.
std::vector<Request> make_requests(Class cls, int n, Rng& rng) {
  std::vector<Request> out(static_cast<std::size_t>(n));
  if (cls == kLookup) {
    const auto len = strata(rng, 300, 5000, n), w1 = strata(rng, 2, 12, n),
               w2 = strata(rng, 2, 12, n), sp = strata(rng, 1, 8, n);
    for (std::size_t i = 0; i < out.size(); ++i) {
      Request& r = out[i];
      r.cls = cls;
      r.layer = i % 2 == 0 ? 6 : 5;
      r.length_um = len[i];
      r.w1_um = w1[i];
      r.w2_um = w2[i];
      r.spacing_um = sp[i];
      r.argv = {"extract", "--structure", "cpw", "--layer",
                std::to_string(r.layer), "--length-um", fmt(r.length_um),
                "--traces", "s:" + fmt(r.w1_um) + ",s:" + fmt(r.w2_um),
                "--spacings", fmt(r.spacing_um)};
    }
    return out;
  }
  const auto len = strata(rng, 500, 3000, n), ws = strata(rng, 2, 5, n),
             wg = strata(rng, 2, 8, n), sp = strata(rng, 0.8, 1.5, n),
             rs = strata(rng, 15, 35, n);
  for (std::size_t i = 0; i < out.size(); ++i) {
    Request& r = out[i];
    r.cls = cls;
    r.length_um = len[i];
    r.w1_um = ws[i];
    r.ground_um = wg[i];
    r.spacing_um = sp[i];
    r.argv = {cls == kScreen ? "extract" : "delay", "--structure", "cpw",
              "--length-um", fmt(r.length_um), "--signal-um", fmt(r.w1_um),
              "--ground-um", fmt(r.ground_um), "--spacing-um",
              fmt(r.spacing_um)};
    if (cls == kDelay) {
      r.rs = rs[i];
      r.argv.push_back("--rs");
      r.argv.push_back(fmt(r.rs));
    }
  }
  return out;
}

/// One client's round: the class mix in seeded order.
std::vector<Request> make_round(Rng& rng, int scale) {
  std::vector<Request> round;
  for (const Class c : {kLookup, kScreen, kDelay}) {
    const std::vector<Request> rs = make_requests(c, kPerRound[c] / scale, rng);
    round.insert(round.end(), rs.begin(), rs.end());
  }
  std::shuffle(round.begin(), round.end(), rng.engine());
  return round;
}

solver::SolveOptions cli_solve_options() {
  solver::SolveOptions s;
  s.frequency = solver::significant_frequency(200e-12);  // --trise-ps 200
  return s;
}

/// The CLI's --table-cache grid at its default --points 4.
core::TableGrid cli_grid() {
  core::TableGrid g;
  g.widths = geomspace(um(1), um(20), 4);
  g.spacings = geomspace(um(0.5), um(10), 4);
  g.lengths = geomspace(um(100), um(6000), 4);
  return g;
}

std::vector<std::string> priming(int layer) {
  return {"extract", "--structure", "cpw", "--layer", std::to_string(layer),
          "--length-um", "1000", "--traces", "s:4,s:4", "--spacings", "2"};
}

struct Daemon {
  std::ostringstream log;  ///< outlives the server, which writes to it
  std::unique_ptr<serve::Server> server;
  std::thread thread;
  double campaign_s = 0.0;
  double cpu_s = 0.0;

  void stop() {
    if (!thread.joinable()) return;
    try {
      serve::Client c("s.sock");
      c.request({"shutdown"});
    } catch (const std::exception& e) {
      std::cerr << "e2ebench: serve shutdown: " << e.what() << "\n";
      server->shutdown_token().request();
    }
    thread.join();
  }
  ~Daemon() { stop(); }
};

/// Set-up: characterise the two classes into a fresh cache, start the
/// daemon, and prime its warm store with one request per class.  The
/// priming must be a warm miss served from the cache with zero solves.
void start_daemon(const geom::Technology& tech, Daemon& d, Report& report) {
  std::filesystem::remove_all("cache");
  std::filesystem::remove("s.sock");
  rt::Pool::set_global_threads(kPoolWidth);
  {
    core::TableCache cache("cache");
    core::BatchOptions bo;
    bo.cache = &cache;
    std::vector<core::BatchJob> jobs;
    for (const int layer : {6, 5})
      jobs.push_back({layer, geom::PlaneConfig::kNone, cli_grid()});
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    (void)core::characterize_batch(tech, jobs, cli_solve_options(), bo);
    d.campaign_s = seconds_since(t0);
    d.cpu_s = process_cpu_seconds() - cpu0;
  }
  // The daemon runs with a pool of one worker, where every parallel_for
  // runs inline.  At width 2 its many tiny fan-outs hit a use-after-free
  // in rt::TaskGroup (task_done locks the group's mutex after the waiter
  // may have destroyed it), which crashed or hung about one run in ten.
  rt::Pool::set_global_threads(kDaemonPoolWidth);
  serve::ServeConfig cfg;
  cfg.cache_dir = "cache";
  cfg.socket_path = "s.sock";
  cfg.max_active = kClients;
  d.server = std::make_unique<serve::Server>(cfg, d.log);
  d.thread = std::thread([&d] { d.server->run_socket(); });
  for (int i = 0; i < 500 && !std::filesystem::exists("s.sock"); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  serve::Client c("s.sock");
  for (const int layer : {6, 5}) {
    const serve::Response r = c.request(priming(layer));
    report.check(r.status == 0 &&
                     r.out.find("warm miss") != std::string::npos &&
                     r.out.find(", 0 field solves") != std::string::npos,
                 "priming request served from the primed cache");
  }
}

struct ClientLog {
  std::vector<double> ms[3];
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::size_t, serve::Response> kept;  ///< sampled responses
};

/// Closed loop: whole rounds until `seconds` have passed since `start`.
void client_loop(int id, const std::vector<Request>& round,
                 const std::vector<std::size_t>& keep, Clock::time_point start,
                 double seconds, bool one_round, Tracer& tracer,
                 ClientLog& log) {
  serve::Client c("s.sock");
  std::uint64_t seq = 0;
  do {
    for (std::size_t i = 0; i < round.size(); ++i) {
      const Request& rq = round[i];
      ++log.attempted;
      const std::uint64_t request_id =
          (static_cast<std::uint64_t>(id) << 32) | ++seq;
      serve::Response resp;
      const double ms = timed(tracer, kClassName[rq.cls],
                              [&] { resp = c.request(rq.argv); }, request_id);
      if (resp.status != 0) {
        ++log.failed;
        std::cerr << "e2ebench: " << kClassName[rq.cls] << " status "
                  << resp.status << ": " << resp.err;
        continue;
      }
      log.ms[rq.cls].push_back(ms);
      if (seq <= round.size() &&
          std::find(keep.begin(), keep.end(), i) != keep.end())
        log.kept[i] = resp;
    }
  } while (!one_round && seconds_since(start) < seconds);
}

struct Phase {
  std::vector<double> ms[3];
  std::uint64_t attempted = 0, failed = 0;
  double wall_s = 0.0;
  std::vector<ClientLog> logs;
};

Phase run_phase(const std::vector<std::vector<Request>>& rounds,
                const std::vector<std::size_t>& keep, double seconds,
                bool one_round, Tracer& tracer) {
  Phase p;
  p.logs.resize(kClients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      try {
        client_loop(c, rounds[static_cast<std::size_t>(c)], keep, start,
                    seconds, one_round, tracer,
                    p.logs[static_cast<std::size_t>(c)]);
      } catch (const std::exception& e) {
        std::cerr << "e2ebench: client " << c << ": " << e.what() << "\n";
        ++p.logs[static_cast<std::size_t>(c)].failed;
      }
    });
  for (std::thread& t : clients) t.join();
  p.wall_s = seconds_since(start);
  for (const ClientLog& l : p.logs) {
    p.attempted += l.attempted;
    p.failed += l.failed;
    for (int k = 0; k < 3; ++k)
      p.ms[k].insert(p.ms[k].end(), l.ms[k].begin(), l.ms[k].end());
  }
  return p;
}

/// In-process run of the same argv: the warm-equals-cold contract says
/// the daemon's response bytes equal these.
std::pair<int, std::string> in_process(const std::vector<std::string>& argv,
                                       serve::WarmTableStore& store) {
  std::ostringstream out, err;
  const int rc = cli::run(argv, out, err, &store);
  return {rc, out.str()};
}

double parse_after(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  return at == std::string::npos ? 0.0
                                 : std::atof(text.c_str() + at + key.size());
}

/// The delay command's circuit built through the public netlist builder
/// and simulated with ckt::simulate, as `rlcx delay` does.
void probe_delay(const geom::Technology& tech, const Request& rq,
                 const core::InductanceProvider& provider, Tracer& tracer,
                 Report& report) {
  const geom::Block blk = rq.block(tech);
  const core::SegmentRlc seg = core::extract_segment_rlc(blk, provider);
  const double tr = 200e-12, vdd = 1.8;
  ckt::Netlist nl;
  const ckt::NodeId vin = nl.add_node("vin");
  const ckt::NodeId buf = nl.add_node("buf");
  nl.add_vsource(vin, ckt::kGround, ckt::SourceWaveform::ramp(vdd, tr));
  nl.add_resistor(vin, buf, rq.rs);
  core::LadderOptions lopt;
  lopt.sections = 8;
  const auto outs = core::stamp_segment(nl, blk, seg, {buf}, lopt);
  nl.add_capacitor(outs[0], ckt::kGround, 200e-15);
  ckt::TransientOptions topt;
  topt.t_stop = 10.0 * tr + 1e-9;
  topt.dt = tr / 200.0;
  std::optional<ckt::TransientResult> res;
  const double ms = timed(tracer, "ckt.simulate",
                          [&] { res.emplace(ckt::simulate(nl, topt)); });
  report.layer("ckt.transient_ms", ms, "ms");
  report.layer("ckt.steps_per_s",
               static_cast<double>(res->steps()) / (1e-3 * ms),
               "1/s");
  report.layer("ckt.mna_dim",
               static_cast<double>(nl.node_count() - 1 + nl.inductors().size() +
                                   nl.vsources().size()),
               "count");
  report.layer("ckt.measure_ms", timed(tracer, "ckt.measure", [&] {
                 (void)ckt::delay_50(res->waveform(buf), res->waveform(outs[0]),
                                     vdd);
               }),
               "ms");
}

}  // namespace

void run_serve_mix(const Options& opt, Report& report, Tracer& tracer) {
  const geom::Technology tech = geom::Technology::generic_025um();
  const int scale = opt.smoke ? 16 : 1;  // smoke: 1/16 round per client
  Rng rng(opt.seed);
  std::vector<std::vector<Request>> rounds;
  for (int c = 0; c < kClients; ++c) rounds.push_back(make_round(rng, scale));
  // Client 0's responses at these round positions are checked against
  // in-process runs: the first three of each class.
  std::vector<std::size_t> keep;
  for (const Class cls : {kLookup, kScreen, kDelay}) {
    int n = 0;
    for (std::size_t i = 0; i < rounds[0].size() && n < 3; ++i)
      if (rounds[0][i].cls == cls) keep.push_back(i), ++n;
  }

  std::vector<double> setups;
  auto daemon = std::make_unique<Daemon>();
  for (int k = 0; k < 5; ++k) {
    if (k > 0) daemon = std::make_unique<Daemon>();  // stops the previous
    const Clock::time_point t0 = Clock::now();
    start_daemon(tech, *daemon, report);
    setups.push_back(seconds_since(t0));
  }
  report.e2e("setup_s", median(setups), "s");

  // The traced run measures half its time untraced, half traced.
  Tracer off(false);
  const double span = opt.trace ? 0.5 * opt.seconds : opt.seconds;
  const Phase p = run_phase(rounds, keep, span, opt.smoke, off);
  std::optional<Phase> traced;
  if (opt.trace) traced = run_phase(rounds, keep, span, false, tracer);
  report.attempted = p.attempted + (traced ? traced->attempted : 0);
  report.failed = p.failed + (traced ? traced->failed : 0);

  std::string stats;
  {
    serve::Client c("s.sock");
    const serve::Response r = c.request({"stats"});
    report.check(r.status == 0, "stats request answered");
    stats = r.out;
  }
  daemon->stop();

  report.e2e("ops_per_s",
             static_cast<double>(p.attempted - p.failed) / p.wall_s,
             "1/s");
  report.e2e("light_p50_ms", median(p.ms[kLookup]), "ms");
  report.e2e("medium_p50_ms", median(p.ms[kScreen]), "ms");
  report.e2e("heavy_p50_ms", median(p.ms[kDelay]), "ms");
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  for (const Class c : {kLookup, kScreen, kDelay}) {
    const std::string n = kClassName[c];
    report.notes[n + "_samples"] = static_cast<double>(p.ms[c].size());
    report.notes[n + "_p99_ms"] = percentile(p.ms[c], 0.99);
  }

  // Warm equals cold: the sampled responses, byte for byte, against
  // in-process runs through a warm store of the same cache.
  serve::WarmTableStore store("cache", 16);
  for (const int layer : {6, 5}) (void)in_process(priming(layer), store);
  for (const std::size_t i : keep) {
    const auto it = p.logs[0].kept.find(i);
    const Request& rq = rounds[0][i];
    const auto [rc, out] = in_process(rq.argv, store);
    report.check(it != p.logs[0].kept.end() && rc == 0 &&
                     it->second.out == out,
                 std::string(kClassName[rq.cls]) +
                     " response byte-identical to an in-process cli::run");
  }
  if (!opt.trace) return;

  // Per-layer probes.
  std::vector<double> cli_ms[3];
  for (std::size_t i = 0; i < rounds[0].size(); ++i) {
    const Request& rq = rounds[0][i];
    cli_ms[rq.cls].push_back(timed(tracer, "cli.run", [&] {
      (void)in_process(rq.argv, store);
    }));
  }
  report.layer("cli.lookup_ms", median(cli_ms[kLookup]), "ms");
  report.layer("cli.screen_ms", median(cli_ms[kScreen]), "ms");
  report.layer("cli.delay_ms", median(cli_ms[kDelay]), "ms");
  report.layer("serve.overhead_ms",
               median(p.ms[kLookup]) - median(cli_ms[kLookup]), "ms");
  const double hits = parse_after(stats, "warm store: ");
  const double misses = parse_after(stats, " hits, ");
  report.layer("serve.warm_hit_ratio", hits / std::max(1.0, hits + misses),
               "ratio");
  const double untraced_per_op = p.wall_s / static_cast<double>(p.attempted);
  const double traced_per_op =
      traced->wall_s / static_cast<double>(traced->attempted);
  report.layer("trace.overhead_pct",
               100.0 * (traced_per_op / untraced_per_op - 1.0), "%");

  const solver::SolveOptions sopt = cli_solve_options();
  std::vector<SolveProbe> probes;
  const Request* delay_rq = nullptr;
  std::vector<double> seg_ms, load_ms;
  core::TableCache cache("cache");
  std::shared_ptr<TimedProvider> timed6;
  for (const int layer : {6, 5}) {
    std::optional<core::InductanceTables> t;
    load_ms.push_back(timed(tracer, "core.cache_load", [&] {
      t = cache.load(core::TableCache::key_text(
          tech, layer, geom::PlaneConfig::kNone, cli_grid(), sopt));
    }));
    report.check(t.has_value(), "cache entry loads");
    if (t && layer == 6)
      timed6 = std::make_shared<TimedProvider>(
          std::make_shared<core::TableInductanceModel>(*t));
  }
  report.layer("core.cache_load_ms", median(load_ms), "ms");
  for (const Request& rq : rounds[0]) {
    if (rq.cls == kDelay) delay_rq = &rq;
    if (rq.cls == kScreen && probes.size() < 4)
      probes.push_back(probe_solve(rq.block(tech), sopt, true, tracer));
    if (rq.cls == kLookup && rq.layer == 6 && timed6) {
      const geom::Block blk = rq.block(tech);
      seg_ms.push_back(timed(tracer, "core.extract_segment_rlc", [&] {
        (void)core::extract_segment_rlc(blk, *timed6);
      }));
    }
  }
  report_solve_probes(probes, true, report);
  report.layer("core.segment_ms", median(seg_ms), "ms");
  if (timed6) {
    report.layer("core.lookups", static_cast<double>(timed6->lookups()),
                 "count");
    report.layer("core.lookup_ns", timed6->mean_ns(), "ns");
  }
  if (delay_rq != nullptr && timed6)
    probe_delay(tech, *delay_rq, *timed6, tracer, report);
  std::size_t extrap = 0;
  for (const int layer : {6, 5}) {
    cli::ProviderRequest pr;
    pr.tech = &tech;
    pr.layer = layer;
    pr.grid = cli_grid();
    pr.options = sopt;
    std::ostringstream sink;
    const auto prov = store.provider(pr, sink);
    if (const auto* m =
            dynamic_cast<const core::TableInductanceModel*>(prov.get()))
      extrap += extrapolations(m->tables());
  }
  report.layer("core.extrapolations", static_cast<double>(extrap), "count");
  report.layer("core.campaign_s", daemon->campaign_s, "s");
  report.layer("rt.cpu_utilisation",
               daemon->cpu_s / (daemon->campaign_s * kPoolWidth), "ratio");
}

}  // namespace e2e
