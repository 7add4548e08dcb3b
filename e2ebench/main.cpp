// e2ebench: the end-to-end, layer-decomposed benchmark of rlcx.
//
//   e2ebench --workload characterize|tree_skew|serve_mix --seed N
//            --seconds S --trace 0|1 [--trace-out FILE] [--commit ID]
//   e2ebench --smoke
//
// Untraced runs print every end-to-end metric; traced runs (--trace 1)
// print every per-layer metric and write the spans as Chrome trace-event
// JSON.  The last line of stdout is the result object; the line before it
// records the environment and the work counts.  Run it through run.py,
// which builds this binary first.
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "diag/warnings.h"
#include "peec/kernel_batch.h"
#include "res/budget.h"
#include "rt/pool.h"

namespace {

using namespace e2e;

/// Every per-layer metric a traced run prints.  A workload that does not
/// reach a layer reports 0 for it (0 ms spent, 0 calls made).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"peec.fill_ms", "ms"},          {"peec.kernel_evals", "count"},
    {"peec.memo_hit_ratio", "ratio"}, {"numeric.lu_ms", "ms"},
    {"numeric.lu_dim", "count"},     {"solver.extract_ms", "ms"},
    {"core.campaign_s", "s"},        {"core.cache_load_ms", "ms"},
    {"core.lookup_ns", "ns"},        {"core.lookups", "count"},
    {"core.segment_ms", "ms"},       {"core.extrapolations", "count"},
    {"rt.cpu_utilisation", "ratio"}, {"res.peak_mib", "MiB"},
    {"ckt.transient_ms", "ms"},      {"ckt.steps_per_s", "1/s"},
    {"ckt.mna_dim", "count"},        {"ckt.measure_ms", "ms"},
    {"ckt.transient_ms.sinks4", "ms"}, {"ckt.transient_ms.sinks8", "ms"},
    {"ckt.transient_ms.sinks16", "ms"}, {"clocktree.segments_ms", "ms"},
    {"clocktree.netlist_ms", "ms"},  {"cli.lookup_ms", "ms"},
    {"cli.screen_ms", "ms"},         {"cli.delay_ms", "ms"},
    {"serve.overhead_ms", "ms"},     {"serve.warm_hit_ratio", "ratio"},
    {"diag.warnings", "count"},      {"trace.overhead_pct", "%"},
};

const std::pair<const char*, void (*)(const Options&, Report&, Tracer&)>
    kWorkloads[] = {{"characterize", run_characterize},
                    {"tree_skew", run_tree_skew},
                    {"serve_mix", run_serve_mix}};

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  utsname u{};
  return uname(&u) == 0 ? u.machine : "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (auto it = m.begin(); it != m.end(); ++it) {
    if (it != m.begin()) out += ", ";
    out += "\"" + it->first + "\": {\"value\": " + num(it->second.value) +
           ", \"unit\": \"" + it->second.unit + "\"}";
  }
  return out + "}";
}

void print_env(const std::string& workload, const std::string& commit,
               const Report& r) {
  std::string notes;
  for (const auto& [k, v] : r.notes)
    notes += (notes.empty() ? "" : ", ") + ("\"" + k + "\": " + num(v));
  std::cout << "{\"env\": {\"cpu\": \"" << json_escape(cpu_model())
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"pool_width\": " << rlcx::rt::Pool::global().size()
            << ", \"clients\": " << kClients << ", \"simd\": \""
            << rlcx::peec::batch_simd_name() << "\", \"compiler\": \""
            << json_escape(__VERSION__) << "\", \"build_type\": \""
            << E2EBENCH_BUILD_TYPE << "\", \"commit\": \""
            << json_escape(commit) << "\"}, \"work\": {\"workload\": \""
            << workload << "\", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << "}, \"notes\": {" << notes
            << "}}\n";
}

/// Runs one workload inside its own scratch directory.
bool run_one(const std::string& name,
             void (*fn)(const Options&, Report&, Tracer&), Options opt,
             const std::string& workdir, Report& report) {
  namespace fs = std::filesystem;
  const fs::path home = fs::current_path();
  const fs::path dir =
      fs::path(workdir) / (name + "-" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::current_path(dir);
  opt.workload = name;
  rlcx::rt::Pool::set_global_threads(kPoolWidth);
  Tracer tracer(opt.trace);
  std::atomic<std::size_t> warnings{0};
  bool ok = true;
  {
    // Counts warnings instead of printing them; a request's own handler
    // (the serve daemon installs one per request) takes precedence.
    const rlcx::diag::ScopedWarningHandler counter(
        [&](const rlcx::diag::Warning&) { ++warnings; });
    rlcx::res::Budget::global().reset_peak();
    try {
      fn(opt, report, tracer);
    } catch (const std::exception& e) {
      std::cerr << "e2ebench: " << name << " aborted: " << e.what() << "\n";
      ok = false;
    }
  }
  fs::current_path(home);
  fs::remove_all(dir);
  if (opt.trace) {
    report.layer("diag.warnings", static_cast<double>(warnings.load()),
                 "count");
    report.layer("res.peak_mib",
                 static_cast<double>(rlcx::res::Budget::global().peak()) /
                     (1024.0 * 1024.0),
                 "MiB");
    report.notes["trace_spans"] = static_cast<double>(tracer.size());
    for (const auto& [m, unit] : kLayerMetrics)
      if (report.per_layer.count(m) == 0) report.layer(m, 0.0, unit);
    if (!opt.trace_path.empty() && !tracer.write(opt.trace_path)) {
      std::cerr << "e2ebench: cannot write " << opt.trace_path << "\n";
      ok = false;
    }
  }
  return ok;
}

int usage() {
  std::cerr << "usage: e2ebench --workload characterize|tree_skew|serve_mix "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--commit ID] [--workdir DIR]\n"
               "       e2ebench --smoke [--workdir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown", workdir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--trace-out")
        opt.trace_path = std::filesystem::absolute(v).string();
      else if (a == "--commit") commit = v;
      else if (a == "--workdir")
        workdir = std::filesystem::absolute(v).string();
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (opt.smoke) {
    // Every workload at a tiny size, one round, every check.
    bool all_ok = true;
    Report total;
    for (const auto& [name, fn] : kWorkloads) {
      Report r;
      const Clock::time_point t0 = Clock::now();
      const bool ok = run_one(name, fn, opt, workdir, r) && r.correct &&
                      r.failed == 0;
      std::cout << "smoke " << name << ": " << (ok ? "ok" : "FAILED") << ", "
                << r.attempted << " operations, " << num(seconds_since(t0))
                << " s\n";
      all_ok = all_ok && ok;
      total.attempted += r.attempted;
      total.failed += r.failed;
    }
    std::cout << "{\"correct\": " << (all_ok ? "true" : "false")
              << ", \"attempted\": " << total.attempted
              << ", \"failed\": " << total.failed << ", \"metrics\": {}}\n";
    return all_ok ? 0 : 1;
  }

  for (const auto& [name, fn] : kWorkloads) {
    if (opt.workload != name) continue;
    Report r;
    if (!run_one(name, fn, opt, workdir, r)) return 1;
    print_env(name, commit, r);
    std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": "
              << metrics_json(opt.trace ? r.per_layer : r.end_to_end)
              << "}\n";
    return r.correct ? 0 : 1;
  }
  return usage();
}
