// Shared pieces of the end-to-end benchmark: options, the report every
// workload fills, the seeded generator, timing helpers and the in-memory
// span recorder behind the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) {
  return 1e3 * seconds_since(t0);
}

/// The rt pool width and client count the benchmark fixes (nproc = 4 on
/// the reference box; two workers leave room for the two clients).
inline constexpr int kPoolWidth = 2;
inline constexpr int kClients = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< per-layer run: spans + layer probes
  bool smoke = false;  ///< tiny sizes, one round, every check
  std::string trace_path;  ///< Chrome trace-event JSON (traced run)
};

/// Seeded input generator: the only source of variation between runs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }
  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run found: operation counts, correctness and the metrics.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Reference figures that are no bounded metric (tails, sample counts).
  std::map<std::string, double> notes;

  /// Records a correctness check; a failed one is printed to stderr.
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = {value, unit};
  }
};

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);

/// Process CPU time (user + system) and peak RSS.
double process_cpu_seconds();
double peak_rss_mib();

/// In-memory span recorder.  Spans are kept until exit and written as
/// Chrome trace-event JSON (Perfetto opens it offline).  Disabled tracers
/// record nothing; Scope still measures its own duration.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    long parent = -1;  ///< index of the enclosing span on the same thread
    std::uint64_t request = 0;
    int tid = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Milliseconds since the scope opened.
    double elapsed_ms() const { return ms_since(t0_); }

   private:
    Tracer& tracer_;
    Clock::time_point t0_;
    long index_ = -1;
    long saved_parent_ = -1;
  };

  std::size_t size() const;
  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool write(const std::string& path) const;

 private:
  long open(std::string name, std::uint64_t request, long parent);
  void close(long index);

  bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex m_;
  std::vector<Span> spans_;  // guarded by m_
};

/// Runs `fn` under a Tracer scope named `name` and returns its wall time
/// in milliseconds.
template <class Fn>
double timed(Tracer& tracer, const char* name, Fn&& fn,
             std::uint64_t request = 0) {
  Tracer::Scope s(tracer, name, request);
  fn();
  return s.elapsed_ms();
}

// Workloads.  Each fills `report`; `tracer` is enabled in the traced run.
void run_characterize(const Options& opt, Report& report, Tracer& tracer);
void run_tree_skew(const Options& opt, Report& report, Tracer& tracer);
void run_serve_mix(const Options& opt, Report& report, Tracer& tracer);

}  // namespace e2e
