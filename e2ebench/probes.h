// Layer probes of the traced run: the field solve of one block taken
// apart through the layers' public functions (peec mesh + fill, numeric
// LU, solver extraction), and a timing wrapper around an inductance
// provider.  Neither touches the program; both call what it exports.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/inductance_model.h"
#include "geom/block.h"
#include "peec/assembly.h"
#include "solver/options.h"

namespace e2e {

struct SolveProbe {
  double fill_ms = 0.0;     ///< peec mesh + partial_inductance_matrix
  double lu_ms = 0.0;       ///< numeric LU of the complex impedance system
  double extract_ms = 0.0;  ///< solver::extract_partial / extract_loop
  std::size_t lu_dim = 0;   ///< filaments, the LU dimension
  std::size_t kernel_evals = 0;
  std::size_t pair_lookups = 0;
  std::size_t memo_hits = 0;
};

/// The 2-trace block one characterisation grid point solves: two signal
/// traces of width w at edge spacing s, length l.
rlcx::geom::Block pair_block(const rlcx::geom::Technology& tech, int layer,
                             double w, double s, double l,
                             rlcx::geom::PlaneConfig planes);

/// Times the layers of one block's solve.  `loop` selects extract_loop
/// (planes and ground traces join the system) over extract_partial.
SolveProbe probe_solve(const rlcx::geom::Block& block,
                       const rlcx::solver::SolveOptions& opt, bool loop,
                       Tracer& tracer);

/// Means over several probed blocks, written as the per-layer peec /
/// numeric / solver metrics.  `with_fill_counters` adds peec.kernel_evals
/// and peec.memo_hit_ratio from the probes' own fill counters (workloads
/// with a characterisation report its campaign's counters instead).
void report_solve_probes(const std::vector<SolveProbe>& probes,
                         bool with_fill_counters, Report& report);

/// InductanceProvider that forwards to another and times every call.
class TimedProvider final : public rlcx::core::InductanceProvider {
 public:
  explicit TimedProvider(
      std::shared_ptr<const rlcx::core::InductanceProvider> inner)
      : inner_(std::move(inner)) {}
  double self(double w, double l) const override;
  double mutual(double w1, double w2, double s, double l) const override;
  double series_resistance(double w, double l) const override;

  std::size_t lookups() const { return lookups_.load(); }
  double mean_ns() const {
    const std::size_t n = lookups_.load();
    return n == 0 ? 0.0 : static_cast<double>(nanos_.load()) /
                              static_cast<double>(n);
  }

 private:
  template <class Fn>
  double time(Fn&& fn) const;

  std::shared_ptr<const rlcx::core::InductanceProvider> inner_;
  mutable std::atomic<std::size_t> lookups_{0};
  mutable std::atomic<std::uint64_t> nanos_{0};
};

/// Kernel-memo counters of the fills run during `fn`.  characterize_batch
/// leaves these BuildStats fields at zero, so they are taken as deltas of
/// the process-wide peec::fill_stats_total(), as build_tables() does.
template <class Fn>
rlcx::peec::FillStats fill_delta(Fn&& fn) {
  const rlcx::peec::FillStats f0 = rlcx::peec::fill_stats_total();
  fn();
  rlcx::peec::FillStats f1 = rlcx::peec::fill_stats_total();
  f1.pair_lookups -= f0.pair_lookups;
  f1.kernel_evals -= f0.kernel_evals;
  f1.memo_hits -= f0.memo_hits;
  return f1;
}

/// Writes peec.kernel_evals and peec.memo_hit_ratio.
void report_fill_counters(const rlcx::peec::FillStats& f, Report& report);

/// Sum of NdTable::extrapolation_count over a bundle's three tables.
std::size_t extrapolations(const rlcx::core::InductanceTables& t);

}  // namespace e2e
