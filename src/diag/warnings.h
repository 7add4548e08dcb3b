// Warnings channel: non-fatal diagnostics that must reach the user.
//
// Deep numerical stages (the SOR field solver, spline table lookups, cache
// recovery) detect conditions that degrade accuracy without invalidating
// the run — a non-converged solve accepted at reduced accuracy, a lookup
// extrapolating beyond the characterised grid, a corrupt cache entry that
// was quarantined and rebuilt.  They report through this channel instead of
// printing or silently proceeding; the front end decides what a warning
// means (the CLI prints them on stderr, and escalates them to errors under
// --strict).
//
// Handlers are process-global and stack-scoped: installing a
// ScopedWarningHandler routes every warning emitted anywhere (including
// worker threads of a parallel table build) to that handler until it is
// destroyed.  With no handler installed, warnings go to stderr.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "diag/error.h"

namespace rlcx::diag {

struct Warning {
  Category category = Category::kNumeric;
  std::string stage;    ///< component that detected it ("fd2d", "table", ...)
  std::string message;  ///< human-readable detail with the offending values
};

/// "warning: [numeric] fd2d: ..." — the canonical display form.
std::string format_warning(const Warning& w);

/// Reports a warning to the innermost installed handler (stderr when none).
void emit_warning(Category category, std::string stage, std::string message);

using WarningHandler = std::function<void(const Warning&)>;

/// RAII: routes warnings to `handler` for this object's lifetime.  Nesting
/// is allowed; the most recently installed live handler wins.  Destruction
/// removes exactly this handler, whichever thread installed the others and
/// in whatever order they go.  Handlers may be invoked from any thread
/// (emission is serialised).
class ScopedWarningHandler {
 public:
  explicit ScopedWarningHandler(WarningHandler handler);
  ~ScopedWarningHandler();

  ScopedWarningHandler(const ScopedWarningHandler&) = delete;
  ScopedWarningHandler& operator=(const ScopedWarningHandler&) = delete;

 private:
  std::uint64_t token_ = 0;
};

/// RAII: while alive, warnings that render to identical text are delivered
/// once and then suppressed (the duplicate count is queryable).  rt's
/// parallel regions install one around every fan-out, so N workers hitting
/// the same degradation (a non-converged SOR drive solved per grid point,
/// an extrapolating lookup) produce one report instead of a thread-count-
/// dependent flood.  Scopes nest; the *outermost* scope owns the dedup set,
/// so a warning is emitted once per outermost region, from any thread.
class ScopedWarningDedup {
 public:
  ScopedWarningDedup();
  ~ScopedWarningDedup();

  ScopedWarningDedup(const ScopedWarningDedup&) = delete;
  ScopedWarningDedup& operator=(const ScopedWarningDedup&) = delete;

  /// Warnings suppressed as duplicates since the outermost scope opened.
  static std::size_t suppressed_count() noexcept;
};

}  // namespace rlcx::diag
