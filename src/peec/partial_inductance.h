// Partial self and mutual inductance of rectangular bars.
//
// The exact closed form is Hoer & Love's 1965 triple-bracket formula for
// parallel rectangular conductors — the same kernel FastHenry/Raphael-class
// extractors evaluate.  On top of the raw kernel this header provides:
//   * lengthwise subdivision to keep the kernel numerically healthy for the
//     huge aspect ratios of clock wiring (6000 um long, 1-10 um wide),
//   * an exact thin-filament fast path for well-separated bar pairs,
//   * Ruehli's log approximation as an independent cross-check,
//   * a translation-invariant PairKey so matrix fills evaluate the kernel
//     once per *relative-geometry class* instead of once per pair
//     (paper Foundations 1-2: partial inductance depends only on the bars'
//     own dimensions and their relative offsets),
// and the Bar-level entry points the rest of the library uses.
#pragma once

#include <cstdint>
#include <vector>

#include "peec/bar.h"

namespace rlcx::peec {

struct PartialOptions {
  /// Chunks are cut so length/cross_diag stays below this; keeps the 64-term
  /// Hoer-Love cancellation within double precision.
  double max_aspect = 128.0;
  /// Center distance (in units of mean cross diagonal) beyond which the
  /// exact filament formula replaces the volume kernel (<0.1 % error).
  double far_factor = 12.0;
  /// Memoize kernel evaluations by relative-geometry class during matrix
  /// fills (partial_inductance_matrix).  On a regular mesh this turns the
  /// O(n^2) pair fill into O(unique classes) kernel evaluations.
  bool memo = true;
  /// Relative tolerance of the PairKey quantization, in units of the fill's
  /// largest geometric extent.  1e-12 is ~4 decades above coordinate
  /// round-off (so translated copies of the same pair land in one class)
  /// and far below any intentional mesh perturbation.
  double memo_rel_tol = 1e-12;
};

/// Exact Hoer-Love mutual partial inductance [H] between two parallel
/// rectangular bars in canonical coordinates: bar 1 spans x:[0,a], y:[0,b],
/// z:[0,l1]; bar 2 spans x:[E,E+c], y:[P,P+d], z:[l3,l3+l2]; current along z.
/// Valid for any overlap, including coincident bars (self inductance).
double hoer_love_mutual(double a, double b, double l1, double c, double d,
                        double l2, double E, double P, double l3);

/// Exact mutual partial inductance [H] of two parallel thin filaments of
/// lengths l1 and l2, axial start offset s, radial distance r (r may be 0
/// for collinear non-overlapping filaments).
double filament_mutual(double l1, double l2, double s, double r);

/// Ruehli's approximation for the self partial inductance of a bar,
/// (mu0 l / 2pi) (ln(2l/(w+t)) + 0.5 + 0.2235 (w+t)/l).  Good to ~1 % for
/// l >> w+t; used only as an independent sanity check in tests.
double ruehli_self(double length, double width, double thickness);

/// Self partial inductance [H] of a bar (exact kernel with subdivision).
double self_partial(const Bar& bar, const PartialOptions& opt = {});

/// Mutual partial inductance [H] between two bars.  Returns 0 for
/// orthogonal bars (the paper's layer-N±1 argument).  The sign is geometric
/// (positive for parallel co-directed currents); callers flip it when their
/// branch orientations oppose.
double mutual_partial(const Bar& b1, const Bar& b2,
                      const PartialOptions& opt = {});

// ---------------------------------------------------------------------------
// Hoisted-chunking building blocks.  Matrix fills chunk every bar once and
// evaluate pairs against the precomputed chunk lists; self_partial /
// mutual_partial are thin wrappers, so both paths are bit-identical.

/// Lengthwise subdivision of a bar into chunks of bounded aspect ratio.
std::vector<Bar> chunk_lengthwise(const Bar& b, double max_aspect);

/// self_partial with the chunk list precomputed by chunk_lengthwise.
double self_partial_chunked(const std::vector<Bar>& chunks,
                            const PartialOptions& opt);

/// mutual_partial with both chunk lists precomputed.  b1/b2 are the
/// unchunked bars (needed for the axis and disjointness checks).
double mutual_partial_chunked(const Bar& b1, const Bar& b2,
                              const std::vector<Bar>& c1,
                              const std::vector<Bar>& c2,
                              const PartialOptions& opt);

// ---------------------------------------------------------------------------
// Relative-geometry memoization.
//
// The kernel value for a same-axis bar pair is a function of the two
// cross-sections, the two lengths, and the center-to-center offset vector
// only — never of absolute position (paper Foundations 1-2: translation
// invariance).  It is furthermore unchanged by reflecting any coordinate
// axis (mirror isometry) and by exchanging the bars (reciprocity).
// PairKey canonicalizes under translation only (dimensions and signed
// center offsets quantized to a relative tolerance).  Translation-equal
// pairs on a regular mesh present bit-identical inputs to the kernel, so
// the key preserves the direct fill bit-for-bit; mirror/exchange-equal
// pairs are mathematically equal but sum the bracket's cancelling terms
// in a different order, so they stay separate classes.

struct PairKey {
  // Quantized bar dimensions (bar 1, then bar 2) and center offsets, all
  // in units of the fill-wide quantum.
  std::int64_t w1 = 0, h1 = 0, l1 = 0;
  std::int64_t w2 = 0, h2 = 0, l2 = 0;
  std::int64_t dt = 0, dz = 0, da = 0;
  bool operator==(const PairKey&) const = default;
};

struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const noexcept;
};

/// Canonical key of a same-axis pair; `quantum` is the absolute geometric
/// tolerance (fill scale × PartialOptions::memo_rel_tol).  Any translated
/// copy of the pair maps to the same key.
PairKey make_pair_key(const Bar& b1, const Bar& b2, double quantum);

/// Key of a bar's self class: (w, h, l) quantized, offsets zero.
PairKey make_self_key(const Bar& bar, double quantum);

// ---------------------------------------------------------------------------
// Guards shared between the scalar kernels above and the batch engine
// (kernel_batch.h): both paths must reject the same degenerate geometry
// with the same diagnostics, so the checks live in one place.

namespace detail {

/// Throws diag::GeometryError unless every bar dimension of a Hoer-Love
/// pair is positive (the check hoer_love_mutual performs on entry).
void check_hoer_love_dims(double a, double b, double l1, double c, double d,
                          double l2);

/// Throws diag::GeometryError on non-positive lengths / negative radius,
/// and for r == 0 on axially overlapping collinear filaments (divergent
/// mutual) — the checks filament_mutual performs on entry.
void check_filament_args(double l1, double l2, double s, double r);

/// Throws diag::GeometryError when two distinct bars overlap in volume.
void check_pair_disjoint(const Bar& b1, const Bar& b2);

/// Throws diag::NumericError when a kernel result is not finite.
double check_finite_value(double value, const char* what);

}  // namespace detail

}  // namespace rlcx::peec
