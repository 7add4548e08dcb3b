// Options controlling the field-solver substitute.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>

#include "peec/mesh.h"
#include "peec/partial_inductance.h"

namespace rlcx::solver {

/// How a local ground plane (layer N±2) is discretised.  FastHenry models
/// planes as arrays of parallel strips; the return current distributes
/// across them in the impedance solve.
struct PlaneOptions {
  int strips = 15;           ///< strips across the plane extent
  double margin_factor = 8.0;///< lateral margin beyond the block, in units
                             ///< of the dielectric height to the plane
  double min_margin = 10e-6; ///< [m] floor on the margin
};

struct SolveOptions {
  double frequency = 1e9;  ///< [Hz] evaluate at the significant frequency

  /// When true the cross-section mesh is chosen from the skin depth at
  /// `frequency`; otherwise `mesh` is used as given.
  bool auto_mesh = true;
  int max_filaments_per_dim = 4;
  peec::MeshOptions mesh{};

  peec::PartialOptions partial{};
  PlaneOptions plane{};
};

/// Canonical ASCII description of every option that can change a solve
/// result (frequency, meshing, kernel and plane parameters), doubles with
/// 17 significant digits.  Two SolveOptions with equal fingerprints produce
/// identical tables; feeds the table-cache key (docs/table-format.md).
inline std::string fingerprint(const SolveOptions& o) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "opt frequency %.17g auto_mesh %d max_filaments_per_dim %d\n",
                o.frequency, o.auto_mesh ? 1 : 0, o.max_filaments_per_dim);
  out += buf;
  std::snprintf(buf, sizeof buf, "mesh nw %d nt %d grading %.17g\n",
                o.mesh.nw, o.mesh.nt, o.mesh.grading);
  out += buf;
  std::snprintf(buf, sizeof buf, "partial max_aspect %.17g far_factor %.17g\n",
                o.partial.max_aspect, o.partial.far_factor);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "plane strips %d margin_factor %.17g min_margin %.17g\n",
                o.plane.strips, o.plane.margin_factor, o.plane.min_margin);
  out += buf;
  // Frozen hmat-solver defaults: existing cache entries must stay addressable.
  out += "solver kind auto leaf 32 eta 2 aca_tol 9.9999999999999994e-12 "
         "max_rank 128 pc_block 32 gmres_tol 1.0000000000000001e-09 "
         "restart 60 maxit 400 crossover 16384\n";
  return out;
}

}  // namespace rlcx::solver
