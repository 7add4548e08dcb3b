// Closed-form references the benchmark computes itself, apart from the
// program: Grover's self inductance of a rectangular bar, the Neumann
// mutual inductance of two parallel filaments, and the Elmore delay of an
// RC tree.
#pragma once

#include <vector>

#include "ckt/netlist.h"

namespace e2e {

/// Grover's partial self inductance of a straight bar of length l and
/// cross-section w x t (all in m), accurate to well under 1 % once
/// l >> w + t:  (mu0 l / 2 pi) [ln(2l/(w+t)) + 1/2 + 0.2235 (w+t)/l].
double grover_bar_self(double l, double w, double t);

/// Neumann integral for two parallel filaments of equal length l at
/// centre distance d:
///   (mu0 l / 2 pi) [asinh(l/d) - sqrt(1 + (d/l)^2) + d/l].
double neumann_filament_mutual(double l, double d);

/// Elmore delay from the source node of `netlist` (the positive terminal
/// of its single voltage source) to every node, over the resistor tree:
/// for each node, the sum over resistors on its source path of R times
/// the grounded capacitance downstream of that resistor.  Returns an
/// empty vector when the resistors do not form a tree rooted at the
/// source or a capacitor joins two non-ground nodes.
std::vector<double> elmore_delays(const rlcx::ckt::Netlist& netlist);

}  // namespace e2e
