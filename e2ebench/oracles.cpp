#include "oracles.h"

#include <cmath>
#include <numbers>

namespace e2e {

namespace {
constexpr double kMu0 = 4e-7 * std::numbers::pi;
}

double grover_bar_self(double l, double w, double t) {
  const double p = w + t;
  return kMu0 * l / (2.0 * std::numbers::pi) *
         (std::log(2.0 * l / p) + 0.5 + 0.2235 * p / l);
}

double neumann_filament_mutual(double l, double d) {
  return kMu0 * l / (2.0 * std::numbers::pi) *
         (std::asinh(l / d) - std::sqrt(1.0 + (d / l) * (d / l)) + d / l);
}

std::vector<double> elmore_delays(const rlcx::ckt::Netlist& nl) {
  using rlcx::ckt::kGround;
  if (nl.vsources().size() != 1 || nl.vsources()[0].b != kGround) return {};
  const auto n = static_cast<std::size_t>(nl.node_count());
  std::vector<double> cap(n, 0.0);
  for (const auto& c : nl.capacitors()) {
    if (c.a != kGround && c.b != kGround) return {};
    cap[static_cast<std::size_t>(c.a == kGround ? c.b : c.a)] += c.farads;
  }
  // Resistor adjacency; ground resistors would make it no tree.
  std::vector<std::vector<std::pair<std::size_t, double>>> adj(n);
  for (const auto& r : nl.resistors()) {
    if (r.a == kGround || r.b == kGround) return {};
    adj[static_cast<std::size_t>(r.a)].push_back(
        {static_cast<std::size_t>(r.b), r.ohms});
    adj[static_cast<std::size_t>(r.b)].push_back(
        {static_cast<std::size_t>(r.a), r.ohms});
  }
  // Depth-first order from the source; a revisit means a loop.
  const auto root = static_cast<std::size_t>(nl.vsources()[0].a);
  std::vector<long> parent(n, -2);
  std::vector<double> r_up(n, 0.0);
  std::vector<std::size_t> order{root};
  parent[root] = -1;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t u = order[k];
    for (const auto& [v, ohms] : adj[u]) {
      if (static_cast<long>(v) == parent[u]) continue;
      if (parent[v] != -2) return {};
      parent[v] = static_cast<long>(u);
      r_up[v] = ohms;
      order.push_back(v);
    }
  }
  // Downstream capacitance, leaves first; then delays, root first.
  std::vector<double> down = cap;
  for (std::size_t k = order.size(); k-- > 1;)
    down[static_cast<std::size_t>(parent[order[k]])] += down[order[k]];
  std::vector<double> delay(n, 0.0);
  for (std::size_t k = 1; k < order.size(); ++k) {
    const std::size_t v = order[k];
    delay[v] = delay[static_cast<std::size_t>(parent[v])] + r_up[v] * down[v];
  }
  return delay;
}

}  // namespace e2e
