#include "routing/dual_certificate.hpp"

#include <algorithm>
#include <limits>

#include "routing/propagation.hpp"

namespace coyote::routing {
namespace {

/// l_st(e) = f_st(u) * phi_t(e) for a fixed target edge, all (s,t).
/// coeff[t][s] is the load fraction the (s,t) demand places on `edge`.
std::vector<std::vector<double>> loadCoefficientsFor(const Graph& g,
                                                     const RoutingConfig& cfg,
                                                     EdgeId edge) {
  const int n = g.numNodes();
  const NodeId u = g.edge(edge).src;
  std::vector<std::vector<double>> coeff(n);
  for (NodeId t = 0; t < n; ++t) {
    if (!cfg.dags()[t].contains(edge)) continue;
    const double phi = cfg.ratio(t, edge);
    if (phi <= 0.0) continue;
    coeff[t].assign(n, 0.0);
    for (NodeId s = 0; s < n; ++s) {
      if (s == t) continue;
      const std::vector<double> f = sourceFractions(g, cfg, s, t);
      coeff[t][s] = f[u] * phi;
    }
  }
  return coeff;
}

/// Shortest v->t distance inside DAG_t under weights pi (exact, via one
/// sweep in reverse topological order).
std::vector<double> dagDistances(const Graph& g, const Dag& dag,
                                 const std::vector<double>& pi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.numNodes(), kInf);
  dist[dag.dest()] = 0.0;
  const auto& topo = dag.topoOrder();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    if (v == dag.dest()) continue;
    for (const EdgeId a : dag.outEdges(v)) {
      dist[v] = std::min(dist[v], pi[a] + dist[g.edge(a).dst]);
    }
  }
  return dist;
}

/// True if a pair the DAGs route (and, with a box, lets send) places load
/// on the edge `coeff` describes: only then can its utilization be
/// positive, so only then may its certificate be empty.
bool loaded(const RoutingConfig& cfg,
            const std::vector<std::vector<double>>& coeff,
            const tm::DemandBounds* box) {
  for (NodeId t = 0; t < static_cast<NodeId>(coeff.size()); ++t) {
    for (NodeId s = 0; s < static_cast<NodeId>(coeff[t].size()); ++s) {
      if (s != t && coeff[t][s] > 0.0 && cfg.dags()[t].reachesDest(s) &&
          (box == nullptr || box->hi.at(s, t) > 0.0)) {
        return true;
      }
    }
  }
  return false;
}

/// R1's left side sum_h pi(h) c(h), or NaN unless `pi` holds one weight
/// >= -tol per edge. Every test below is written to fail on NaN, so a NaN
/// anywhere in a certificate rejects it.
double weightedCapacity(const Graph& g, const std::vector<double>& pi,
                        double tol) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  if (static_cast<int>(pi.size()) != g.numEdges()) return kNaN;
  double weighted = 0.0;
  for (EdgeId h = 0; h < g.numEdges(); ++h) {
    if (!(pi[h] >= -tol)) return kNaN;
    weighted += pi[h] * g.edge(h).capacity;
  }
  return weighted;
}

}  // namespace

bool checkBoxCertificate(const Graph& g, const RoutingConfig& cfg,
                         const tm::DemandBounds& box,
                         const BoxCertificate& cert, double tol) {
  const int n = g.numNodes();
  const std::size_t pairs = static_cast<std::size_t>(n) * n;
  if (static_cast<int>(cert.edges.size()) != g.numEdges()) return false;
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const BoxEdgeCertificate& ec = cert.edges[e];
    if (ec.edge != e) return false;
    const auto coeff = loadCoefficientsFor(g, cfg, e);
    if (ec.pi.empty()) {  // trivial bound 0
      if (loaded(cfg, coeff, &box)) return false;
      continue;
    }
    // Dual objective bounds the primal worst case (weak duality).
    const double weighted = weightedCapacity(g, ec.pi, tol);
    if (!(weighted <= cert.ratio + tol && weighted <= ec.ratio + tol)) {
      return false;
    }
    if (static_cast<int>(ec.p.size()) != n || ec.s_plus.size() != pairs ||
        ec.s_minus.size() != pairs) {
      return false;
    }
    // Lambda column.
    double lambda_col = 0.0;
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        const std::size_t k = static_cast<std::size_t>(s) * n + t;
        if (!(ec.s_plus[k] >= -tol && ec.s_minus[k] >= -tol)) return false;
        lambda_col +=
            box.hi.at(s, t) * ec.s_plus[k] - box.lo.at(s, t) * ec.s_minus[k];
      }
    }
    if (!(lambda_col <= tol)) return false;
    // Demand and flow columns.
    const double cap = g.edge(e).capacity;
    for (NodeId t = 0; t < n; ++t) {
      const std::vector<double>& p = ec.p[t];
      if (!p.empty() && static_cast<int>(p.size()) != n) return false;
      for (NodeId s = 0; s < n; ++s) {
        if (s == t) continue;
        const double l = coeff[t].empty() ? 0.0 : coeff[t][s];
        if (l <= 0.0 && box.hi.at(s, t) <= 0.0) continue;
        if (p.empty()) return false;  // active pair without potentials
        const std::size_t k = static_cast<std::size_t>(s) * n + t;
        if (!(ec.s_plus[k] - ec.s_minus[k] - p[s] >= l / cap - tol)) {
          return false;
        }
      }
      if (p.empty()) continue;
      for (const EdgeId a : cfg.dags()[t].edges()) {
        const NodeId j = g.edge(a).src;
        const NodeId kk = g.edge(a).dst;
        const double pk = (kk == t) ? 0.0 : p[kk];
        if (!(p[j] - pk + ec.pi[a] >= -tol)) return false;
      }
    }
  }
  return true;
}

bool checkCertificate(const Graph& g, const RoutingConfig& cfg,
                      const ObliviousCertificate& cert, double tol) {
  if (static_cast<int>(cert.edges.size()) != g.numEdges()) return false;
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const EdgeCertificate& ec = cert.edges[e];
    if (ec.edge != e) return false;
    const auto coeff = loadCoefficientsFor(g, cfg, e);
    if (ec.pi.empty()) {  // edge certified trivially (carries no load)
      if (loaded(cfg, coeff, nullptr)) return false;
      continue;
    }
    // R1: sum_h pi(h) c(h) <= claimed ratio (and the global max).
    const double weighted = weightedCapacity(g, ec.pi, tol);
    if (!(weighted <= cert.ratio + tol && weighted <= ec.ratio + tol)) {
      return false;
    }
    // R2 via exact DAG distances under pi.
    const double cap = g.edge(e).capacity;
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      if (coeff[t].empty()) continue;
      const std::vector<double> dist =
          dagDistances(g, cfg.dags()[t], ec.pi);
      for (NodeId s = 0; s < g.numNodes(); ++s) {
        if (s == t || coeff[t][s] <= 0.0) continue;
        if (!(coeff[t][s] / cap <= dist[s] + tol)) return false;
      }
    }
  }
  return true;
}

}  // namespace coyote::routing
