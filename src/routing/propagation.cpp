#include "routing/propagation.hpp"

#include <limits>

namespace coyote::routing {

void accumulateDestinationLoads(const Graph& g, const RoutingConfig& cfg,
                                const tm::TrafficMatrix& d, NodeId t,
                                LinkLoads& loads) {
  require(static_cast<int>(loads.size()) == g.numEdges(), "bad loads size");
  // A destination without positive demand loads nothing: skip the walk
  // (most oblivious-pool matrices have a single active destination).
  if (!d.hasDemandTo(t)) return;
  const Dag& dag = cfg.dags()[t];
  std::vector<double> inflow(g.numNodes(), 0.0);
  for (NodeId s = 0; s < g.numNodes(); ++s) {
    if (s != t) inflow[s] = d.at(s, t);
  }
  for (const NodeId u : dag.topoOrder()) {
    if (u == t || inflow[u] <= 0.0) continue;
    for (const EdgeId e : dag.outEdges(u)) {
      const double flow = inflow[u] * cfg.ratio(t, e);
      if (flow <= 0.0) continue;
      loads[e] += flow;
      inflow[g.edge(e).dst] += flow;
    }
  }
}

LinkLoads computeLoads(const Graph& g, const RoutingConfig& cfg,
                       const tm::TrafficMatrix& d) {
  require(d.numNodes() == g.numNodes(), "matrix/graph size mismatch");
  LinkLoads loads(g.numEdges(), 0.0);
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    accumulateDestinationLoads(g, cfg, d, t, loads);
  }
  return loads;
}

double maxLinkUtilization(const Graph& g, const LinkLoads& loads) {
  require(static_cast<int>(loads.size()) == g.numEdges(), "bad loads size");
  double mx = 0.0;
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const double cap = g.edge(e).capacity;
    if (cap <= 0.0) {
      // Failed link (src/failure/): idle is fine, any load is a routing
      // that forwards into a dead link -- infinite utilization, not 0/0.
      if (loads[e] > 0.0) return std::numeric_limits<double>::infinity();
      continue;
    }
    mx = std::max(mx, loads[e] / cap);
  }
  return mx;
}

double maxLinkUtilization(const Graph& g, const RoutingConfig& cfg,
                          const tm::TrafficMatrix& d) {
  return maxLinkUtilization(g, computeLoads(g, cfg, d));
}

std::vector<double> sourceFractions(const Graph& g, const RoutingConfig& cfg,
                                    NodeId s, NodeId t) {
  require(s >= 0 && s < g.numNodes() && t >= 0 && t < g.numNodes(),
          "node out of range");
  const Dag& dag = cfg.dags()[t];
  std::vector<double> f(g.numNodes(), 0.0);
  if (s == t) return f;
  f[s] = 1.0;
  for (const NodeId u : dag.topoOrder()) {
    if (u == t || f[u] <= 0.0) continue;
    for (const EdgeId e : dag.outEdges(u)) {
      f[g.edge(e).dst] += f[u] * cfg.ratio(t, e);
    }
  }
  return f;
}

double expectedHopCount(const Graph& g, const RoutingConfig& cfg, NodeId s,
                        NodeId t) {
  if (s == t) return 0.0;
  const Dag& dag = cfg.dags()[t];
  const std::vector<double> f = sourceFractions(g, cfg, s, t);
  double hops = 0.0;
  for (const EdgeId e : dag.edges()) {
    hops += f[g.edge(e).src] * cfg.ratio(t, e);
  }
  return hops;
}

}  // namespace coyote::routing
