#include "routing/propagation.hpp"

#include <algorithm>
#include <limits>

namespace coyote::routing {
namespace {

/// max_e load(e)/cap(e) over edges in id order; a failed link (capacity 0,
/// src/failure/) may stay idle, but any load on it is a routing that
/// forwards into a dead link -- infinite utilization, not 0/0.
template <class Capacity>
double maxUtilization(const double* loads, int m, const Capacity& cap) {
  double mx = 0.0;
  for (EdgeId e = 0; e < m; ++e) {
    const double c = cap(e);
    if (c <= 0.0) {
      if (loads[e] > 0.0) return std::numeric_limits<double>::infinity();
      continue;
    }
    mx = std::max(mx, loads[e] / c);
  }
  return mx;
}

}  // namespace

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
  return maxUtilization(loads.data(), g.numEdges(),
                        [&](EdgeId e) { return g.edge(e).capacity; });
}

double maxLinkUtilization(const Graph& g, const RoutingConfig& cfg,
                          const tm::TrafficMatrix& d) {
  return maxLinkUtilization(g, computeLoads(g, cfg, d));
}

namespace {

/// By node: whether some matrix of the pool sends to it.
std::vector<char> destinationsOf(const Graph& g, const RoutingConfig& cfg,
                                 const std::vector<tm::TrafficMatrix>& pool) {
  require(cfg.numNodes() == g.numNodes() && cfg.numEdges() == g.numEdges(),
          "config/graph size mismatch");
  std::vector<char> dests(static_cast<std::size_t>(g.numNodes()), 0);
  for (const tm::TrafficMatrix& d : pool) {
    require(d.numNodes() == g.numNodes(), "matrix/graph size mismatch");
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      if (!dests[t] && d.hasDemandTo(t)) dests[t] = 1;
    }
  }
  return dests;
}

}  // namespace

CompiledRouting::CompiledRouting(const Graph& g, const RoutingConfig& cfg,
                                 const std::vector<tm::TrafficMatrix>& pool)
    : dests_(destinationsOf(g, cfg, pool)), dags_(g, cfg.dags(), dests_) {
  ratio_.reserve(dags_.arc.size());
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    for (std::size_t v = dags_.node_off[t]; v < dags_.node_off[t + 1]; ++v) {
      for (std::size_t j = dags_.arc_off[v]; j < dags_.arc_off[v + 1]; ++j) {
        ratio_.push_back(cfg.ratio(t, dags_.arc[j].e));
      }
    }
  }
  cap_.reserve(g.numEdges());
  for (EdgeId e = 0; e < g.numEdges(); ++e) cap_.push_back(g.edge(e).capacity);
}

double CompiledRouting::maxLinkUtilization(const tm::TrafficMatrix& d,
                                           std::vector<double>& scratch) const {
  const int n = static_cast<int>(dests_.size());
  const int m = static_cast<int>(cap_.size());
  require(d.numNodes() == n, "matrix/graph size mismatch");
  // Loads, then one inflow block reused by every destination.
  scratch.assign(static_cast<std::size_t>(m) + n, 0.0);
  double* loads = scratch.data();
  double* inflow = loads + m;
  for (NodeId t = 0; t < n; ++t) {
    if (!d.hasDemandTo(t)) continue;
    require(dests_[t], "CompiledRouting: destination outside the pool");
    const double* col = d.column(t);  // col[t] == 0
    std::copy(col, col + n, inflow);
    dags_.propagate(t, [this](std::size_t j) { return ratio_[j]; }, inflow,
                    loads);
  }
  return maxUtilization(loads, m, [this](EdgeId e) { return cap_[e]; });
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
