#include "failure/degrade.hpp"

#include <algorithm>
#include <limits>

#include "graph/dijkstra.hpp"

namespace coyote::failure {

Graph degradedGraph(const Graph& g, const FailureScenario& f) {
  Graph out = g;
  for (const EdgeId e : directedEdges(g, f)) out.setCapacity(e, 0.0);
  return out;
}

std::vector<char> failedEdgeMask(const Graph& g, const FailureScenario& f) {
  std::vector<char> failed(g.numEdges(), 0);
  for (const EdgeId e : directedEdges(g, f)) failed[e] = 1;
  return failed;
}

Dag repairDag(const Graph& g, const Dag& dag,
              const std::vector<char>& failed) {
  require(static_cast<int>(failed.size()) == g.numEdges(),
          "failed mask size mismatch");
  // Which nodes still reach dest over surviving DAG edges: one sweep over
  // the original topological order in reverse (dest-most first) suffices,
  // because every surviving edge (u,v) has v later in the order.
  const NodeId dest = dag.dest();
  std::vector<char> reaches(dag.numNodes(), 0);
  reaches[dest] = 1;
  const auto& topo = dag.topoOrder();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId u = *it;
    if (reaches[u]) continue;
    for (const EdgeId e : dag.outEdges(u)) {
      if (!failed[e] && reaches[g.edge(e).dst]) {
        reaches[u] = 1;
        break;
      }
    }
  }
  // Keep edges that survive and still lead somewhere: pruning edges into
  // dead-end nodes is what makes the renormalized splits lossless.
  std::vector<EdgeId> edges;
  for (const EdgeId e : dag.edges()) {
    if (!failed[e] && reaches[g.edge(e).dst]) edges.push_back(e);
  }
  return Dag(g, dest, std::move(edges));
}

std::shared_ptr<const DagSet> repairDags(const Graph& g, const DagSet& dags,
                                         const std::vector<char>& failed) {
  DagSet out;
  out.reserve(dags.size());
  for (const Dag& dag : dags) out.push_back(repairDag(g, dag, failed));
  return std::make_shared<const DagSet>(std::move(out));
}

routing::RoutingConfig repairRouting(const Graph& g,
                                     const routing::RoutingConfig& cfg,
                                     std::shared_ptr<const DagSet> repaired) {
  require(repaired != nullptr, "null repaired dag set");
  routing::RoutingConfig out(g, std::move(repaired));
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    for (const EdgeId e : out.dags()[t].edges()) {
      // Repaired edges are a subset of the original DAG's edges, so the
      // original ratio is defined for each of them.
      out.setRatio(t, e, cfg.ratio(t, e));
    }
  }
  // Renormalize per (destination, node); nodes whose surviving ratios sum
  // to ~0 (the original split sent everything into failed/pruned edges)
  // fall back to equal splitting over the surviving out-edges.
  out.normalize(g);
  return out;
}

bool routesAllDemands(const routing::RoutingConfig& cfg,
                      const tm::TrafficMatrix& d) {
  for (NodeId t = 0; t < d.numNodes(); ++t) {
    const Dag& dag = cfg.dags()[t];
    for (NodeId s = 0; s < d.numNodes(); ++s) {
      if (s == t || d.at(s, t) <= 0.0) continue;
      if (!dag.reachesDest(s)) return false;
    }
  }
  return true;
}

int disconnectedPairs(const Graph& degraded, const tm::TrafficMatrix& base) {
  require(base.numNodes() == degraded.numNodes(),
          "matrix/graph size mismatch");
  int count = 0;
  for (NodeId t = 0; t < degraded.numNodes(); ++t) {
    bool any = false;
    for (NodeId s = 0; s < degraded.numNodes(); ++s) {
      any = any || (s != t && base.at(s, t) > 0.0);
    }
    if (!any) continue;
    // Reverse reachability toward t over surviving (positive-capacity)
    // edges; hop distances suffice.
    const ShortestPathsToDest sp = hopDistancesTo(degraded, t);
    for (NodeId s = 0; s < degraded.numNodes(); ++s) {
      if (s != t && base.at(s, t) > 0.0 &&
          sp.dist[s] == std::numeric_limits<double>::infinity()) {
        ++count;
      }
    }
  }
  return count;
}

}  // namespace coyote::failure
