#include "routing/ecmp.hpp"

namespace coyote::routing {

DagSet shortestPathDags(const Graph& g) {
  DagSet dags;
  dags.reserve(g.numNodes());
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    const ShortestPathsToDest sp = shortestPathsTo(g, t);
    dags.emplace_back(g, t, shortestPathDagEdges(g, sp));
  }
  return dags;
}

RoutingConfig ecmpConfig(const Graph& g, std::shared_ptr<const DagSet> dags) {
  RoutingConfig cfg(g, std::move(dags));
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    const ShortestPathsToDest sp = shortestPathsTo(g, t);
    for (NodeId u = 0; u < g.numNodes(); ++u) {
      if (u == t) continue;
      const std::vector<EdgeId> hops = ecmpNextHops(g, sp, u);
      if (hops.empty()) continue;
      const double r = 1.0 / static_cast<double>(hops.size());
      for (const EdgeId e : hops) {
        require(cfg.dags()[t].contains(e),
                "shortest-path edge missing from DAG; build DAGs from the "
                "same weights");
        cfg.setRatio(t, e, r);
      }
    }
  }
  cfg.validate(g);
  return cfg;
}

RoutingConfig shortestPathEcmp(const Graph& g) {
  // A shortest-path DAG's out-edges at u are exactly u's ECMP next hops.
  return RoutingConfig::uniform(
      g, std::make_shared<const DagSet>(shortestPathDags(g)));
}

}  // namespace coyote::routing
