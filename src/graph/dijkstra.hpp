// Shortest-path machinery: distances toward a destination, shortest-path
// DAGs (the substrate of OSPF routing) and ECMP next-hop sets.
//
// Failed links are modeled as zero-capacity edges (see src/failure/): a
// down link is withdrawn from the link-state database, so every routine
// here skips edges with non-positive capacity. Intact topologies always
// carry positive capacities, making this a no-op outside failure
// scenarios.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace coyote {

/// Result of a single-destination shortest-path computation.
struct ShortestPathsToDest {
  NodeId dest = kInvalidNode;
  /// dist[v] = weighted shortest distance from v to dest
  /// (infinity if unreachable).
  std::vector<double> dist;
};

/// Computes, for every node v, the shortest weighted distance from v to
/// `dest` (Dijkstra over reversed edges). Uses Edge::weight.
[[nodiscard]] ShortestPathsToDest shortestPathsTo(const Graph& g, NodeId dest);

/// Same, with edge e's length taken from weights[e] (by edge id, >= 0;
/// zeros allowed) instead of Edge::weight.
[[nodiscard]] ShortestPathsToDest shortestPathsTo(
    const Graph& g, NodeId dest, const std::vector<double>& weights);

/// Same, but hop counts instead of weights (used for path-stretch metrics).
[[nodiscard]] ShortestPathsToDest hopDistancesTo(const Graph& g, NodeId dest);

/// Edges of the shortest-path DAG rooted at `dest`: edge (u,v) is in the DAG
/// iff dist(u) == weight(u,v) + dist(v). This is exactly the set of links
/// OSPF/ECMP may forward on toward `dest`.
[[nodiscard]] std::vector<EdgeId> shortestPathDagEdges(
    const Graph& g, const ShortestPathsToDest& sp, double eps = 1e-9);

/// ECMP next-hop edges of node u toward `dest` (subset of u's out-edges that
/// lie on shortest paths). Empty for u == dest or unreachable u.
[[nodiscard]] std::vector<EdgeId> ecmpNextHops(
    const Graph& g, const ShortestPathsToDest& sp, NodeId u,
    double eps = 1e-9);

}  // namespace coyote
