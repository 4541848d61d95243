// Traditional TE with ECMP (Sec. II): traffic to each destination follows
// the shortest-path DAG induced by the configured link weights and is split
// *equally* among the next-hops on shortest paths.
#pragma once

#include <memory>

#include "graph/dijkstra.hpp"
#include "routing/config.hpp"

namespace coyote::routing {

/// Builds the ECMP routing configuration for the graph's current link
/// weights, expressed over the given DAG set (each shortest-path edge must
/// be contained in the corresponding DAG -- true by construction when `dags`
/// are the augmented DAGs built from the same weights). Ratios are 1/k over
/// the k ECMP next-hops and 0 on the remaining DAG edges, which makes ECMP
/// a point of COYOTE's solution space (Sec. V-B).
[[nodiscard]] RoutingConfig ecmpConfig(const Graph& g,
                                       std::shared_ptr<const DagSet> dags);

/// Shortest-path DAG set for the current weights (one DAG per destination).
[[nodiscard]] DagSet shortestPathDags(const Graph& g);

/// ECMP over its own shortest-path DAGs: 1/k on each of a node's k DAG
/// out-edges, from one SPF per destination. Zero-capacity (failed) links
/// are withdrawn, so on a degraded graph this is OSPF reconvergence: what
/// every router's FIB holds once SPF re-runs on the survivors.
[[nodiscard]] RoutingConfig shortestPathEcmp(const Graph& g);

}  // namespace coyote::routing
