// Deriving the post-failure network for one FailureScenario.
//
// Three views of the surviving network, matching how each routing scheme
// actually reacts to a link failure:
//
//  * the graph: failed links get capacity 0 (node/edge ids are preserved,
//    so every id-indexed structure stays aligned). Zero capacity is the
//    repo-wide "failed link" encoding -- SPF, ECMP next-hop computation
//    and connectivity checks all skip such edges (see graph/dijkstra.hpp).
//
//  * COYOTE / any static per-destination-DAG scheme: the precomputed DAGs
//    are *repaired*, not rebuilt -- failed edges are removed, then edges
//    into nodes that lost their path to the destination are pruned
//    iteratively, and each surviving node renormalizes its splitting
//    ratios over the surviving out-edges (the local rebalancing a static
//    scheme can do without re-running the optimizer). A node the pruning
//    strands (graph-connected but DAG-disconnected) makes the scheme
//    *unroutable* for demands at that node.
//
//  * ECMP / the fibbing substrate: OSPF floods the withdrawal and every
//    router re-runs SPF on the surviving topology, so the reconverged
//    config is SPF ECMP on the degraded graph (routing::shortestPathEcmp,
//    reached through te::Scheme::reconverge). No lie survives a
//    reconvergence unrefreshed, so the FIBs fibbing::OspfModel computes
//    for the degraded graph hold the same next hops; failure_test keeps
//    that model as the reference the builder is checked against.
#pragma once

#include <memory>
#include <vector>

#include "failure/scenario.hpp"
#include "graph/dag.hpp"
#include "routing/config.hpp"
#include "tm/traffic_matrix.hpp"

namespace coyote::failure {

/// Copy of `g` with both directions of the failure's links at capacity 0.
[[nodiscard]] Graph degradedGraph(const Graph& g, const FailureScenario& f);

/// Per-EdgeId failed mask (both directions) for the scenario.
[[nodiscard]] std::vector<char> failedEdgeMask(const Graph& g,
                                               const FailureScenario& f);

/// Repairs one destination DAG: drops failed edges, then iteratively
/// prunes edges whose head can no longer reach the destination. The result
/// is acyclic by construction (a subset of an acyclic edge set) and may
/// strand nodes (no surviving out-edges); callers detect those via
/// Dag::reachesDest.
[[nodiscard]] Dag repairDag(const Graph& g, const Dag& dag,
                            const std::vector<char>& failed);

/// repairDag over a whole DAG set.
[[nodiscard]] std::shared_ptr<const DagSet> repairDags(
    const Graph& g, const DagSet& dags, const std::vector<char>& failed);

/// Re-expresses `cfg` over the repaired DAGs: surviving ratios are copied
/// and renormalized per (destination, node); nodes whose surviving ratios
/// all vanished fall back to equal splitting over the surviving out-edges.
/// No traffic is ever placed on a failed edge.
[[nodiscard]] routing::RoutingConfig repairRouting(
    const Graph& g, const routing::RoutingConfig& cfg,
    std::shared_ptr<const DagSet> repaired);

/// True if `cfg` can deliver every positive demand of `d`: each (s,t) with
/// d(s,t) > 0 has a directed path to t inside cfg's DAG for t.
[[nodiscard]] bool routesAllDemands(const routing::RoutingConfig& cfg,
                                    const tm::TrafficMatrix& d);

/// Number of (s,t) pairs with base demand > 0 that the degraded graph
/// cannot connect at all (no surviving directed path). Positive means the
/// failure partitions the demand: no routing scheme can serve it.
[[nodiscard]] int disconnectedPairs(const Graph& degraded,
                                    const tm::TrafficMatrix& base);

}  // namespace coyote::failure
