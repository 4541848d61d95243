// Flow propagation through per-destination DAGs.
//
// With destination-based routing, the flow a demand matrix induces on every
// link is computed exactly by one sweep per destination in topological
// order (Sec. III): F_t(u) = d(u,t) + sum over DAG in-edges (w,u) of
// F_t(w) * phi_t(w,u); the load contributed to edge e=(u,v) is
// F_t(u) * phi_t(e).
#pragma once

#include <vector>

#include "routing/config.hpp"
#include "tm/traffic_matrix.hpp"

namespace coyote::routing {

/// Per-edge absolute flow (same indexing as Graph edges).
using LinkLoads = std::vector<double>;

/// Total load per edge for demand matrix `d` routed by `cfg`.
[[nodiscard]] LinkLoads computeLoads(const Graph& g, const RoutingConfig& cfg,
                                     const tm::TrafficMatrix& d);

/// Load per edge for a single destination's demands (column t of `d`).
/// `loads` is accumulated into (callers zero it as needed). A column
/// without positive demand returns after one scan, without the DAG walk.
void accumulateDestinationLoads(const Graph& g, const RoutingConfig& cfg,
                                const tm::TrafficMatrix& d, NodeId t,
                                LinkLoads& loads);

/// Maximum link utilization max_e load(e)/capacity(e).
[[nodiscard]] double maxLinkUtilization(const Graph& g, const LinkLoads& loads);

/// Convenience: MxLU(cfg, d) in one call.
[[nodiscard]] double maxLinkUtilization(const Graph& g,
                                        const RoutingConfig& cfg,
                                        const tm::TrafficMatrix& d);

/// Fractions f_st(v): the fraction of a unit s->t demand that enters each
/// node v when routed by `cfg` (Sec. III). f[s] = 1.
[[nodiscard]] std::vector<double> sourceFractions(const Graph& g,
                                                  const RoutingConfig& cfg,
                                                  NodeId s, NodeId t);

/// Expected path length (in hops) of the s->t flow under `cfg`:
/// sum over edges e=(u,v) of f_st(u)*phi_t(e). Used by the Fig. 11 stretch
/// metric. Returns 0 for s == t.
[[nodiscard]] double expectedHopCount(const Graph& g, const RoutingConfig& cfg,
                                      NodeId s, NodeId t);

}  // namespace coyote::routing
