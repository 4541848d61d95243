// Flow propagation through per-destination DAGs.
//
// With destination-based routing, the flow a demand matrix induces on every
// link is computed exactly by one sweep per destination in topological
// order (Sec. III): F_t(u) = d(u,t) + sum over DAG in-edges (w,u) of
// F_t(w) * phi_t(w,u); the load contributed to edge e=(u,v) is
// F_t(u) * phi_t(e).
//
// Two implementations compute MxLU. maxLinkUtilization(g, cfg, d) walks
// the Dag objects directly. CompiledRouting flattens a config once
// (routing/compiled_dags.hpp: the arcs in walk order, each with its ratio,
// plus the capacities) and then evaluates matrix after matrix with no
// allocation beyond its scratch and no per-arc lookup. It visits the same
// arcs in the same order with the same skips, so its loads -- and its MxLU,
// +inf for a loaded zero-capacity edge included -- are bit-identical. The
// post-failure ruler (failure::evaluateFailure) and PerformanceEvaluator
// evaluate whole pools with it.
#pragma once

#include <vector>

#include "routing/compiled_dags.hpp"
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

/// A routing config compiled for repeated MxLU evaluation over a pool of
/// matrices (file comment). Keeps copies of what it reads, so neither g,
/// cfg nor the pool need outlive it.
class CompiledRouting {
 public:
  /// Compiles cfg's DAGs and ratios for the destinations some matrix of
  /// `pool` sends to; capacities and arc heads come from g, which must
  /// have cfg's node and edge counts (a degraded copy of the graph cfg was
  /// built on is fine).
  CompiledRouting(const Graph& g, const RoutingConfig& cfg,
                  const std::vector<tm::TrafficMatrix>& pool);

  /// Bit-identical to routing::maxLinkUtilization(g, cfg, d). d may send
  /// only to destinations the pool sends to (a matrix of the pool always
  /// does). `scratch` is resized and overwritten; one per thread.
  [[nodiscard]] double maxLinkUtilization(const tm::TrafficMatrix& d,
                                          std::vector<double>& scratch) const;

 private:
  std::vector<char> dests_;    ///< by node: compiled
  CompiledDags dags_;
  std::vector<double> ratio_;  ///< per arc of dags_, phi_t(e)
  std::vector<double> cap_;    ///< per edge
};

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
