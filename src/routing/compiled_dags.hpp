// Per-destination DAGs flattened for repeated flow walks.
//
// Destination t owns the nodes node[node_off[t] .. node_off[t+1]): its
// nodes with out-arcs, in Dag::topoOrder(). Node slot k owns the arcs
// arc[arc_off[k] .. arc_off[k+1]), in Dag::outEdges order, each with its
// head read from Graph::edge() once, at compile time. A walk over these
// arrays therefore visits the same arcs in the same order as one over the
// Dag it was compiled from, and does the same floating-point operations:
// the splitting optimizer's passes (core::optimizeSplitting) and the
// compiled MxLU kernel (routing::CompiledRouting) both walk it.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/dag.hpp"
#include "graph/graph.hpp"

namespace coyote::routing {

struct CompiledDags {
  /// One DAG edge as a walk sees it.
  struct Arc {
    EdgeId e;
    NodeId head;
  };

  std::vector<std::size_t> node_off;
  std::vector<NodeId> node;
  std::vector<std::size_t> arc_off;
  std::vector<Arc> arc;

  /// Compiles every destination's DAG, or with `dests` (by node) only the
  /// flagged ones: the others keep an empty node range.
  CompiledDags(const Graph& g, const DagSet& dags,
               const std::vector<char>& dests = {}) {
    const auto compiled = [&](NodeId t) { return dests.empty() || dests[t]; };
    std::size_t nodes = 0;
    std::size_t arcs = 0;
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      if (!compiled(t)) continue;
      nodes += dags[t].topoOrder().size();
      arcs += dags[t].edges().size();
    }
    node_off.reserve(static_cast<std::size_t>(g.numNodes()) + 1);
    node.reserve(nodes);
    arc_off.reserve(nodes + 1);
    arc.reserve(arcs);
    node_off.push_back(0);
    arc_off.push_back(0);
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      if (!compiled(t)) {
        node_off.push_back(node.size());
        continue;
      }
      const Dag& dag = dags[t];
      for (const NodeId u : dag.topoOrder()) {
        const auto& out = dag.outEdges(u);
        if (out.empty()) continue;  // includes t: no edge leaves the dest
        node.push_back(u);
        for (const EdgeId e : out) arc.push_back({e, g.edge(e).dst});
        arc_off.push_back(arc.size());
      }
      node_off.push_back(node.size());
    }
  }

  /// Pushes destination t's flow down its DAG (Sec. III). F holds, per
  /// node, the t-bound flow entering it, seeded with the demand column; a
  /// node with F > 0 forwards flow = F * ratio(j) on each out-arc j with
  /// positive flow, adding it to load[arc.e] and to F[arc.head]. Nodes are
  /// final before they forward: the walk is in topological order.
  template <class Ratio>
  void propagate(NodeId t, const Ratio& ratio, double* F, double* load) const {
    for (std::size_t v = node_off[t]; v < node_off[t + 1]; ++v) {
      const double f = F[node[v]];
      if (f <= 0.0) continue;
      for (std::size_t j = arc_off[v]; j < arc_off[v + 1]; ++j) {
        const double flow = f * ratio(j);
        if (flow <= 0.0) continue;
        load[arc[j].e] += flow;
        F[arc[j].head] += flow;
      }
    }
  }
};

}  // namespace coyote::routing
