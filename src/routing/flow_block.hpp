// The per-destination flow-conservation block that the paper's LPs share.
//
// OPTU (Sec. III, optu.hpp), its block-decomposition pre-solve, and the
// per-edge slave LP (Sec. IV / Appendix C, worst_case.hpp) all route each
// destination t's aggregate flow g_t over an edge set E_t:
//
//     sum_{e in out(u), e in E_t} g_t(e) - sum_{e in in(u), e in E_t} g_t(e)
//         - d(u,t)  =  0                              for every node u != t
//
// where the supply term d(u,t) is the slave LP's demand variable; OPTU
// leaves it out and puts the demand on the row's rhs instead.
#pragma once

#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "lp/lp.hpp"

namespace coyote::routing {

/// Variable and row ids of one appended block.
struct FlowBlock {
  std::vector<int> vars;  ///< [j] flow variable of edges[j]
  std::vector<int> rows;  ///< [u] conservation row of node u, or -1
};

/// Appends destination `dest`'s flow block to `p`: one variable per entry
/// of `edges` (ascending edge ids; objective 0, bounds [0, inf)), then one
/// equality row with rhs 0 for every node u != dest that has a term, in
/// node order: +1 on u's out-edges, -1 on its in-edges, and -1 on
/// supply[u] when `supply` (by node, -1 for none) is given.
inline FlowBlock appendFlowBlock(lp::LpProblem& p, const Graph& g,
                                 NodeId dest,
                                 const std::vector<EdgeId>& edges,
                                 const std::vector<int>& supply = {}) {
  FlowBlock block;
  std::vector<int> var(static_cast<std::size_t>(g.numEdges()), -1);
  block.vars.reserve(edges.size());
  for (const EdgeId e : edges) {
    var[e] = p.addVar(0.0, 0.0, lp::kInfinity);
    block.vars.push_back(var[e]);
  }
  block.rows.assign(static_cast<std::size_t>(g.numNodes()), -1);
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    if (u == dest) continue;
    std::vector<lp::Term> terms;
    for (const EdgeId e : g.outEdges(u)) {
      if (var[e] >= 0) terms.push_back({var[e], 1.0});
    }
    for (const EdgeId e : g.inEdges(u)) {
      if (var[e] >= 0) terms.push_back({var[e], -1.0});
    }
    if (!supply.empty() && supply[u] >= 0) terms.push_back({supply[u], -1.0});
    if (terms.empty()) continue;
    block.rows[u] = p.numRows();
    p.addConstraint(std::move(terms), lp::Rel::kEq, 0.0);
  }
  return block;
}

}  // namespace coyote::routing
