// Dinic max-flow / min-cut.
//
// One implementation serves two kinds of callers: the graph-level
// maxFlow() helpers, which tests use as an independent cross-check of the
// LP solver, and routing::OptuEngine, which solves every single-destination
// OPTU as a parametric min cut over an explicit arc list (see optu.cpp).
//
// Residual arcs at or below a tolerance relative to the largest arc
// capacity count as saturated, so the answer scales with the capacities:
// an instance scaled by 1e-13 or 1e13 has its flow scaled by the same
// factor.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace coyote {

/// Dinic's blocking-flow algorithm on an explicit residual arc list.
class Dinic {
 public:
  /// Residual tolerance, relative to the largest arc capacity.
  static constexpr double kRelEps = 1e-12;

  explicit Dinic(int num_nodes);

  /// Adds the arc u->v with capacity `cap` >= 0 (and its zero-capacity
  /// reverse).
  void addArc(int u, int v, double cap);

  /// Pushes a maximum s->t flow on top of any flow already pushed and
  /// returns the amount added.
  double run(int s, int t);

  /// After run(s, t): the nodes reachable from s through residual arcs
  /// above the tolerance -- the source side of a minimum s-t cut.
  [[nodiscard]] std::vector<char> sourceSide(int s) const;

 private:
  struct Arc {
    int to;
    int next;
    double cap;
  };

  /// Tolerance for the current arcs: kRelEps times the largest original
  /// capacity (residual plus reverse residual of a forward arc).
  [[nodiscard]] double tolerance() const;
  bool bfs(int s, int t, double eps);
  double dfs(int u, int t, double limit, double eps);

  std::vector<int> head_;
  std::vector<int> iter_;
  std::vector<int> level_;
  std::vector<Arc> arcs_;
};

/// Value of the maximum s->t flow where every edge e has capacity
/// g.edge(e).capacity. The graph is treated as directed (call sites use
/// addLink for bidirectional capacity).
[[nodiscard]] double maxFlow(const Graph& g, NodeId s, NodeId t);

/// Maximum flow from a set of sources to t (adds an implicit super-source).
[[nodiscard]] double maxFlow(const Graph& g, const std::vector<NodeId>& sources,
                             NodeId t);

}  // namespace coyote
