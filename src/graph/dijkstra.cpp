#include "graph/dijkstra.hpp"

#include <limits>
#include <queue>

namespace coyote {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// `weight(e, g.edge(e))` is the (non-negative) length of edge e.
template <typename Weight>
ShortestPathsToDest reverseDijkstra(const Graph& g, NodeId dest,
                                    const Weight& weight) {
  require(dest >= 0 && dest < g.numNodes(), "dest out of range");
  ShortestPathsToDest sp;
  sp.dest = dest;
  sp.dist.assign(g.numNodes(), kInf);
  using Item = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  sp.dist[dest] = 0.0;
  pq.emplace(0.0, dest);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > sp.dist[v]) continue;  // stale entry
    for (const EdgeId e : g.inEdges(v)) {
      const Edge& ed = g.edge(e);
      if (ed.capacity <= 0.0) continue;  // failed link: withdrawn from SPF
      const double nd = d + weight(e, ed);
      if (nd < sp.dist[ed.src]) {
        sp.dist[ed.src] = nd;
        pq.emplace(nd, ed.src);
      }
    }
  }
  return sp;
}

}  // namespace

ShortestPathsToDest shortestPathsTo(const Graph& g, NodeId dest) {
  return reverseDijkstra(g, dest,
                         [](EdgeId, const Edge& ed) { return ed.weight; });
}

ShortestPathsToDest shortestPathsTo(const Graph& g, NodeId dest,
                                    const std::vector<double>& weights) {
  require(static_cast<int>(weights.size()) == g.numEdges(),
          "weights/graph size mismatch");
  return reverseDijkstra(
      g, dest, [&](EdgeId e, const Edge&) { return weights[e]; });
}

ShortestPathsToDest hopDistancesTo(const Graph& g, NodeId dest) {
  return reverseDijkstra(g, dest,
                         [](EdgeId, const Edge&) { return 1.0; });
}

std::vector<EdgeId> shortestPathDagEdges(const Graph& g,
                                         const ShortestPathsToDest& sp,
                                         double eps) {
  std::vector<EdgeId> dag;
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const Edge& ed = g.edge(e);
    if (ed.capacity <= 0.0) continue;  // failed link
    if (sp.dist[ed.src] == kInf || sp.dist[ed.dst] == kInf) continue;
    if (std::abs(sp.dist[ed.src] - (ed.weight + sp.dist[ed.dst])) <= eps) {
      dag.push_back(e);
    }
  }
  return dag;
}

std::vector<EdgeId> ecmpNextHops(const Graph& g, const ShortestPathsToDest& sp,
                                 NodeId u, double eps) {
  std::vector<EdgeId> hops;
  if (u == sp.dest || sp.dist[u] == kInf) return hops;
  for (const EdgeId e : g.outEdges(u)) {
    const Edge& ed = g.edge(e);
    if (ed.capacity <= 0.0) continue;  // failed link
    if (sp.dist[ed.dst] == kInf) continue;
    if (std::abs(sp.dist[u] - (ed.weight + sp.dist[ed.dst])) <= eps) {
      hops.push_back(e);
    }
  }
  return hops;
}

}  // namespace coyote
