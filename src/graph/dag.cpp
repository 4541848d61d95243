#include "graph/dag.hpp"

#include <algorithm>

namespace coyote {

Dag::Dag(const Graph& g, NodeId dest, std::vector<EdgeId> edges)
    : dest_(dest), edges_(std::move(edges)) {
  require(dest >= 0 && dest < g.numNodes(), "dag dest out of range");
  const int n = g.numNodes();
  member_.assign(g.numEdges(), 0);
  out_.assign(n, {});
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  for (const EdgeId e : edges_) {
    require(e >= 0 && e < g.numEdges(), "dag edge id out of range");
    const Edge& ed = g.edge(e);
    require(ed.src != dest_, "dag must not contain edges out of dest");
    member_[e] = 1;
    out_[ed.src].push_back(e);
  }

  // Kahn topological sort; detects cycles.
  std::vector<int> indeg(n, 0);
  for (const EdgeId e : edges_) ++indeg[g.edge(e).dst];
  std::vector<NodeId> queue;
  queue.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    if (indeg[v] == 0) queue.push_back(v);
  }
  // Stable processing order: smallest id first, so topo order is
  // deterministic across runs (matters for reproducible benchmarks).
  std::sort(queue.begin(), queue.end());
  topo_.reserve(n);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    topo_.push_back(u);
    for (const EdgeId e : out_[u]) {
      const NodeId w = g.edge(e).dst;
      if (--indeg[w] == 0) queue.push_back(w);
    }
  }
  require(static_cast<int>(topo_.size()) == n,
          "dag edge set contains a directed cycle");

  // Reachability to dest inside the DAG: one sweep over the topological
  // order in reverse, since every edge (u,w) has w later in the order.
  reaches_.assign(n, 0);
  reaches_[dest_] = 1;
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const NodeId u = *it;
    for (const EdgeId e : out_[u]) {
      if (reaches_[g.edge(e).dst]) {
        reaches_[u] = 1;
        break;
      }
    }
  }
}

}  // namespace coyote
