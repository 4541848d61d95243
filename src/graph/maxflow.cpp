#include "graph/maxflow.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace coyote {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Dinic::Dinic(int num_nodes) : head_(num_nodes, -1) {}

void Dinic::addArc(int u, int v, double cap) {
  arcs_.push_back({v, head_[u], cap});
  head_[u] = static_cast<int>(arcs_.size()) - 1;
  arcs_.push_back({u, head_[v], 0.0});
  head_[v] = static_cast<int>(arcs_.size()) - 1;
}

double Dinic::tolerance() const {
  double largest = 0.0;
  for (std::size_t a = 0; a < arcs_.size(); a += 2) {
    largest = std::max(largest, arcs_[a].cap + arcs_[a + 1].cap);
  }
  return kRelEps * largest;
}

double Dinic::run(int s, int t) {
  const double eps = tolerance();
  double total = 0.0;
  while (bfs(s, t, eps)) {
    iter_ = head_;
    double f;
    while ((f = dfs(s, t, kInf, eps)) > eps) total += f;
  }
  return total;
}

std::vector<char> Dinic::sourceSide(int s) const {
  const double eps = tolerance();
  std::vector<char> side(head_.size(), 0);
  std::vector<int> stack{s};
  side[s] = 1;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    for (int a = head_[u]; a != -1; a = arcs_[a].next) {
      if (arcs_[a].cap > eps && !side[arcs_[a].to]) {
        side[arcs_[a].to] = 1;
        stack.push_back(arcs_[a].to);
      }
    }
  }
  return side;
}

bool Dinic::bfs(int s, int t, double eps) {
  level_.assign(head_.size(), -1);
  std::queue<int> q;
  level_[s] = 0;
  q.push(s);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (int a = head_[u]; a != -1; a = arcs_[a].next) {
      if (arcs_[a].cap > eps && level_[arcs_[a].to] < 0) {
        level_[arcs_[a].to] = level_[u] + 1;
        q.push(arcs_[a].to);
      }
    }
  }
  return level_[t] >= 0;
}

double Dinic::dfs(int u, int t, double limit, double eps) {
  if (u == t) return limit;
  for (int& a = iter_[u]; a != -1; a = arcs_[a].next) {
    Arc& arc = arcs_[a];
    if (arc.cap > eps && level_[arc.to] == level_[u] + 1) {
      const double pushed = dfs(arc.to, t, std::min(limit, arc.cap), eps);
      if (pushed > eps) {
        arc.cap -= pushed;
        arcs_[a ^ 1].cap += pushed;
        return pushed;
      }
    }
  }
  return 0.0;
}

double maxFlow(const Graph& g, NodeId s, NodeId t) {
  return maxFlow(g, std::vector<NodeId>{s}, t);
}

double maxFlow(const Graph& g, const std::vector<NodeId>& sources, NodeId t) {
  require(t >= 0 && t < g.numNodes(), "maxFlow: t out of range");
  require(!sources.empty(), "maxFlow: no sources");
  const int n = g.numNodes();
  Dinic dinic(n + 1);  // node n = super source
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const Edge& ed = g.edge(e);
    dinic.addArc(ed.src, ed.dst, ed.capacity);
  }
  for (const NodeId s : sources) {
    require(s >= 0 && s < n, "maxFlow: source out of range");
    require(s != t, "maxFlow: source equals sink");
    // A source never sends more than its out-capacity; a cap of that size
    // keeps the tolerance on the scale of the graph's own capacities.
    dinic.addArc(n, s, g.outCapacity(s));
  }
  return dinic.run(n, t);
}

}  // namespace coyote
