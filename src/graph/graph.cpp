#include "graph/graph.hpp"

#include <algorithm>
#include <limits>

namespace coyote {

NodeId Graph::addNode(std::string name) {
  nodes_.push_back(std::move(name));
  ++mutation_epoch_;
  const auto id = static_cast<NodeId>(nodes_.size() - 1);
  if (nodes_.back().empty()) nodes_.back() = "n" + std::to_string(id);
  return id;
}

EdgeId Graph::addEdge(NodeId src, NodeId dst, double capacity, double weight) {
  checkNode(src);
  checkNode(dst);
  require(src != dst, "self loops are not allowed");
  require(capacity > 0.0, "edge capacity must be positive");
  require(weight > 0.0, "edge weight must be positive");
  Edge e;
  e.src = src;
  e.dst = dst;
  e.capacity = capacity;
  e.weight = weight;
  edges_.push_back(e);
  ++mutation_epoch_;
  return static_cast<EdgeId>(edges_.size() - 1);
}

EdgeId Graph::addLink(NodeId a, NodeId b, double capacity, double weight) {
  const EdgeId fwd = addEdge(a, b, capacity, weight);
  const EdgeId bwd = addEdge(b, a, capacity, weight);
  edges_[fwd].reverse = bwd;
  edges_[bwd].reverse = fwd;
  return fwd;
}

void Graph::rebuildCsr() const {
  // Counting sort of edge ids by endpoint. Ascending edge-id placement
  // reproduces the per-node insertion order the old vector<vector>
  // adjacency had, so every order-sensitive consumer (DAG builders, LP
  // template construction) sees identical sequences.
  const int n = numNodes();
  const int m = numEdges();
  out_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  in_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges_) {
    ++out_off_[static_cast<std::size_t>(e.src) + 1];
    ++in_off_[static_cast<std::size_t>(e.dst) + 1];
  }
  for (int v = 0; v < n; ++v) {
    out_off_[v + 1] += out_off_[v];
    in_off_[v + 1] += in_off_[v];
  }
  out_ids_.resize(static_cast<std::size_t>(m));
  in_ids_.resize(static_cast<std::size_t>(m));
  std::vector<std::int32_t> out_cur(out_off_.begin(), out_off_.end() - 1);
  std::vector<std::int32_t> in_cur(in_off_.begin(), in_off_.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    out_ids_[out_cur[edges_[e].src]++] = e;
    in_ids_[in_cur[edges_[e].dst]++] = e;
  }
  csr_epoch_ = mutation_epoch_;
}

std::optional<NodeId> Graph::findNode(const std::string& name) const {
  const auto it = std::find(nodes_.begin(), nodes_.end(), name);
  if (it == nodes_.end()) return std::nullopt;
  return static_cast<NodeId>(it - nodes_.begin());
}

std::optional<EdgeId> Graph::findEdge(NodeId src, NodeId dst) const {
  checkNode(dst);
  for (const EdgeId e : outEdges(src)) {
    if (edges_[e].dst == dst) return e;
  }
  return std::nullopt;
}

void Graph::setWeight(EdgeId e, double w) {
  require(w > 0.0, "edge weight must be positive");
  edges_[checkEdge(e)].weight = w;
}

void Graph::setCapacity(EdgeId e, double c) {
  // Zero is legal and means "failed link" (withdrawn from SPF/connectivity
  // and unable to carry traffic; see src/failure/). Construction still
  // rejects non-positive capacities: a link is born up.
  require(c >= 0.0, "edge capacity must be non-negative");
  edges_[checkEdge(e)].capacity = c;
}

void Graph::setInverseCapacityWeights() {
  double max_cap = 0.0;
  for (const Edge& e : edges_) max_cap = std::max(max_cap, e.capacity);
  for (Edge& e : edges_) {
    if (e.capacity > 0.0) e.weight = max_cap / e.capacity;
  }
}

double Graph::outCapacity(NodeId v) const {
  double sum = 0.0;
  for (const EdgeId e : outEdges(v)) sum += edges_[e].capacity;
  return sum;
}

double Graph::inCapacity(NodeId v) const {
  double sum = 0.0;
  for (const EdgeId e : inEdges(v)) sum += edges_[e].capacity;
  return sum;
}

bool Graph::stronglyConnected() const {
  if (numNodes() == 0) return true;
  // BFS forward and backward from node 0.
  const auto bfs = [&](bool forward) {
    std::vector<char> seen(numNodes(), 0);
    std::vector<NodeId> stack{0};
    seen[0] = 1;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      const EdgeSpan adj = forward ? outEdges(u) : inEdges(u);
      for (const EdgeId e : adj) {
        if (edges_[e].capacity <= 0.0) continue;  // failed link
        const NodeId w = forward ? edges_[e].dst : edges_[e].src;
        if (!seen[w]) {
          seen[w] = 1;
          stack.push_back(w);
        }
      }
    }
    return std::all_of(seen.begin(), seen.end(), [](char c) { return c != 0; });
  };
  return bfs(true) && bfs(false);
}

}  // namespace coyote
