// Per-destination forwarding DAGs.
//
// COYOTE's routing configurations live inside one directed acyclic graph per
// destination (Sec. III: "the routes to each destination vertex must form a
// DAG"). A Dag is a subset of the graph's edges, all oriented "toward" the
// destination, together with precomputed per-node out-edge lists and a
// topological order used by flow propagation.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace coyote {

/// A destination-rooted forwarding DAG: a cycle-free subset of edges such
/// that every node with at least one out-edge eventually reaches `dest`.
class Dag {
 public:
  /// Builds a DAG for destination `dest` from the given edge subset.
  /// Throws std::invalid_argument if the edge set contains a directed cycle
  /// or an edge out of `dest`.
  Dag(const Graph& g, NodeId dest, std::vector<EdgeId> edges);

  [[nodiscard]] NodeId dest() const { return dest_; }
  [[nodiscard]] const std::vector<EdgeId>& edges() const { return edges_; }
  [[nodiscard]] bool contains(EdgeId e) const { return member_[e]; }

  /// Out-edges of `v` that belong to this DAG.
  [[nodiscard]] const std::vector<EdgeId>& outEdges(NodeId v) const {
    return out_[v];
  }

  /// Nodes in topological order: every DAG edge (u,v) has u before v.
  /// Flow toward the destination is propagated in this order; `dest` is last
  /// among nodes that can reach it.
  [[nodiscard]] const std::vector<NodeId>& topoOrder() const { return topo_; }

  /// True if v has a directed path to dest inside the DAG.
  [[nodiscard]] bool reachesDest(NodeId v) const { return reaches_[v]; }

  [[nodiscard]] int numNodes() const { return static_cast<int>(out_.size()); }

 private:
  NodeId dest_;
  std::vector<EdgeId> edges_;
  std::vector<char> member_;            // indexed by EdgeId
  std::vector<std::vector<EdgeId>> out_;  // indexed by NodeId
  std::vector<NodeId> topo_;
  std::vector<char> reaches_;
};

/// Convenience: set of per-destination DAGs, one per node of the graph,
/// indexed by destination id.
using DagSet = std::vector<Dag>;

}  // namespace coyote
