// Directed capacitated multigraph used throughout COYOTE.
//
// The network model of the paper (Sec. III): a directed graph G = (V, E)
// where every edge e carries a capacity c(e) and an IGP weight w(e).
// Backbone links are physically bidirectional; addLink() inserts the two
// directed edges and records them as mutual "reverse" edges so that DAG
// construction can orient each physical link in exactly one direction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/require.hpp"

namespace coyote {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

/// One directed edge of the network graph.
struct Edge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double capacity = 1.0;  ///< link capacity (arbitrary rate units)
  double weight = 1.0;    ///< IGP (OSPF) link weight
  EdgeId reverse = kInvalidEdge;  ///< opposite direction of the same physical
                                  ///< link, or kInvalidEdge if unidirectional
};

/// Non-owning view of one node's slice of the CSR adjacency arrays
/// (Graph::outEdges / inEdges). Iterates edge ids in insertion order.
/// Invalidated by the next addNode/addEdge on the owning graph, like any
/// reference into a growing container.
class EdgeSpan {
 public:
  using value_type = EdgeId;
  using const_iterator = const EdgeId*;

  constexpr EdgeSpan() = default;
  constexpr EdgeSpan(const EdgeId* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] constexpr const EdgeId* begin() const { return data_; }
  [[nodiscard]] constexpr const EdgeId* end() const { return data_ + size_; }
  [[nodiscard]] constexpr std::size_t size() const { return size_; }
  [[nodiscard]] constexpr bool empty() const { return size_ == 0; }
  constexpr EdgeId operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] constexpr EdgeId front() const { return data_[0]; }
  [[nodiscard]] constexpr EdgeId back() const { return data_[size_ - 1]; }

 private:
  const EdgeId* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Directed capacitated multigraph with stable integer node/edge ids.
///
/// Node and edge ids are dense indices (0..n-1), which lets every algorithm
/// in the library use flat vectors keyed by id instead of hash maps.
///
/// Adjacency is stored in CSR form: one flat offsets array (|V|+1 entries)
/// plus one flat edge-id array per direction, so the Dijkstra / ECMP /
/// DAG-builder hot loops scan contiguous memory instead of chasing one
/// heap allocation per node. The CSR arrays are rebuilt lazily on the
/// first adjacency access after a mutation epoch (any addNode/addEdge
/// bumps the epoch; setCapacity/setWeight never do -- link failures are
/// capacity-0 edges, not removals). Like mutation itself, the rebuild is
/// not thread-safe: finish construction (or touch outEdges once) before
/// sharing a graph across threads, which is what every caller in the repo
/// already does.
class Graph {
 public:
  Graph() = default;

  /// Adds a node and returns its id. `name` is used in reports and parsing.
  NodeId addNode(std::string name = {});

  /// Adds one directed edge. Returns its id.
  EdgeId addEdge(NodeId src, NodeId dst, double capacity = 1.0,
                 double weight = 1.0);

  /// Adds a bidirectional link: two directed edges that reference each other
  /// via Edge::reverse. Returns the id of the src->dst direction (the
  /// dst->src direction is the returned id's reverse).
  EdgeId addLink(NodeId a, NodeId b, double capacity = 1.0,
                 double weight = 1.0);

  [[nodiscard]] int numNodes() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] int numEdges() const { return static_cast<int>(edges_.size()); }

  [[nodiscard]] const Edge& edge(EdgeId e) const { return edges_[checkEdge(e)]; }
  [[nodiscard]] const std::string& nodeName(NodeId v) const {
    return nodes_[checkNode(v)];
  }

  /// Renames a node (parser convenience).
  void setNodeName(NodeId v, std::string name) {
    nodes_[checkNode(v)] = std::move(name);
  }

  /// Finds a node by name; returns std::nullopt if absent. O(|V|).
  [[nodiscard]] std::optional<NodeId> findNode(const std::string& name) const;

  /// Out-going / in-coming edge ids of a node, in insertion order, as a
  /// view over the flat CSR arrays.
  [[nodiscard]] EdgeSpan outEdges(NodeId v) const {
    checkNode(v);
    ensureCsr();
    return {out_ids_.data() + out_off_[v],
            static_cast<std::size_t>(out_off_[v + 1] - out_off_[v])};
  }
  [[nodiscard]] EdgeSpan inEdges(NodeId v) const {
    checkNode(v);
    ensureCsr();
    return {in_ids_.data() + in_off_[v],
            static_cast<std::size_t>(in_off_[v + 1] - in_off_[v])};
  }

  /// The flat CSR arrays themselves, for hot kernels that sweep the whole
  /// adjacency: node v's out-edge ids live at outIds()[outOffsets()[v] ..
  /// outOffsets()[v+1]). Fetching the vectors once and indexing them as
  /// locals lets the compiler keep the base pointers in registers and
  /// vectorize the sweep, which the per-node outEdges() accessor -- whose
  /// lazy-rebuild check it must assume clobbers the arrays -- prevents.
  /// Same invalidation rule as EdgeSpan: any addNode/addEdge stales them.
  [[nodiscard]] const std::vector<std::int32_t>& outOffsets() const {
    ensureCsr();
    return out_off_;
  }
  [[nodiscard]] const std::vector<EdgeId>& outIds() const {
    ensureCsr();
    return out_ids_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& inOffsets() const {
    ensureCsr();
    return in_off_;
  }
  [[nodiscard]] const std::vector<EdgeId>& inIds() const {
    ensureCsr();
    return in_ids_;
  }

  /// First edge src->dst, if any. O(out-degree).
  [[nodiscard]] std::optional<EdgeId> findEdge(NodeId src, NodeId dst) const;

  /// Mutators for capacities/weights (used by weight-search heuristics).
  /// setCapacity accepts 0, the repo-wide "failed link" encoding: SPF,
  /// ECMP and stronglyConnected() skip zero-capacity edges (src/failure/).
  /// Neither mutator touches adjacency, so CSR views stay valid.
  void setWeight(EdgeId e, double w);
  void setCapacity(EdgeId e, double c);

  /// Sets every live edge's weight to max_capacity / capacity (Cisco
  /// default OSPF weights, scaled so the smallest weight is 1). Failed
  /// (zero-capacity) edges keep their weight: SPF skips them anyway.
  void setInverseCapacityWeights();

  /// Total capacity leaving / entering a node (used by the gravity model).
  [[nodiscard]] double outCapacity(NodeId v) const;
  [[nodiscard]] double inCapacity(NodeId v) const;

  /// All edges as a span-like accessor.
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  /// True if every node can reach every other node along directed edges
  /// with positive capacity (zero-capacity edges model failed links and
  /// are ignored; see src/failure/).
  [[nodiscard]] bool stronglyConnected() const;

 private:
  NodeId checkNode(NodeId v) const {
    require(v >= 0 && v < numNodes(), "node id out of range");
    return v;
  }
  EdgeId checkEdge(EdgeId e) const {
    require(e >= 0 && e < numEdges(), "edge id out of range");
    return e;
  }

  void ensureCsr() const {
    if (csr_epoch_ != mutation_epoch_) rebuildCsr();
  }
  void rebuildCsr() const;

  std::vector<std::string> nodes_;
  std::vector<Edge> edges_;

  // CSR adjacency, derived from edges_. `mutation_epoch_` counts
  // adjacency-changing mutations; the arrays are valid iff
  // csr_epoch_ == mutation_epoch_. Mutable: rebuilt on demand from const
  // accessors (single-threaded by the construction contract above).
  mutable std::vector<std::int32_t> out_off_, in_off_;
  mutable std::vector<EdgeId> out_ids_, in_ids_;
  mutable std::uint64_t csr_epoch_ = 0;
  std::uint64_t mutation_epoch_ = 1;
};

}  // namespace coyote
