// Traffic (demand) matrices and the base-demand models of Sec. VI-B.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace coyote::tm {

/// |V| x |V| demand matrix stored by destination column. Column t holds
/// d(s,t) for every s; it is allocated by the first positive set() into it,
/// and a destination nobody sends to stores nothing. A matrix therefore
/// costs O(|V|) per demanded destination, not O(|V|^2): most pool matrices
/// (the oblivious pool's per-destination matrices, host-aggregated top-k
/// demands) send to one or a few destinations. Entries are finite and
/// >= 0; the diagonal is always zero.
class TrafficMatrix {
 public:
  explicit TrafficMatrix(int num_nodes)
      : n_(num_nodes),
        off_(static_cast<std::size_t>(std::max(num_nodes, 0)), -1) {
    require(num_nodes >= 0, "negative node count");
  }

  [[nodiscard]] int numNodes() const { return n_; }

  [[nodiscard]] double at(NodeId s, NodeId t) const {
    checkIndex(s, t);
    const std::ptrdiff_t o = off_[t];
    return o < 0 ? 0.0 : vals_[o + s];
  }

  /// Throws for a negative or non-finite value or a diagonal entry.
  /// Setting 0.0 into a destination without demand stores nothing.
  void set(NodeId s, NodeId t, double v);

  /// Multiplies every entry by f. Throws, leaving the matrix unchanged,
  /// for a negative or non-finite f or one that would overflow maxEntry().
  void scale(double f);

  /// Sum of all entries in row-major order (bit-identical to summing the
  /// dense matrix: the skipped entries are +0.0).
  [[nodiscard]] double total() const;

  [[nodiscard]] double maxEntry() const;

  /// Column t as numNodes() contiguous values d(s,t), its diagonal entry
  /// 0; nullptr when t's column is not stored.
  [[nodiscard]] const double* column(NodeId t) const {
    checkIndex(t, t);
    const std::ptrdiff_t o = off_[t];
    return o < 0 ? nullptr : vals_.data() + o;
  }

  /// Whether any source sends a positive demand to t; O(1) when t's column
  /// is not stored.
  [[nodiscard]] bool hasDemandTo(NodeId t) const;

  /// (s,t) pairs with positive demand, in row-major order.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> nonZeroPairs() const;

  /// Entrywise: a stored all-zero column equals one never stored.
  friend bool operator==(const TrafficMatrix& a, const TrafficMatrix& b);

 private:
  void checkIndex(NodeId s, NodeId t) const {
    require(s >= 0 && s < n_ && t >= 0 && t < n_, "demand index out of range");
  }
  int n_;
  /// Start of column t in vals_, or -1 when t's column is not stored.
  std::vector<std::ptrdiff_t> off_;
  /// The stored columns, |V| entries each, in allocation order.
  std::vector<double> vals_;
};

/// Gravity model [22]: d(s,t) proportional to outCapacity(s)*outCapacity(t),
/// normalized so the matrix total equals `total`.
[[nodiscard]] TrafficMatrix gravityMatrix(const Graph& g, double total = 1.0);

/// Shaping knobs for the structured-topology gravity matrices (the scaling
/// scenarios, src/exp/). Defaults reproduce gravityMatrix(g, total)
/// bit-identically.
struct GravityOptions {
  /// Keep only the k heaviest demands per source (0 = dense). Ties break
  /// deterministically toward the lower destination id. The surviving
  /// entries are renormalized so the matrix total still equals `total` --
  /// 1000-node rungs would otherwise drown in near-zero demands.
  int top_k = 0;
  /// Restrict endpoints to nodes whose name starts with this prefix
  /// (empty = all nodes). Models host-aggregated demands on fat-trees:
  /// only "edge" switches terminate traffic, mass-weighted as before.
  std::string endpoint_prefix;
};

/// Gravity model with sparsification/endpoint options; see GravityOptions.
[[nodiscard]] TrafficMatrix gravityMatrix(const Graph& g, double total,
                                          const GravityOptions& opt);

struct BimodalParams {
  double large_fraction = 0.2;  ///< fraction of pairs in the "elephant" mode
  double small_mean = 1.0;
  double small_stddev = 0.25;
  double large_mean = 10.0;
  double large_stddev = 2.5;
};

/// Bimodal model [23]: a small fraction of router pairs exchange large
/// (Gaussian) flows, the rest exchange small flows. Values truncated at 0.
/// Deterministic in (g, params, seed); normalized so the total equals
/// `total`.
[[nodiscard]] TrafficMatrix bimodalMatrix(const Graph& g,
                                          const BimodalParams& params,
                                          std::uint64_t seed,
                                          double total = 1.0);

/// Uniform model: every ordered pair exchanges the same demand; the matrix
/// total equals `total`.
[[nodiscard]] TrafficMatrix uniformMatrix(const Graph& g, double total = 1.0);

}  // namespace coyote::tm
