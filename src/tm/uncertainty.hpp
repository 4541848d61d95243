// Operator "uncertainty bounds" (Sec. III): for every pair (s,t) the actual
// demand may be anywhere in [dmin(s,t), dmax(s,t)]. The paper's experiments
// use multiplicative margins around a base matrix: [d/x, d*x].
//
// This header also builds the finite demand-matrix pools COYOTE optimizes
// and is evaluated against: the corners of the uncertainty box (which are
// the only candidates for worst-case behaviour of the *linear* load
// functions once splitting ratios are fixed) plus structured single-hotspot
// matrices, and -- for the fully oblivious case -- destination-concentrated
// and sparse random matrices standing in for "all possible demands".
#pragma once

#include <cstdint>
#include <vector>

#include "tm/traffic_matrix.hpp"

namespace coyote::tm {

/// Box of admissible demand matrices: lo.at(s,t) <= d(s,t) <= hi.at(s,t).
struct DemandBounds {
  TrafficMatrix lo;
  TrafficMatrix hi;

  DemandBounds(TrafficMatrix lo_in, TrafficMatrix hi_in);

  [[nodiscard]] int numNodes() const { return lo.numNodes(); }
  [[nodiscard]] bool contains(const TrafficMatrix& d, double tol = 1e-9) const;
};

/// The paper's margin-x box around `base`: [base/x, base*x] entrywise.
/// margin >= 1.
[[nodiscard]] DemandBounds marginBounds(const TrafficMatrix& base,
                                        double margin);

struct PoolOptions {
  /// Structured corners: per-destination hotspot (column at hi, rest at lo)
  /// and per-source hotspot (row at hi, rest at lo).
  bool destination_hotspots = true;
  bool source_hotspots = true;
  /// Number of random hi/lo corner matrices.
  int random_corners = 8;
  /// Single-pair spikes: the top-k (by upper bound) pairs get a matrix with
  /// just that pair at hi and everything else at lo. These corners have the
  /// largest relative imbalance in the box and are the classic adversaries
  /// for routings overfitted to the base matrix (the paper's "Base" line).
  int pair_hotspots = 8;
  /// Cap on hotspot corners per kind (0 = one per node). When capped, the
  /// nodes with the largest aggregate upper-bound demand are kept --
  /// controls the number of normalization LPs on large networks.
  int max_hotspots = 0;
  std::uint64_t seed = 1;

  friend bool operator==(const PoolOptions&, const PoolOptions&) = default;
};

/// Finite pool of candidate worst-case matrices inside the box: the all-hi
/// corner, hotspot corners and random corners. All entries are corner values
/// (lo or hi); interior matrices are dominated for the max-utilization
/// objective, so corners suffice as a search pool.
[[nodiscard]] std::vector<TrafficMatrix> cornerPool(const DemandBounds& box,
                                                    const PoolOptions& opt = {});

struct ObliviousPoolOptions {
  /// Per-destination matrices: every source sends 1 unit to t.
  bool destination_concentrated = true;
  /// Per-source matrices: s sends 1 unit to every destination.
  bool source_concentrated = true;
  /// The uniform all-pairs matrix.
  bool uniform = true;
  /// Number of random sparse matrices (few active pairs).
  int random_sparse = 12;
  int sparse_active_pairs = 3;
  std::uint64_t seed = 7;
};

/// Pool standing in for "all possible demand matrices" (the oblivious case):
/// destination-concentrated matrices plus sparse random matrices, which are
/// the classical worst cases for static routing. Entries are >= 0 with no
/// upper bound semantics; callers normalize by OPTU.
[[nodiscard]] std::vector<TrafficMatrix> obliviousPool(
    int num_nodes, const ObliviousPoolOptions& opt = {});

}  // namespace coyote::tm
