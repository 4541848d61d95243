// The local-search DAG-generation heuristic (Sec. V-B, Appendix A, Alg. 1).
//
// Maintains a set T of "critical" demand matrices. Each round: build the
// shortest-path DAGs for the current weights, pick the corner of a fixed
// demand pool that ECMP over those DAGs loads most, add it to T, and --
// unless utilization is already below the target bound -- apply
// Fortz-Thorup-style single-weight moves that reduce the *maximum* (not
// Phi-scaled average; see the paper's adaptation notes (i)-(iii))
// normalized link utilization over T.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "tm/uncertainty.hpp"

namespace coyote::core {

/// OSPF weights stay integral in [1, kMaxWeight].
inline constexpr int kMaxWeight = 64;

struct LocalSearchOptions {
  int max_rounds = 4;           ///< outer iterations of Algorithm 1
  int max_moves_per_round = 24; ///< accepted single-weight moves per round
};

struct LocalSearchResult {
  std::vector<double> weights;  ///< per-edge weights (indexed by EdgeId)
  double utilization = 0.0;     ///< final normalized worst-case utilization
  int rounds = 0;
  int accepted_moves = 0;
};

/// Runs the heuristic for ECMP routing under the demand uncertainty `box`
/// and returns improved integral link weights. The input graph is not
/// modified; apply the weights with Graph::setWeight before building DAGs.
[[nodiscard]] LocalSearchResult localSearchWeights(
    const Graph& g, const tm::DemandBounds& box,
    const LocalSearchOptions& opt = {});

}  // namespace coyote::core
