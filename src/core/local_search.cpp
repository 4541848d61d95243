#include "core/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>

#include "routing/ecmp.hpp"
#include "routing/optu.hpp"
#include "routing/propagation.hpp"

namespace coyote::core {
namespace {

/// The corner pool each round's critical matrix is picked from.
constexpr tm::PoolOptions kPool{};
/// Seed of the move-order shuffle.
constexpr std::uint64_t kSeed = 11;

/// Integral inverse-capacity starting weights (Cisco default, scaled).
std::vector<double> initialWeights(const Graph& g) {
  double max_cap = 0.0;
  for (const Edge& e : g.edges()) max_cap = std::max(max_cap, e.capacity);
  std::vector<double> w(g.numEdges(), 1.0);
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    w[e] = std::max(1.0, std::round(max_cap / g.edge(e).capacity));
  }
  return w;
}

/// ECMP routing for the given weights.
routing::RoutingConfig ecmpFor(const Graph& base,
                               const std::vector<double>& weights,
                               Graph& scratch) {
  scratch = base;
  for (EdgeId e = 0; e < scratch.numEdges(); ++e) {
    scratch.setWeight(e, weights[e]);
  }
  return routing::shortestPathEcmp(scratch);
}

/// Max normalized utilization of ECMP(weights) over a set of matrices that
/// are already normalized to unrestricted OPTU == 1.
double evalWeights(const Graph& base, const std::vector<double>& weights,
                   const std::vector<tm::TrafficMatrix>& matrices) {
  Graph scratch;
  const routing::RoutingConfig ecmp = ecmpFor(base, weights, scratch);
  double worst = 0.0;
  for (const auto& d : matrices) {
    worst = std::max(worst, routing::maxLinkUtilization(scratch, ecmp, d));
  }
  return worst;
}

}  // namespace

LocalSearchResult localSearchWeights(const Graph& g,
                                     const tm::DemandBounds& box,
                                     const LocalSearchOptions& opt) {
  require(opt.max_rounds >= 1, "need at least one round");

  LocalSearchResult out;
  out.weights = initialWeights(g);
  const std::vector<double> initial = out.weights;

  // Candidate worst-case matrices, normalized once to unrestricted
  // OPTU == 1 (the normalization is weight-independent, unlike the
  // DAG-restricted one, so it stays comparable as the weights move).
  std::vector<tm::TrafficMatrix> pool;
  for (const auto& d : tm::cornerPool(box, kPool)) {
    const double optu = routing::optimalUtilizationUnrestricted(g, d);
    if (!(optu > 0.0)) continue;
    tm::TrafficMatrix scaled = d;
    scaled.scale(1.0 / optu);
    pool.push_back(std::move(scaled));
  }
  if (pool.empty()) {
    out.utilization = 0.0;  // degenerate (all-zero) box
    return out;
  }

  // Critical set T of Algorithm 1, grown one worst-case matrix per round.
  std::vector<tm::TrafficMatrix> critical;
  std::vector<char> in_critical(pool.size(), 0);

  Graph scratch;
  std::mt19937_64 rng(kSeed);
  for (int round = 0; round < opt.max_rounds; ++round) {
    ++out.rounds;

    // WORSTCASEDM (Alg. 1 line 7) for the current ECMP routing: the
    // pool matrix it loads most that is not yet in T.
    const routing::RoutingConfig ecmp = ecmpFor(g, out.weights, scratch);
    int worst_idx = -1;
    double worst = -1.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (in_critical[i]) continue;
      const double u = routing::maxLinkUtilization(scratch, ecmp, pool[i]);
      if (u > worst) {
        worst = u;
        worst_idx = static_cast<int>(i);
      }
    }
    if (worst_idx >= 0) {
      in_critical[worst_idx] = 1;
      critical.push_back(pool[worst_idx]);
    }
    if (critical.empty()) break;

    out.utilization = evalWeights(g, out.weights, critical);
    constexpr double kTargetBound = 1.05;  // Alg. 1's B
    if (out.utilization <= kTargetBound) break;  // Alg. 1 line 9

    // FORTZTHORUP (Alg. 1 line 10): first-improvement single-weight moves.
    int moves = 0;
    bool improved_any = true;
    while (moves < opt.max_moves_per_round && improved_any) {
      improved_any = false;
      std::vector<EdgeId> order(g.numEdges());
      for (EdgeId e = 0; e < g.numEdges(); ++e) order[e] = e;
      std::shuffle(order.begin(), order.end(), rng);
      for (const EdgeId e : order) {
        const double w0 = out.weights[e];
        const double candidates[] = {w0 + 1.0, w0 - 1.0, w0 * 2.0,
                                     std::round(w0 / 2.0), 1.0,
                                     static_cast<double>(kMaxWeight)};
        double best_w = w0;
        double best_u = out.utilization;
        for (const double wc : candidates) {
          const double w =
              std::clamp(wc, 1.0, static_cast<double>(kMaxWeight));
          if (w == w0) continue;
          out.weights[e] = w;
          const double u = evalWeights(g, out.weights, critical);
          if (u < best_u - 1e-9) {
            best_u = u;
            best_w = w;
          }
        }
        out.weights[e] = best_w;
        if (best_w != w0) {
          out.utilization = best_u;
          improved_any = true;
          ++out.accepted_moves;
          if (++moves >= opt.max_moves_per_round) break;
        }
      }
    }
  }

  // Guard: the heuristic optimizes over its critical set; never hand back
  // weights that are worse than the starting point over the full pool.
  const double tuned_full = evalWeights(g, out.weights, pool);
  const double initial_full = evalWeights(g, initial, pool);
  if (initial_full < tuned_full) {
    out.weights = initial;
    out.utilization = initial_full;
  } else {
    out.utilization = tuned_full;
  }
  return out;
}

}  // namespace coyote::core
