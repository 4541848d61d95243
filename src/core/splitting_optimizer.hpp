// In-DAG traffic-splitting optimization (Sec. V-C, Appendix C).
//
// Inner problem: given per-destination DAGs and a finite set T of demand
// matrices normalized to OPTU == 1, minimize the worst link utilization
//
//     R(phi) = max over (D in T, edge e) of load_e(phi, D) / c(e).
//
// Every load is a posynomial in phi, so R is convex in the log-variables
// phi~ = log phi (a max of log-sum-exps) -- the geometric-programming
// structure the paper exploits. We solve it with exact reverse-mode
// gradients through the flow propagation (the adjoint recursion
// mu_t(u) = sum over DAG edges e=(u,v) of phi_t(e) * (G(e) + mu_t(v)),
// dObj/dphi_t(u,v) = F_t(u) * (G(e) + mu_t(v))) and two interchangeable
// first-order schemes:
//
//  * kGpCondensation -- the paper's approach: gradient steps on the
//    softmax-smoothed objective in log space, renormalizing each
//    (node,destination) splitting vector after every step. Renormalization
//    is exactly the fixed point of the monomial approximation of the
//    simplex constraint sum(phi) = 1 (Appendix C), iterated per step.
//  * kMirrorDescent -- exponentiated-gradient (multiplicative-weights)
//    updates in phi space, which keep each splitting vector on the simplex
//    by construction.
//
// Both recover the closed-form optimum of the paper's running example
// (golden-ratio splits; Appendix B) -- enforced by unit tests.
//
// Kernel layout. Each call compiles the DAGs once: per destination t, its
// nodes with out-arcs in topological order, CSR offsets into one arc array
// that stores, in Dag::outEdges order, each arc's edge id e and head node
// (ids are checked once, here, not on every inner-loop access); the arc's
// ratio sits at the flat index t*m+e, read through destination t's row.
// Capacities are hoisted into a flat vector. One P x m buffer (P pool
// matrices) holds each matrix's utilizations, then its softmax weights w,
// then the gradient weights G(e) = w / (wsum * c(e)). The call also lists
// the destinations with demand in some pool matrix and, for each, its
// (matrix, column) pairs in ascending matrix order.
//
// Every phase of an iteration runs on the evaluator's thread pool:
//  * forward, per matrix: its link utilizations and their maximum; umax is
//    the maximum of the P row maxima;
//  * softmax, per matrix: the weights w and whether any is positive; wsum
//    is then one serial pass in (matrix, edge) order;
//  * G, per matrix with a positive weight;
//  * backward and update, per destination t: one reverse sweep per matrix
//    with demand to t, in ascending matrix order, into t's own gradient row
//    and mu scratch. Per arc, tail = G(e) + mu(v), then mu(u) += phi * tail
//    and grad += F(u) * tail, since a head's mu is final before its tail is
//    visited. Then the multiplicative update of t's node simplexes (nodes
//    with >= 2 arcs only). A destination without demand has an all-zero
//    gradient, which the update skips, so it is not visited at all.
// Each value is written by one loop index, and every sum accumulates in the
// order of the plain loop kept in tests/splitting_reference.hpp: wsum in
// (matrix, edge) order, where a row without a positive weight adds only
// +0.0 and can be skipped, and each gradient entry in matrix order. So the
// result is bit-identical to that loop at any thread count, which core_test
// asserts at 1, 2 and 8 threads. Per-row partial sums of wsum would change
// its bits. On the dc-fattree benchmark workload (4 threads, 4-vCPU shared
// machine, median of 4 instrumented passes) the optimizer's phases took
// 0.47 s per pass, down from 1.18 s when only the forward pass ran on the
// pool: softmax and wsum 0.39 -> 0.18 s (0.13 s of exps on the pool plus
// the 0.05 s serial wsum pass), backward plus update 0.47 -> 0.15 s, the
// umax scan 0.17 s -> folded into the forward pass, G 0.04 -> 0.03 s,
// forward 0.09 -> 0.08 s.
#pragma once

#include "routing/evaluator.hpp"

namespace coyote::core {

enum class SplitMethod { kGpCondensation, kMirrorDescent };

/// Step size of the multiplicative update (decayed over the run).
inline constexpr double kLearningRate = 0.35;
/// Softmax temperature as a fraction of the current max utilization;
/// annealed linearly to kTemperatureEnd over the run.
inline constexpr double kTemperatureStart = 0.15;
inline constexpr double kTemperatureEnd = 0.003;

struct SplittingOptions {
  SplitMethod method = SplitMethod::kGpCondensation;
  int iterations = 600;
  /// Ratios below this are clamped (and renormalized) at the end; keeps the
  /// configurations implementable with few virtual links.
  double prune_below = 1e-4;
  /// Early stop: break out when the best pool utilization has not improved
  /// for this many consecutive iterations. 0 (the sweep default) runs the
  /// full budget; the serve daemon sets it so a warm-seeded `reoptimize`
  /// converges in a fraction of the budget (the skipped iterations are
  /// reported via the `iterations_used` out-param).
  int patience = 0;
};

/// Optimizes splitting ratios against the evaluator's pool, starting from
/// `init` (commonly RoutingConfig::uniform). Returns the best configuration
/// seen, by exact pool ratio. When `iterations_used` is non-null it receives
/// the number of forward/backward iterations actually executed (less than
/// opt.iterations when patience stopped early).
[[nodiscard]] routing::RoutingConfig optimizeSplitting(
    const Graph& g, const routing::PerformanceEvaluator& pool,
    const routing::RoutingConfig& init, const SplittingOptions& opt = {},
    int* iterations_used = nullptr);

}  // namespace coyote::core
