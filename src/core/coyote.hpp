// COYOTE's top-level flow-computation pipeline (Fig. 5):
//
//   uncertainty bounds + topology
//        -> per-destination DAG construction        (dag_builder / local_search)
//        -> in-DAG splitting-ratio optimization     (splitting_optimizer)
//        -> [optional] exact cutting-plane rounds   (worst_case slave LP)
//
// The OSPF translation stage ("lies") lives in src/fibbing/.
//
// Two entry points mirror the paper's two variants:
//   * coyoteWithBounds  -- "COYOTE partial knowledge": optimized against the
//     corners of the operator's uncertainty box.
//   * coyoteOblivious   -- "COYOTE oblivious": optimized against a pool
//     standing in for all possible demand matrices.
//
// Both guarantee the result is no worse (on the optimization pool) than
// traditional ECMP, because ECMP's equal splitting over shortest paths is a
// feasible point of the search space (Sec. V-B).
#pragma once

#include <vector>

#include "core/splitting_optimizer.hpp"
#include "lp/lp.hpp"
#include "routing/evaluator.hpp"
#include "tm/uncertainty.hpp"

namespace coyote::core {

struct CoyoteOptions {
  SplittingOptions splitting;
  /// Extra cutting-plane rounds driven by the exact slave-LP oracle
  /// (0 = pool-only; exact separation is practical on small networks).
  int oracle_rounds = 0;
  tm::PoolOptions corner_pool;
  tm::ObliviousPoolOptions oblivious_pool;
  lp::SimplexOptions lp;
  /// Optional warm seed for the splitting optimizer: when non-null and
  /// living over the same DAG set as the optimization pool, the search
  /// starts from this configuration instead of uniform splitting (the
  /// serve daemon's `reoptimize` passes the previous intact config, so a
  /// mild demand drift converges in a few iterations -- pair it with
  /// splitting.patience to actually bank the savings). Not owned; must
  /// outlive the call. Ignored (uniform start) on a DAG-set mismatch.
  const routing::RoutingConfig* warm_init = nullptr;
};

struct CoyoteResult {
  routing::RoutingConfig routing;
  double pool_ratio = 0.0;  ///< PERF over the (final) optimization pool
  int oracle_rounds_used = 0;
  /// Splitting-optimizer iterations the patience early stop skipped,
  /// summed over every optimizeSplitting run (0 when patience is off).
  int splitting_iters_saved = 0;
};

/// Optimizes splitting ratios against an existing evaluator pool; the pool
/// grows if oracle rounds find violating matrices. `box` (may be null) is
/// forwarded to the exact oracle.
[[nodiscard]] CoyoteResult optimizeAgainstPool(
    const Graph& g, routing::PerformanceEvaluator& pool,
    const tm::DemandBounds* box, const CoyoteOptions& opt = {});

/// COYOTE with operator uncertainty bounds (the "partial knowledge" line of
/// Figs. 6-9 / Table I).
[[nodiscard]] CoyoteResult coyoteWithBounds(
    const Graph& g, std::shared_ptr<const DagSet> dags,
    const tm::DemandBounds& box, const CoyoteOptions& opt = {});

/// Fully demands-oblivious COYOTE (the "oblivious" line). `normalized`,
/// when non-null, caches the oblivious pool's normalized matrices across
/// calls over the same graph, DAG set, oblivious_pool and lp options: an
/// empty cache is filled from this call's normalization, and a filled one
/// seeds the optimization pool instead, so no normalization LP runs.
[[nodiscard]] CoyoteResult coyoteOblivious(
    const Graph& g, std::shared_ptr<const DagSet> dags,
    const CoyoteOptions& opt = {},
    std::vector<tm::TrafficMatrix>* normalized = nullptr);

}  // namespace coyote::core
