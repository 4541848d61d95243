#include "core/coyote.hpp"

#include <limits>

#include "routing/ecmp.hpp"
#include "routing/optu.hpp"
#include "routing/worst_case.hpp"

namespace coyote::core {

CoyoteResult optimizeAgainstPool(const Graph& g,
                                 routing::PerformanceEvaluator& pool,
                                 const tm::DemandBounds* box,
                                 const CoyoteOptions& opt) {
  require(pool.size() > 0, "optimization pool is empty");
  const auto dags = pool.dagsPtr();

  // Warm seed (serve `reoptimize`): start the search from the caller's
  // previous configuration when it lives over this pool's DAG set.
  const bool warm = opt.warm_init != nullptr &&
                    opt.warm_init->dagsPtr().get() == dags.get();
  int saved = 0;
  int used = 0;

  // Single-matrix pools admit the exact LP optimum (used at margin 1, where
  // COYOTE-partial-knowledge provably matches the demands-aware optimum).
  routing::RoutingConfig cfg =
      (pool.size() == 1)
          ? routing::optimalRoutingForDemand(g, dags, pool.matrix(0), opt.lp)
                .routing
          : optimizeSplitting(g, pool,
                              warm ? *opt.warm_init
                                   : routing::RoutingConfig::uniform(g, dags),
                              opt.splitting, &used);
  if (pool.size() > 1) saved += opt.splitting.iterations - used;

  CoyoteResult out{cfg, 0.0, 0};
  // The result is never worse than ECMP (Sec. V-B), by exact ratio with
  // oracle rounds and by pool ratio without.
  const routing::RoutingConfig ecmp = routing::ecmpConfig(g, dags);

  // Cutting-plane rounds with the exact slave-LP separation oracle: add the
  // worst-case matrix the oracle finds, re-optimize, and keep the best
  // configuration by *exact* ratio across rounds. One oracle serves every
  // round (and the final ECMP scoring): only the objective depends on the
  // routing, so each round's per-edge LPs warm-start from the previous
  // round's bases, and each addMatrix normalization warm-starts inside the
  // evaluator's OPTU engine -- the rounds append state instead of
  // rebuilding it.
  if (opt.oracle_rounds > 0) {
    // Rounds stop once the exact ratio is within 2% of the pool ratio.
    constexpr double kOracleTolerance = 0.02;
    routing::WorstCaseOracle oracle(g, dags, box, opt.lp);
    double best_exact = std::numeric_limits<double>::infinity();
    for (int round = 0; round < opt.oracle_rounds; ++round) {
      const routing::WorstCaseResult wc = oracle.find(cfg);
      if (wc.ratio < best_exact) {
        best_exact = wc.ratio;
        out.routing = cfg;
      }
      const double pool_ratio = pool.ratioFor(cfg);
      if (wc.ratio <= pool_ratio * (1.0 + kOracleTolerance)) break;
      if (pool.addMatrix(wc.demand) < 0) break;  // duplicate/degenerate
      ++out.oracle_rounds_used;
      cfg = optimizeSplitting(g, pool, cfg, opt.splitting, &used);
      saved += opt.splitting.iterations - used;
    }
    // The last re-optimized config was never scored; score it.
    const double final_exact = oracle.find(cfg).ratio;
    if (final_exact < best_exact) {
      best_exact = final_exact;
      out.routing = cfg;
    }
    if (oracle.find(ecmp).ratio < best_exact) out.routing = ecmp;
    out.pool_ratio = pool.ratioFor(out.routing);
  } else {
    const double ecmp_ratio = pool.ratioFor(ecmp);
    out.pool_ratio = pool.ratioFor(out.routing);
    if (ecmp_ratio < out.pool_ratio) {
      out.routing = ecmp;
      out.pool_ratio = ecmp_ratio;
    }
  }
  out.splitting_iters_saved = saved;
  return out;
}

CoyoteResult coyoteWithBounds(const Graph& g,
                              std::shared_ptr<const DagSet> dags,
                              const tm::DemandBounds& box,
                              const tm::PoolOptions& corners,
                              const CoyoteOptions& opt) {
  routing::PerformanceEvaluator pool(g, std::move(dags), opt.lp);
  pool.addPool(tm::cornerPool(box, corners));
  return optimizeAgainstPool(g, pool, &box, opt);
}

CoyoteResult coyoteOblivious(const Graph& g,
                             std::shared_ptr<const DagSet> dags,
                             const CoyoteOptions& opt,
                             std::vector<tm::TrafficMatrix>* normalized) {
  routing::PerformanceEvaluator pool(g, std::move(dags), opt.lp);
  if (normalized != nullptr && !normalized->empty()) {
    pool.addNormalized(*normalized);
  } else {
    pool.addPool(tm::obliviousPool(g.numNodes(), opt.oblivious_pool));
    if (normalized != nullptr) *normalized = pool.matrices();
  }
  return optimizeAgainstPool(g, pool, /*box=*/nullptr, opt);
}

}  // namespace coyote::core
