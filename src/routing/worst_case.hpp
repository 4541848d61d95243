// Exact worst-case-demand oracle (the "slave LP" of Sec. IV / Appendix C).
//
// Given a fixed routing phi, the demand matrix maximizing the utilization of
// an edge e -- among all matrices routable within the capacities of the
// per-destination DAGs (i.e., OPTU <= 1 after rescaling) and, optionally,
// inside the scaled uncertainty box  lambda*dmin <= d <= lambda*dmax -- is
// found by one LP per edge:
//
//     max  sum_st l_st(e) * d(s,t) / c(e)
//     s.t. g_t routes d inside the DAGs           (conservation, equality)
//          sum_t g_t(a) <= c(a)   for every a     (capacity)
//          lambda*dmin <= d <= lambda*dmax        (box case only)
//          d, g, lambda >= 0
//
// where l_st(e) = f_st(u) * phi_t(e) is the fraction of the (s,t) demand
// that phi places on e. The max over all edges is the exact performance
// ratio PERF(phi, D) relative to the in-DAG optimum.
//
// Only the objective depends on the target edge (and, through l, on the
// routing phi): WorstCaseOracle builds the constraint matrix once per
// (graph, DAGs, box) into a never-solved prototype session and scans the
// edges as warm-start chains on retained copies of it -- one per
// fixed-size edge chunk, so
// the thread-pool fan-out is deterministic for any thread count. The same
// oracle instance serves every cutting-plane round of COYOTE's optimizer
// (each round is one more objective sweep, not a rebuild).
//
// The one-shot findWorstCaseDemand instead runs a serial bound-and-prune
// scan (Theorem 5 / Appendix C of the technical report): the capacity-row
// duals pi >= 0 of any solved edge bound *every* edge's LP by weak
// duality, so util::boundAndPrune (util/prune.hpp, the rule the
// post-failure ruler shares) solves edges in decreasing-bound order and
// skips every edge whose bound cannot beat the best ratio found. The same
// scan, run by certifyObliviousRatio / certifyBoxRatio, turns the weights
// it collected into a Theorem-5 certificate per edge that
// dual_certificate.hpp checks without the solver. See docs/lp-engine.md,
// "Pruned worst-case scan".
//
// Exact evaluation is practical for small/medium networks and is used by
// tests, ablations and Table I's exact rows; the figure benches default to
// the corner-pool evaluator (see evaluator.hpp).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "lp/lp.hpp"
#include "routing/config.hpp"
#include "routing/dual_certificate.hpp"
#include "tm/uncertainty.hpp"

namespace coyote::routing {

struct WorstCaseResult {
  tm::TrafficMatrix demand;       ///< worst-case matrix (OPTU <= 1 scale)
  double ratio = 0.0;             ///< = MxLU(phi, demand) = performance ratio
  EdgeId edge = kInvalidEdge;     ///< the edge attaining it
};

/// Reusable slave-LP solver for one (graph, DAG-set, box). find() may be
/// called repeatedly with different routings (the cutting-plane loop);
/// sessions and bases are retained across calls. Not thread-safe for
/// concurrent calls on one instance (find() itself fans out internally).
class WorstCaseOracle {
 public:
  /// `dags` and `box` (nullable: the oblivious case) must outlive the
  /// oracle; the box is identified by reference across calls.
  WorstCaseOracle(const Graph& g, std::shared_ptr<const DagSet> dags,
                  const tm::DemandBounds* box,
                  const lp::SimplexOptions& opt = {});
  ~WorstCaseOracle();

  WorstCaseOracle(const WorstCaseOracle&) = delete;
  WorstCaseOracle& operator=(const WorstCaseOracle&) = delete;

  /// Worst case over all edges for `cfg` (which must use the oracle's DAG
  /// set). Every loaded edge's LP runs, on the shared thread pool in
  /// fixed-size warm chunks; the winner (lowest edge id on ties) is re-solved from
  /// its stored optimal basis for its demand matrix. Its ratio equals the
  /// maximum of findWorstCaseDemandForEdge over the edges; the demand may
  /// be a different optimal vertex. Throws std::runtime_error if a slave
  /// LP ends non-optimal (e.g. at the iteration limit).
  ///
  /// find() does not prune with dual bounds as findWorstCaseDemand does:
  /// COYOTE-pk's cutting planes consume its witness vertex, and pruning
  /// changes which optimal vertex wins, which moves the optimizer's
  /// results. It moves to the pruned scan once slave-LP optima are
  /// canonical (ROADMAP item 2).
  [[nodiscard]] WorstCaseResult find(const RoutingConfig& cfg);

  /// Worst case for a single edge. Throws std::runtime_error if its LP
  /// ends non-optimal.
  [[nodiscard]] WorstCaseResult findForEdge(const RoutingConfig& cfg,
                                            EdgeId edge);

  /// Edges per warm-start chain in find(). Fixed (not derived from the
  /// thread count) so results never depend on parallelism.
  static constexpr int kEdgeChunk = 8;

 private:
  friend struct PrunedScan;  // the one-shot entry points below
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Worst case over all demand matrices (box == nullptr, the oblivious case)
/// or over the scaled uncertainty box. One-shot: a serial bound-and-prune
/// scan (util::boundAndPrune) on one solver session. It solves the edge
/// with the largest dual bound next, tightens every unsolved edge's bound
/// with the new duals, and skips the edges whose bound cannot beat the
/// best ratio. The ratio equals the
/// maximum of findWorstCaseDemandForEdge over the edges; ties go to the
/// lowest edge id among the solved edges. Throws std::runtime_error if a
/// slave LP ends non-optimal. Callers with repeated queries should hold an
/// oracle.
[[nodiscard]] WorstCaseResult findWorstCaseDemand(
    const Graph& g, const RoutingConfig& cfg,
    const tm::DemandBounds* box = nullptr, const lp::SimplexOptions& opt = {});

/// Theorem-5 certificate (dual_certificate.hpp) of
/// findWorstCaseDemand(g, cfg).ratio, which cert.ratio equals bit for bit:
/// the same scan and LPs, with a solved edge certified by its own duals
/// and a pruned edge by the weights that pruned it.
[[nodiscard]] ObliviousCertificate certifyObliviousRatio(
    const Graph& g, const RoutingConfig& cfg,
    const lp::SimplexOptions& opt = {});

/// The box counterpart of certifyObliviousRatio: certifies
/// findWorstCaseDemand(g, cfg, &box).ratio.
[[nodiscard]] BoxCertificate certifyBoxRatio(
    const Graph& g, const RoutingConfig& cfg, const tm::DemandBounds& box,
    const lp::SimplexOptions& opt = {});

/// Worst case for a single edge (exposed for tests and incremental use).
[[nodiscard]] WorstCaseResult findWorstCaseDemandForEdge(
    const Graph& g, const RoutingConfig& cfg, EdgeId edge,
    const tm::DemandBounds* box = nullptr, const lp::SimplexOptions& opt = {});

}  // namespace coyote::routing
