// Demands-aware optimal routing: OPTU(D) (Sec. III).
//
// OPTU(D) = min over per-destination routings of the maximum link
// utilization when routing D. With destination-based routing this is an
// LP over per-destination aggregate flows g_t(e):
//
//     min alpha
//     s.t. for every destination t, node u != t:
//              sum_out g_t - sum_in g_t = d(u,t)          (conservation)
//          for every edge e:  sum_t g_t(e) <= alpha*c(e)  (capacity)
//          g >= 0
//
// The DAG-restricted variant (flow variables only on DAG edges) computes
// the "demands-aware optimum within the same DAGs" that the paper's figures
// normalize by; the unrestricted variant is the formal OPTU over all
// per-destination routings.
//
// A matrix whose demand all goes to one destination t needs no LP: its
// OPTU is the densest cut, max over X subset of V\{t} of d(X) / c(delta+X).
// utilization, utilizationBatch and utilizationAt find it exactly by a
// Newton iteration over Dinic max flows (graph/maxflow.hpp) and build no
// template for it. utilizationWithFlows always solves the LP, because its
// callers consume the LP's optimal flows.
//
// For every other matrix only the conservation right-hand sides depend on
// the demand matrix, so OptuEngine builds the constraint matrix once per
// (graph, DAG-set, active-destination signature) -- one flow block per
// destination (flow_block.hpp) plus the capacity rows -- into a
// never-solved prototype lp::SimplexSolver session, and re-solves across
// pool matrices and margin points by mutating the rhs of a retained copy
// of it: the warm-started basis typically cuts the simplex pivots per
// matrix by several-fold. Batch solves are fanned out over the thread
// pool in fixed-size chunks (each chunk one warm-start chain on its own
// copy), so every result and pivot count is bit-identical for any thread
// count.
//
// The simplex's feasibility tolerance is absolute, so every entry point
// solves a matrix whose largest entry is below 2^-10 on a copy scaled by an
// exact power of two into [1, 2), and scales alpha and the flows back
// (docs/lp-engine.md, "Demand scale").
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "lp/lp.hpp"
#include "routing/config.hpp"
#include "tm/traffic_matrix.hpp"
#include "util/thread_pool.hpp"

namespace coyote::routing {

/// Reusable OPTU solver for one (graph, DAG-set) or (graph, unrestricted).
/// Thread-safe: serial entry points warm-start a retained session under a
/// lock; batch solves clone per-chunk sessions. See file comment.
class OptuEngine {
 public:
  /// DAG-restricted OPTU (the paper's normalization). `dags` must outlive
  /// the engine; pass the shared_ptr to tie the lifetimes.
  OptuEngine(const Graph& g, std::shared_ptr<const DagSet> dags,
             lp::SimplexOptions opt = {});

  /// Unrestricted OPTU over all destination-based routings.
  OptuEngine(const Graph& g, lp::SimplexOptions opt = {});

  ~OptuEngine();

  OptuEngine(const OptuEngine&) = delete;
  OptuEngine& operator=(const OptuEngine&) = delete;

  /// OPTU(d). A single-destination d is solved as a min cut; any other
  /// warm-starts from the previous solve with the same active-destination
  /// signature. Throws std::runtime_error if the LP is not optimal (for a
  /// min cut: if the failed or zero-capacity edges cut a source off),
  /// std::invalid_argument if some source has no usable edge.
  [[nodiscard]] double utilization(const tm::TrafficMatrix& d);

  /// OPTU of every matrix, in order. Independent fixed-size chunks of the
  /// batch run on `tp`, each chunk a warm-start chain on a session clone;
  /// results are identical for any thread count.
  [[nodiscard]] std::vector<double> utilizationBatch(
      const std::vector<tm::TrafficMatrix>& pool, util::ThreadPool& tp);

  /// OPTU(d) for slot `slot` of a pool that is re-evaluated after each
  /// small change (a failure, a demand or margin step). Under the engine
  /// lock, the solve warm-starts from the basis this slot ended with on
  /// its previous solve (one per template), not from the previous solve's:
  /// the matrix at one slot moves a little between calls, while
  /// neighbouring slots differ in every rhs. The caller picks which slots
  /// to solve and in what order (see failure::evaluateFailure).
  ///
  /// When `weights` is non-null it receives, by edge id, the LP's capacity
  /// prices pi_e = max(0, -y_e), y_e the optimal dual of e's capacity row
  /// (0 for an edge without one), ready for OptuDualBound; it is left
  /// empty when d is solved as a min cut. The value, the pivots and the
  /// slot's retained basis do not depend on it.
  [[nodiscard]] double utilizationAt(std::size_t slot,
                                     const tm::TrafficMatrix& d,
                                     std::vector<double>* weights = nullptr);

  /// OPTU(d) plus the optimal aggregate flows: flows[t] maps EdgeId to the
  /// flow toward t (empty vector for inactive destinations).
  [[nodiscard]] std::pair<double, std::vector<std::vector<double>>>
  utilizationWithFlows(const tm::TrafficMatrix& d);

  /// Switches the engine to a post-failure network: flow variables on the
  /// given (directed) edges are pinned to zero by bounds mutations in every
  /// cached and future template -- the retained sessions keep their bases,
  /// so the per-failure re-solves warm-start instead of rebuilding the
  /// constraint matrix. Passing {} restores the intact network. Callers
  /// must ensure the surviving network still routes their demands (an
  /// unroutable demand makes utilization() throw std::runtime_error, the
  /// "LP not optimal: infeasible" case); see failure::disconnectedPairs.
  void setFailedEdges(const std::vector<EdgeId>& edges);

  [[nodiscard]] const Graph& graph() const { return g_; }

  /// Matrices per warm-start chain in utilizationBatch. Fixed (not derived
  /// from the thread count) so results never depend on parallelism.
  static constexpr int kBatchChunk = 8;

  /// Destination blocks per decomposition task. Fixed like kBatchChunk so
  /// the block fan-out (and therefore the crossover seed) is bit-identical
  /// for any thread count.
  static constexpr int kBlockChunk = 4;

  /// Deterministic price-update rounds of the decomposition pre-solve.
  static constexpr int kDecompRounds = 2;

  /// Templates below this row count skip the decomposition pre-solve: the
  /// block/crossover bookkeeping costs more than a cold monolithic solve.
  static constexpr int kDecompMinRows = 64;

 private:
  struct Template;  // constraint matrix + var/row maps for one signature

  /// The edges a template gives destination `dest` flow variables on, in
  /// id order: dest's DAG, or (unrestricted) every edge not leaving dest.
  [[nodiscard]] std::vector<EdgeId> flowEdges(NodeId dest) const;
  [[nodiscard]] std::vector<char> activeSignature(
      const tm::TrafficMatrix& d) const;
  /// Returns the cached template for the signature, building it on demand.
  Template& templateFor(const std::vector<char>& active);
  /// templateFor plus the serial session prepared for d: seeded from the
  /// decomposition on the template's first solve, rhs pointed at d.
  /// Caller holds mutex_.
  Template& serialFor(const std::vector<char>& active,
                      const tm::TrafficMatrix& d);
  /// Moves a template from the `previous` failed-edge mask to the current
  /// one (prototype, and the serial session once built).
  void applyFailures(Template& t, const std::vector<char>& previous) const;
  /// Points the session's conservation rhs at d (validates routability).
  void applyDemand(lp::SimplexSolver& solver, const Template& t,
                   const tm::TrafficMatrix& d) const;
  /// Solves and returns alpha; fills `weights` as utilizationAt documents
  /// when non-null.
  [[nodiscard]] static double solveAlpha(lp::SimplexSolver& solver,
                                         const Template& t,
                                         std::vector<double>* weights =
                                             nullptr);
  /// OPTU of a matrix whose only active destination is `dest`, by the
  /// parametric min cut (see optu.cpp). Reads failed_: caller holds mutex_
  /// or runs inside utilizationBatch.
  [[nodiscard]] double singleSinkUtilization(NodeId dest,
                                             const tm::TrafficMatrix& d) const;
  /// Block-decomposition pre-solve: per-destination min-cost-flow blocks
  /// under capacity prices, iterated kDecompRounds times with a
  /// deterministic multiplicative price update, then crossed over into a
  /// primal-feasible basis of the full problem (see optu.cpp). Returns {}
  /// when the decomposition is not worthwhile or a block failed. Blocks
  /// run on `tp` in kBlockChunk chunks when non-null, serially otherwise.
  /// Caller holds mutex_.
  [[nodiscard]] lp::Basis decomposeSeed(const Template& t,
                                        const tm::TrafficMatrix& d,
                                        util::ThreadPool* tp) const;
  /// Computes (once per template) and returns the stored crossover seed.
  /// Caller holds mutex_.
  const lp::Basis& ensureSeed(Template& t, const tm::TrafficMatrix& d,
                              util::ThreadPool* tp);

  const Graph& g_;
  std::shared_ptr<const DagSet> dags_;  ///< null for unrestricted mode
  lp::SimplexOptions opt_;
  std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Template>> cache_;
  /// Per-edge failed mask (empty = intact network); see setFailedEdges.
  std::vector<char> failed_;
};

/// Weak-duality lower bound on the unrestricted OPTU over g (Theorem 5 of
/// the technical report, Appendix C). Under edge weights pi >= 0, every
/// unit of (s,t) demand crosses at least dist_pi(s,t) of weight, and a
/// routing at utilization alpha puts at most alpha*c_e on edge e, so
///
///     OPTU(d) >= sum d(s,t)*dist_pi(s,t) / sum_e pi_e*c_e
///
/// for *any* pi >= 0 -- nothing about pi's origin needs trusting. With an
/// optimal LP's capacity prices (OptuEngine::utilizationAt) the bound is
/// tight for that LP's own matrix. Distances run over edges with capacity
/// > 0, as SPF does, so a degraded graph (failed links at capacity 0)
/// bounds the post-failure optimum. A pair g cannot connect contributes 0,
/// and the bound is 0 when sum pi*c is.
class OptuDualBound {
 public:
  /// `pi` by edge id, >= 0. Runs one reverse Dijkstra per node.
  OptuDualBound(const Graph& g, const std::vector<double>& pi);

  /// The bound for matrix d (d must match g's node count).
  [[nodiscard]] double of(const tm::TrafficMatrix& d) const;

 private:
  int n_ = 0;
  std::vector<double> dist_;  ///< [t*n+s] dist_pi(s,t), infinity if cut off
  double budget_ = 0.0;       ///< sum_e pi_e * c_e over usable edges
};

/// OPTU restricted to the DAG set. Throws std::runtime_error if some demand
/// cannot be routed inside its DAG at any utilization (disconnected DAG).
[[nodiscard]] double optimalUtilization(const Graph& g, const DagSet& dags,
                                        const tm::TrafficMatrix& d,
                                        const lp::SimplexOptions& opt = {});

/// OPTU over all destination-based routings (no DAG restriction).
[[nodiscard]] double optimalUtilizationUnrestricted(
    const Graph& g, const tm::TrafficMatrix& d,
    const lp::SimplexOptions& opt = {});

struct OptimalRouting {
  double utilization = 0.0;
  RoutingConfig routing;
};

/// OPTU within the DAGs plus the splitting ratios realizing it, derived from
/// the optimal aggregate flows (phi_t(u,e) = g_t(e) / sum of g_t out of u).
/// Nodes off the flow's support fall back to equal splitting -- the derived
/// routing is exact for `d` and merely well-defined elsewhere. This is the
/// paper's "Base" scheme: the demands-aware optimum for the base matrix.
[[nodiscard]] OptimalRouting optimalRoutingForDemand(
    const Graph& g, std::shared_ptr<const DagSet> dags,
    const tm::TrafficMatrix& d, const lp::SimplexOptions& opt = {});

}  // namespace coyote::routing
