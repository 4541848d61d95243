// Scheme evaluation over a set of failure scenarios, generic over a
// te::Scheme list (default: the paper's four, from
// te::SchemeRegistry::builtin()).
//
// For each failure the surviving network is derived (degrade.hpp) and each
// scheme reacts the way its te::FailureReaction says it would in
// deployment: kReconverge schemes re-run OSPF SPF on the survivors
// (Scheme::reconverge, over the scheme's substrate weights), kRepairDags
// schemes repair their precomputed DAGs locally. Each scheme's
// post-failure performance ratio is
//
//     max over the corner pool D of  MxLU(repaired cfg, D) / OPTU_f(D)
//
// where OPTU_f is the *unrestricted* demands-aware optimum on the
// surviving network -- the common ruler all schemes (whose DAG sets
// now differ) are measured against. Note this is a stricter normalization
// than the intact sweeps' within-DAG optimum, so post-failure ratios are
// not directly comparable to the intact rows of the same scenario.
//
// OPTU_f re-solves ride routing::OptuEngine::setFailedEdges: a failure is
// a bounds mutation on a retained simplex session, not an LP rebuild, and
// OptuEngine::utilizationAt re-solves a pool slot from the basis it ended
// with the last time that slot was solved, so sweeping hundreds of failure
// variants reuses warm bases (the pivot-count payoff is surfaced in the
// BENCH lp_* telemetry). Failures are fanned out over util::ThreadPool in
// fixed-size chunks -- each chunk one engine with its own warm chain -- so
// results are bit-identical for any COYOTE_THREADS.
//
// Bound and prune (evaluateFailure, on util::boundAndPrune, the driver
// the pruned worst-case scan shares). Only the maximum over the pool is
// reported, so most slots' OPTU_f LPs cannot change the answer. Each slot j
// gets a lower bound L_j on OPTU_f: the larger of its floor (below) and
// nodeCutBound, shrunk by util::kPruneSlack (1e-9, relative) so round-off
// in a bound can never prune the true maximizer. MxLU_s(j) / L_j then
// bounds scheme s's ratio at slot j from above. Slots are visited by max_s
// of that initial bound, largest first (ties by slot index), and a slot's
// LP runs only if its bound beats the best ratio found so far for some
// routable scheme. A skipped slot's true ratio is at most the running
// best, so the maximum is unchanged, and every reported ratio still comes
// from an LP optimum.
//
// Dual bounds. Every slot solved by the LP also exports its capacity
// prices pi (OptuEngine::utilizationAt), and by weak duality
// routing::OptuDualBound(degraded, pi) bounds the OPTU_f of *every* slot
// from below -- for any pi >= 0, so nothing about the LP needs trusting.
// After each such solve, every unsolved slot's bound (so L_j, with the
// same slack) is raised to it. The visiting order stays the initial one;
// the raised bounds only make later slots' tests stricter.
//
// The floor rule. An evaluation returns, per slot, the bound it ended
// with (the exact OPTU_f wherever the slot was solved). Failing more links
// only raises OPTU, so those bounds are a floor for any later evaluation
// on the same pool whose failed set contains this one's. FailureEvaluator
// solves the intact pool once at construction and passes it as every
// failure's floor. No prices are kept between evaluations.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/coyote.hpp"
#include "failure/degrade.hpp"
#include "failure/scenario.hpp"
#include "routing/config.hpp"
#include "routing/optu.hpp"
#include "scheme/registry.hpp"
#include "tm/uncertainty.hpp"
#include "util/thread_pool.hpp"

namespace coyote::failure {

struct FailureEvalOptions {
  /// Uncertainty margin of the evaluation box around the base matrix.
  double margin = 2.0;
  /// Corner-pool shape for the post-failure adversary (smaller than the
  /// intact sweeps' default: every matrix costs one OPTU LP per failure).
  tm::PoolOptions pool;
  /// Optimizer options for the intact COYOTE schemes.
  core::CoyoteOptions coyote;
  /// 0 = the process-wide util::ThreadPool; otherwise a private pool of
  /// exactly that many threads. Results are identical either way.
  unsigned threads = 0;
  /// Schemes to sweep, in row order; empty selects
  /// te::SchemeRegistry::builtin().defaults() (the paper's four).
  std::vector<const te::Scheme*> schemes;

  FailureEvalOptions() {
    pool.source_hotspots = false;
    pool.max_hotspots = 8;
    pool.random_corners = 4;
    pool.pair_hotspots = 4;
    pool.seed = 1;
    coyote.splitting.iterations = 300;
  }
};

/// One failure scenario's verdict. The per-scheme vectors are parallel to
/// the evaluator's scheme list (IntactSchemes::options().schemes).
struct FailureOutcome {
  std::string label;
  /// (s,t) pairs with base demand the surviving *graph* cannot connect.
  /// Positive means no scheme can serve the demand: the scenario is
  /// reported but not ratio-evaluated.
  int disconnected_pairs = 0;
  bool evaluated = false;
  /// Post-failure performance ratio per scheme; valid when routable.
  std::vector<double> ratio;
  /// False when the scheme's repaired DAGs strand a demanded node even
  /// though the graph stays connected (kRepairDags schemes only; a
  /// reconverged scheme is always routable on a connected graph).
  std::vector<char> routable;
  /// Per pool slot, the OPTU_f lower bound the ruler ended with: the exact
  /// OPTU_f where the slot was solved (see the floor rule above). Empty
  /// when not evaluated.
  std::vector<double> bound;
  int slots_solved = 0;   ///< pool slots whose OPTU_f LP ran
  int slots_skipped = 0;  ///< pool slots their bound pruned
};

/// Distribution summary of one scheme's ratios over evaluated failures.
struct SchemeFailureStats {
  double worst = 0.0;
  double median = 0.0;
  double p95 = 0.0;       ///< nearest-rank 95th percentile
  int evaluated = 0;      ///< failures contributing to the stats
  int unroutable = 0;     ///< failures this scheme could not serve
};

struct FailureSweepResult {
  std::vector<FailureOutcome> outcomes;  ///< one per input scenario, in order
  int evaluated = 0;
  int disconnecting = 0;
  int disconnected_pairs = 0;  ///< summed over disconnecting scenarios
  /// Per-scheme stats, keyed by scheme key, in the evaluator's scheme
  /// order (the registry keys replace the old fixed Scheme enum).
  std::vector<std::pair<std::string, SchemeFailureStats>> schemes;
  int slots_solved = 0;   ///< ruler LPs run, summed over evaluated failures
  int slots_skipped = 0;  ///< ruler LPs pruned by their bound
};

/// Lower bound on the unrestricted OPTU of d over g (failed links at
/// capacity 0): the largest, over nodes u, of the demand leaving u over
/// u's out-capacity and of the demand entering u over u's in-capacity.
/// Nodes without capacity in that direction contribute nothing; 0 for a
/// zero matrix.
[[nodiscard]] double nodeCutBound(const Graph& g, const tm::TrafficMatrix& d);

/// What post-failure evaluations hold fixed across failed sets: the
/// intact network and base demand, the schemes with their intact configs,
/// and the uncertainty box with its raw corner pool (the matrices the
/// ruler maximizes over). FailureEvaluator and serve::TeService share it.
///
/// kReconverge schemes keep no intact config (their post-failure routing
/// comes from the degraded graph alone). The oblivious pool depends on
/// neither box nor warm seed, so the first compute() that needs it keeps
/// its normalized matrices (SchemeContext::oblivious_pool) for every later
/// one. Nothing else is kept: no evaluator, no OPTU engine, no corner-pool
/// normalization (serve moves the box on every demand and margin event).
class IntactSchemes {
 public:
  /// Resolves the scheme list (empty: the registry defaults) and builds the
  /// box and corner pool; no config exists until compute(). Requires
  /// coyote.oracle_rounds == 0: cutting-plane rounds would grow a
  /// cache-seeded pool, so cached and fresh runs could differ.
  IntactSchemes(const Graph& g, std::shared_ptr<const DagSet> dags,
                tm::TrafficMatrix base, FailureEvalOptions opt);

  /// (Re)computes every intact config from the current base matrix and
  /// box; with `warm`, each optimizer run starts from the scheme's previous
  /// config (coyote.warm_init). Returns the splitting iterations the
  /// patience early stop saved.
  int compute(bool warm);
  /// Moves the box to `margin` around `base` and rebuilds the corner pool;
  /// the configs stay until the next compute(). Strong exception
  /// guarantee: if the new box or pool throws, nothing changes.
  void moveBox(tm::TrafficMatrix base, double margin);

  [[nodiscard]] const Graph& graph() const { return g_; }
  [[nodiscard]] const DagSet& dags() const { return *dags_; }
  [[nodiscard]] const tm::TrafficMatrix& base() const { return base_; }
  /// With the resolved scheme list and the current margin.
  [[nodiscard]] const FailureEvalOptions& options() const { return opt_; }
  /// Parallel to options().schemes; disengaged for kReconverge schemes.
  [[nodiscard]] const std::vector<std::optional<routing::RoutingConfig>>&
  configs() const {
    return configs_;
  }
  /// The config of the scheme with this registry key; throws
  /// std::invalid_argument for a key outside the list or a kReconverge
  /// scheme.
  [[nodiscard]] const routing::RoutingConfig& intactRouting(
      const std::string& key) const;
  [[nodiscard]] const std::vector<tm::TrafficMatrix>& pool() const {
    return pool_;
  }
  /// util::ThreadPool::global(), or a private pool of options().threads.
  [[nodiscard]] util::ThreadPool& threadPool() const {
    return own_pool_ ? *own_pool_ : util::ThreadPool::global();
  }

 private:
  const Graph& g_;
  std::shared_ptr<const DagSet> dags_;
  tm::TrafficMatrix base_;
  FailureEvalOptions opt_;
  tm::DemandBounds box_;
  std::vector<tm::TrafficMatrix> pool_;
  std::vector<std::optional<routing::RoutingConfig>> configs_;
  std::vector<tm::TrafficMatrix> oblivious_pool_;  ///< empty until needed
  std::unique_ptr<util::ThreadPool> own_pool_;
};

/// Evaluates the schemes with f's links failed: derives the surviving
/// network, lets each scheme react per its te::FailureReaction, and bounds
/// and prunes the ruler (file comment). `floor` is empty or holds one OPTU
/// lower bound per pool slot from an earlier evaluation on the same pool
/// whose failed set f's contains. `engine` is an unrestricted OptuEngine
/// over intact.graph(); it is switched to f's failed set here.
[[nodiscard]] FailureOutcome evaluateFailure(const IntactSchemes& intact,
                                             const FailureScenario& f,
                                             const std::vector<double>& floor,
                                             routing::OptuEngine& engine);

/// Computes the intact schemes once, then sweeps failure sets against
/// them. One evaluator may run several sweeps (e.g. -fail1 and -srlg).
class FailureEvaluator {
 public:
  FailureEvaluator(const Graph& g, std::shared_ptr<const DagSet> dags,
                   const tm::TrafficMatrix& base_tm, FailureEvalOptions opt);

  [[nodiscard]] FailureSweepResult evaluate(
      const std::vector<FailureScenario>& failures) const;

  /// Failures per warm-chain chunk in evaluate(). Fixed (not derived from
  /// the thread count) so results never depend on parallelism.
  static constexpr int kFailureChunk = 4;

  [[nodiscard]] const IntactSchemes& intact() const { return intact_; }

 private:
  IntactSchemes intact_;
  /// OPTU of every pool slot on the intact network: every failure's floor.
  std::vector<double> intact_optu_;
};

}  // namespace coyote::failure
