// Online TE daemon core: a long-running service over warm LP sessions.
//
// Everything else in this repo is one-shot (build network -> optimize ->
// evaluate -> exit); TeService is the deployment shape. One service
// instance keeps a topology, its failure::IntactSchemes and the retained
// warm LP sessions resident and answers a stream of events, each as a
// warm re-solve, never a rebuild:
//
//  * demand-matrix updates  -- the corner pool is rebuilt around the new
//    base matrix; the resident routing::OptuEngine re-solves it by rhs
//    mutation on its retained simplex sessions, each pool slot from the
//    basis it ended with when that slot was last solved
//    (OptuEngine::utilizationAt);
//  * link up/down           -- enters the engine via setFailedEdges (a
//    bounds mutation, the PR-4 machinery), and each scheme reacts per
//    its te::FailureReaction: kReconverge schemes re-run SPF on the
//    survivors, kRepairDags schemes repair their precomputed DAGs;
//  * margin changes         -- the uncertainty box and its corner pool
//    move; the running configurations stay (see below);
//  * read-only what-if queries -- hypothetical extra failures evaluated
//    on top of the current state without mutating it;
//  * reoptimize             -- the one explicitly heavy event: every
//    scheme's intact configuration is recomputed from the current base
//    matrix and margin, warm (IntactSchemes::compute).
//
// The split between evaluation and optimization is deliberate and
// mirrors deployment: demand/link/margin events re-*evaluate* the
// resident configurations under the new conditions (cheap, warm), while
// recomputing the configurations themselves -- re-running the COYOTE
// optimizer -- only happens when the operator requests "reoptimize".
// Ratios use the *unrestricted* OPTU on the surviving network as the
// common ruler (the failure-sweep normalization, stricter than the
// intact sweeps' within-DAG optimum), bounded and pruned by
// failure::evaluateFailure (see failure/evaluate.hpp).
//
// The floor rule: the service keeps the per-slot OPTU bounds of its last
// resident evaluation and passes them as the floor of a later evaluation
// only while the pool is unchanged and the failed set has only grown
// (link down, what-if, reoptimize). A demand or margin event rebuilds the
// pool and drops the floor; a link-up shrinks the failed set, so it
// evaluates without one. A what-if reads the floor but never records
// one. The constructor solves nothing for it.
//
// Protocol: line-delimited util::json objects, one request per line, one
// response line per request, in request order.
//
//   {"op":"state"}                                  read-only snapshot
//   {"op":"demand","scale":1.1}                     scale whole matrix
//   {"op":"demand","set":[["A","B",1.5],...]}       set entries (after
//                                                   "scale" when both)
//   {"op":"link","link":["A","B"],"up":false}       fail / restore
//   {"op":"margin","value":2.5}                     move the box
//   {"op":"what-if","links":[["A","B"],...]}        hypothetical failures
//   {"op":"reoptimize"}                             recompute schemes
//
// Every response carries {"seq":N,"op":...,"ok":true|false} plus either
// an evaluation payload (disconnected_pairs / evaluated / ratios /
// unroutable / failed) or {"error":...}; a client "id" member is echoed
// back. Malformed lines produce an error response, never daemon death.
//
// Determinism: requests are processed in input order. State-changing
// events run serially on the resident engine (its warm chain is the
// event history, independent of any thread count). In batch replays
// (handleScript) maximal runs of consecutive what-if queries fan out
// over util::ThreadPool in fixed-size chunks -- each chunk owns an
// OptuEngine whose sessions stay warm across the chunk's queries, the
// same PR-4 idiom as failure::FailureEvaluator -- and responses are
// emitted in input order, so replay output is bit-identical for any
// COYOTE_THREADS (the contract serve_test pins for 1/2/8).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "failure/evaluate.hpp"
#include "graph/graph.hpp"
#include "routing/optu.hpp"
#include "tm/traffic_matrix.hpp"
#include "util/json.hpp"

namespace coyote::serve {

/// The failure sweeps' options; `margin` is only the initial one (see the
/// "margin" op) and `schemes` are kept resident in response order.
struct ServeOptions : failure::FailureEvalOptions {
  ServeOptions() {
    // Early stop for the resident optimizer: a "reoptimize" seeded from
    // the previous ratios converges in a fraction of the budget, and the
    // skipped iterations are reported in the serve summary
    // (reoptimizeSavedIters). One-shot sweeps keep patience off.
    coyote.splitting.patience = 20;
  }
};

class TeService {
 public:
  /// Computes every scheme's intact configuration and builds the
  /// resident OPTU engine; the service is ready for events afterwards.
  TeService(Graph g, tm::TrafficMatrix base_tm, ServeOptions opt = {});
  ~TeService();

  TeService(const TeService&) = delete;
  TeService& operator=(const TeService&) = delete;

  /// Handles one parsed request; never throws for bad requests (the
  /// response carries ok:false and an error message instead).
  [[nodiscard]] util::json::Value handle(const util::json::Value& request);

  /// Handles one protocol line: parse errors become error responses.
  [[nodiscard]] std::string handleLine(const std::string& line);

  /// Batch replay: every line in input order, one response per line.
  /// Consecutive what-if queries are evaluated concurrently in
  /// fixed-size chunks (see file comment); output order and content are
  /// independent of the thread count.
  [[nodiscard]] std::vector<std::string> handleScript(
      const std::vector<std::string>& lines);

  /// What-if queries per warm-chain chunk in handleScript. Fixed (not
  /// derived from the thread count) so responses never depend on
  /// parallelism.
  static constexpr int kWhatIfChunk = 4;

  [[nodiscard]] long long eventsHandled() const { return seq_; }
  /// The resident schemes, base matrix, margin and corner pool.
  [[nodiscard]] const failure::IntactSchemes& intact() const {
    return intact_;
  }
  /// Currently failed physical links as "A-B" labels, in canonical order.
  [[nodiscard]] std::vector<std::string> failedLinks() const;
  /// Splitting-optimizer iterations saved across every "reoptimize"
  /// event so far: each recompute is seeded from the scheme's previous
  /// ratios (coyote.warm_init) and stops early once converged
  /// (splitting.patience); this totals the budget it never spent.
  [[nodiscard]] long long reoptimizeSavedIters() const {
    return reopt_saved_iters_;
  }

 private:
  /// Evaluates the resident configurations with `links` (canonical ids,
  /// ascending) failed, on the given engine, with the recorded floor when
  /// it holds for `links`. Read-only and thread-safe.
  [[nodiscard]] failure::FailureOutcome evaluateLinks(
      const std::vector<EdgeId>& links, routing::OptuEngine& engine) const;
  /// evaluateLinks(failed_) on the resident engine; records its bounds as
  /// the floor of later evaluations.
  [[nodiscard]] failure::FailureOutcome evaluateResident();

  [[nodiscard]] util::json::Value dispatch(const util::json::Value& request,
                                           long long seq);
  [[nodiscard]] util::json::Value handleWhatIf(const util::json::Value& request,
                                               long long seq,
                                               routing::OptuEngine& engine) const;
  /// Canonical edge id for ["A","B"]; throws std::invalid_argument with
  /// a client-facing message for unknown nodes or non-adjacent pairs.
  [[nodiscard]] EdgeId parseLink(const util::json::Value& link) const;
  void addEvalPayload(util::json::Value& response,
                      const failure::FailureOutcome& ev,
                      const std::vector<EdgeId>& links) const;

  Graph g_;
  failure::IntactSchemes intact_;
  std::vector<EdgeId> failed_;  ///< failed links (canonical ids, ascending)
  /// The resident ruler: unrestricted OPTU whose simplex sessions, and
  /// one basis per pool position, stay warm across the whole event stream.
  std::unique_ptr<routing::OptuEngine> engine_;
  /// Per-slot OPTU lower bounds of the last resident evaluation, taken
  /// with floor_failed_ failed; empty once the pool changes.
  std::vector<double> floor_;
  std::vector<EdgeId> floor_failed_;
  long long seq_ = 0;
  long long reopt_saved_iters_ = 0;  ///< see reoptimizeSavedIters()
};

}  // namespace coyote::serve
