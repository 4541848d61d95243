// The scheme margin sweep at the heart of the paper's evaluation
// (Figs. 6-9, Table I), factored out so the scenario registry
// (scenario.hpp) and the experiment runner (runner.hpp) can drive it
// uniformly. Since the te::Scheme redesign the sweep is generic over a
// scheme list (default: the paper's four, from
// te::SchemeRegistry::builtin()).
//
// Every sweep records the same rows the paper reports, normalized --
// like the paper's figures -- by the demands-aware optimum *within the same
// augmented DAGs*. Evaluation is over a finite pool of corner/hotspot
// matrices of the uncertainty box (see tm::cornerPool); the same pool
// drives COYOTE's optimizer, and the exact slave-LP oracle can be enabled
// on small networks. Shapes (who wins, by what factor, where crossovers
// fall), not absolute values, are the reproduction target; see
// EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/coyote.hpp"
#include "core/dag_builder.hpp"
#include "routing/evaluator.hpp"
#include "routing/optu.hpp"
#include "routing/worst_case.hpp"
#include "scheme/registry.hpp"
#include "tm/uncertainty.hpp"
#include "util/thread_pool.hpp"

namespace coyote::exp {

/// One row of the Fig. 6-9 / Table I comparison: one ratio per scheme of
/// the sweep's scheme list (NetworkSweep::schemes(), same order).
struct SchemeRow {
  double margin = 1.0;
  std::vector<double> ratio;
  /// LP work this margin point cost in total (pool normalization,
  /// optimizer re-solves, slave LPs): deltas of lp::statsSnapshot()
  /// around run().
  std::int64_t lp_solves = 0;
  std::int64_t lp_pivots = 0;
  /// The per-scheme share of that work (margin-dependent re-optimization
  /// plus the scheme's own evaluation; the shared pool normalization is
  /// not attributed). Parallel to `ratio`.
  std::vector<std::int64_t> scheme_lp_solves;
  std::vector<std::int64_t> scheme_lp_pivots;
};

struct SweepOptions {
  /// Corner-pool shape for the per-margin evaluation/optimization pool.
  tm::PoolOptions pool;
  core::CoyoteOptions coyote;
  bool exact_oracle = false;  ///< add slave-LP cutting planes (small nets)
  /// Evaluate the schemes with the exact slave-LP adversary over the
  /// whole box (one LP per edge per scheme) instead of the corner pool.
  /// This is what exposes how quickly the base-optimal routing degrades
  /// under uncertainty; affordable up to ~15-node networks.
  bool exact_eval = false;
  /// 0 = the process-wide util::ThreadPool; otherwise the per-margin pool
  /// evaluators run on one private pool of exactly that many threads.
  /// Results are bit-identical either way (tests sweep this knob).
  unsigned threads = 0;

  SweepOptions() {
    pool.random_corners = 6;
    pool.source_hotspots = false;  // halves the per-margin LP count
    pool.max_hotspots = 12;        // caps LP count on the larger networks
    pool.seed = 1;
    coyote.splitting.iterations = 300;
  }
};

/// Margin-sweep harness for one network, generic over a scheme list.
/// Margin-independent schemes are computed once (in list order) and
/// re-evaluated under every margin's pool; margin-dependent ones
/// (COYOTE-pk) are re-optimized per margin. All heavy stages (pool
/// normalization, PERF evaluation, the optimizer's forward pass, the slave
/// LPs) run on the shared util::ThreadPool; results are bit-identical for
/// any thread count.
///
/// One routing::OptuEngine is shared by every margin point's evaluator:
/// the OPTU constraint matrix is built once per (graph, DAG-set,
/// active-destination signature) and each margin's pool normalizations
/// re-solve it by mutating the conservation rhs from a warm basis. The
/// warm chains and thread-chunking are per scheme-independent stage, so
/// adding or removing schemes never perturbs another scheme's pivots.
class NetworkSweep {
 public:
  /// `schemes` empty selects te::SchemeRegistry::builtin().defaults()
  /// (the paper's four-scheme comparison).
  NetworkSweep(const Graph& g, std::shared_ptr<const DagSet> dags,
               const tm::TrafficMatrix& base_tm, SweepOptions opt,
               std::vector<const te::Scheme*> schemes = {});

  [[nodiscard]] SchemeRow run(double margin) const;

  [[nodiscard]] const std::vector<const te::Scheme*>& schemes() const {
    return schemes_;
  }

  /// Intact routing of scheme `i` (margin-independent schemes only;
  /// margin-dependent ones are recomputed inside run()).
  [[nodiscard]] const routing::RoutingConfig& intactRouting(int i) const;

 private:
  const Graph& g_;
  std::shared_ptr<const DagSet> dags_;
  const tm::TrafficMatrix& base_tm_;
  SweepOptions opt_;
  std::vector<const te::Scheme*> schemes_;
  std::shared_ptr<routing::OptuEngine> optu_engine_;
  /// Private pool of opt_.threads threads, lent to every margin's
  /// evaluator; null for the process-wide pool.
  std::unique_ptr<util::ThreadPool> thread_pool_;
  /// Parallel to schemes_; disengaged for margin-dependent schemes.
  std::vector<std::optional<routing::RoutingConfig>> intact_;
};

/// Margins used by the sweeps: the paper uses 1..3 (figures) and 1..5
/// (Table I) in 0.5 steps; the quick default thins them out. Generated
/// from integer step counts (not floating-point accumulation), so the last
/// margin is never lost to round-off drift.
[[nodiscard]] std::vector<double> marginGrid(double max_margin, bool full);

}  // namespace coyote::exp
