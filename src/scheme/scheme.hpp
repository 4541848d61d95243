// First-class TE schemes (the rows of the paper's comparisons).
//
// A te::Scheme packages everything the experiment layers need to treat a
// routing scheme generically:
//
//  * identity -- a stable machine key ("ecmp", "semi-oblivious"; the JSON
//    row key and the `--schemes` selector) and a display name for tables;
//  * computation -- compute() builds the scheme's routing configuration on
//    the *intact* network from a SchemeContext. Margin-independent schemes
//    (marginDependent() == false) are computed once per network and
//    re-evaluated under every uncertainty margin; margin-dependent ones
//    (COYOTE-pk) are re-optimized per margin against the context's
//    evaluation pool;
//  * failure reaction -- how the scheme responds to a link failure in
//    deployment: OSPF reconvergence (kReconverge; every router re-runs SPF
//    on the survivors) or local repair of its precomputed static DAGs
//    (kRepairDags; see failure/degrade.hpp). kReconverge schemes provide
//    the post-failure configuration via reconverge(): SPF ECMP on the
//    surviving graph (routing::shortestPathEcmp). The lie-free FIBs of
//    fibbing::OspfModel hold the same next hops; that model is the
//    reference the tests check reconvergence against;
//  * the OSPF substrate -- ospfSubstrate() returns the graph (possibly
//    re-weighted) whose link weights the scheme assumes OSPF is running
//    with. It anchors both reconvergence and the fibbing translation
//    (lies are priced against the substrate's real IGP distances).
//
// The four paper schemes plus the extension schemes are registered in
// SchemeRegistry::builtin() (registry.hpp); NetworkSweep, the failure
// evaluator, and the experiment runner are generic over scheme lists.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/coyote.hpp"
#include "graph/dag.hpp"
#include "graph/graph.hpp"
#include "routing/config.hpp"
#include "routing/evaluator.hpp"
#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"

namespace coyote::te {

/// Everything compute() may draw on. `box` and `pool` describe the current
/// uncertainty margin and its corner-pool evaluator; they are only
/// guaranteed non-null for margin-dependent schemes (margin-independent
/// schemes must not use them -- their configuration may be cached across
/// margins).
struct SchemeContext {
  const Graph& g;
  std::shared_ptr<const DagSet> dags;  ///< augmented DAGs of g's weights
  const tm::TrafficMatrix& base_tm;
  /// Optimizer options, final: schemes use them as-is (in particular
  /// `oracle_rounds` -- the caller decides whether the exact slave-LP
  /// cutting-plane oracle runs; NetworkSweep passes its
  /// SweepOptions::coyote through, failure::IntactSchemes requires 0).
  core::CoyoteOptions coyote;
  const tm::DemandBounds* box = nullptr;            ///< margin-dependent only
  routing::PerformanceEvaluator* pool = nullptr;    ///< margin-dependent only
  /// When non-null, schemes that run the splitting optimizer add the
  /// iterations its patience early stop skipped (see
  /// core::CoyoteResult::splitting_iters_saved). The serve daemon passes
  /// a counter here -- together with coyote.warm_init it is how a warm
  /// `reoptimize` reports how much of the budget the previous ratios
  /// saved. Other schemes leave it untouched.
  int* splitting_iters_saved = nullptr;
  /// When non-null, core::coyoteOblivious's cache of the normalized
  /// oblivious pool, shared by every scheme that optimizes against it.
  /// Valid for one graph, DAG set and `coyote` minus warm_init.
  std::vector<tm::TrafficMatrix>* oblivious_pool = nullptr;
};

/// How a scheme reacts to a link failure in deployment.
enum class FailureReaction {
  kReconverge,  ///< OSPF floods the withdrawal; SPF re-runs (ECMP family)
  kRepairDags,  ///< static per-destination DAGs repaired locally (COYOTE family)
};

[[nodiscard]] const char* reactionName(FailureReaction r);

class Scheme {
 public:
  virtual ~Scheme() = default;

  /// Stable machine key: the JSON row key, the `--schemes` selector, and
  /// the failure-stats map key. Lowercase [a-z0-9-], unique per registry.
  [[nodiscard]] virtual const char* key() const = 0;
  /// Human-readable column header ("COYOTE-obl").
  [[nodiscard]] virtual const char* display() const = 0;
  /// One-line description for `--list-schemes`.
  [[nodiscard]] virtual const char* describe() const = 0;

  /// True when the configuration depends on the uncertainty margin (the
  /// scheme is re-optimized per margin point); false when it is computed
  /// once per network and merely re-evaluated under every margin.
  [[nodiscard]] virtual bool marginDependent() const { return false; }

  [[nodiscard]] virtual FailureReaction reaction() const {
    return FailureReaction::kRepairDags;
  }

  /// The intact-network routing configuration.
  [[nodiscard]] virtual routing::RoutingConfig compute(
      const SchemeContext& ctx) const = 0;

  /// The graph whose weights the scheme's OSPF substrate runs with
  /// (identity for every scheme that adopts the operator's configured
  /// weights; invcap-ecmp re-weights). Used by reconverge() and by the
  /// fibbing round-trip: lies realizing the scheme's DAGs are priced
  /// against this graph's IGP distances.
  [[nodiscard]] virtual Graph ospfSubstrate(const Graph& g) const;

  /// Post-failure configuration for kReconverge schemes: SPF ECMP on the
  /// degraded graph (zero-capacity edges are withdrawn), over the scheme's
  /// substrate weights. Throws std::logic_error for kRepairDags
  /// schemes -- their post-failure config is failure::repairRouting of the
  /// intact one.
  [[nodiscard]] virtual routing::RoutingConfig reconverge(
      const Graph& degraded) const;
};

/// Factories for the built-in schemes (registered by
/// SchemeRegistry::builtin(); exposed for tests that build registries).
[[nodiscard]] std::unique_ptr<const Scheme> makeEcmpScheme();
[[nodiscard]] std::unique_ptr<const Scheme> makeBaseScheme();
[[nodiscard]] std::unique_ptr<const Scheme> makeObliviousScheme();
[[nodiscard]] std::unique_ptr<const Scheme> makePartialScheme();
[[nodiscard]] std::unique_ptr<const Scheme> makeInvCapEcmpScheme();
[[nodiscard]] std::unique_ptr<const Scheme> makeSemiObliviousScheme();

}  // namespace coyote::te
