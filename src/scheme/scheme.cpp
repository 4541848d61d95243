#include "scheme/scheme.hpp"

#include <stdexcept>

#include "core/dag_builder.hpp"
#include "core/splitting_optimizer.hpp"
#include "routing/ecmp.hpp"
#include "routing/optu.hpp"
#include "util/require.hpp"

namespace coyote::te {

const char* reactionName(FailureReaction r) {
  switch (r) {
    case FailureReaction::kReconverge:
      return "reconverge";
    case FailureReaction::kRepairDags:
      return "repair-dags";
  }
  return "unknown";
}

Graph Scheme::ospfSubstrate(const Graph& g) const { return g; }

routing::RoutingConfig Scheme::reconverge(const Graph& degraded) const {
  if (reaction() != FailureReaction::kReconverge) {
    throw std::logic_error(std::string("scheme '") + key() +
                           "' repairs its DAGs; it does not reconverge");
  }
  // OSPF SPF re-run on the survivors, over the scheme's substrate weights.
  return routing::shortestPathEcmp(ospfSubstrate(degraded));
}

namespace {

// --- the paper's four schemes -----------------------------------------

class EcmpScheme final : public Scheme {
 public:
  const char* key() const override { return "ecmp"; }
  const char* display() const override { return "ECMP"; }
  const char* describe() const override {
    return "traditional TE: equal splitting over shortest paths of the "
           "configured link weights";
  }
  FailureReaction reaction() const override {
    return FailureReaction::kReconverge;
  }
  routing::RoutingConfig compute(const SchemeContext& ctx) const override {
    return routing::ecmpConfig(ctx.g, ctx.dags);
  }
};

class BaseScheme final : public Scheme {
 public:
  const char* key() const override { return "base"; }
  const char* display() const override { return "Base"; }
  const char* describe() const override {
    return "demands-aware optimum (within the augmented DAGs) for the base "
           "matrix only";
  }
  routing::RoutingConfig compute(const SchemeContext& ctx) const override {
    return routing::optimalRoutingForDemand(ctx.g, ctx.dags, ctx.base_tm,
                                            ctx.coyote.lp)
        .routing;
  }
};

class ObliviousScheme final : public Scheme {
 public:
  const char* key() const override { return "oblivious"; }
  const char* display() const override { return "COYOTE-obl"; }
  const char* describe() const override {
    return "COYOTE with no demand knowledge: optimized against a pool "
           "standing in for all matrices";
  }
  routing::RoutingConfig compute(const SchemeContext& ctx) const override {
    core::CoyoteResult res = core::coyoteOblivious(ctx.g, ctx.dags, ctx.coyote,
                                                   ctx.oblivious_pool);
    if (ctx.splitting_iters_saved != nullptr) {
      *ctx.splitting_iters_saved += res.splitting_iters_saved;
    }
    return std::move(res.routing);
  }
};

class PartialScheme final : public Scheme {
 public:
  const char* key() const override { return "partial"; }
  const char* display() const override { return "COYOTE-pk"; }
  const char* describe() const override {
    return "COYOTE partial knowledge: re-optimized per margin against the "
           "uncertainty box's corner pool";
  }
  bool marginDependent() const override { return true; }
  routing::RoutingConfig compute(const SchemeContext& ctx) const override {
    require(ctx.pool != nullptr && ctx.box != nullptr,
            "margin-dependent scheme needs the margin's box and pool");
    core::CoyoteResult res =
        core::optimizeAgainstPool(ctx.g, *ctx.pool, ctx.box, ctx.coyote);
    if (ctx.splitting_iters_saved != nullptr) {
      *ctx.splitting_iters_saved += res.splitting_iters_saved;
    }
    return std::move(res.routing);
  }
};

// --- extension schemes (beyond the paper's comparison) ----------------

class InvCapEcmpScheme final : public Scheme {
 public:
  const char* key() const override { return "invcap-ecmp"; }
  const char* display() const override { return "invcap-ECMP"; }
  const char* describe() const override {
    return "ECMP over inverse-capacity OSPF weights (the classic operator "
           "default), whatever weights the topology carries";
  }
  FailureReaction reaction() const override {
    return FailureReaction::kReconverge;
  }
  Graph ospfSubstrate(const Graph& g) const override {
    Graph out = g;
    out.setInverseCapacityWeights();
    return out;
  }
  routing::RoutingConfig compute(const SchemeContext& ctx) const override {
    // The config lives over the substrate's own augmented DAGs (Dags hold
    // ids only, so it evaluates directly on the original graph). On
    // topologies already carrying inverse-capacity weights this reproduces
    // plain ECMP exactly.
    const Graph reweighted = ospfSubstrate(ctx.g);
    return routing::ecmpConfig(reweighted,
                               core::augmentedDagsShared(reweighted));
  }
};

class SemiObliviousScheme final : public Scheme {
 public:
  const char* key() const override { return "semi-oblivious"; }
  const char* display() const override { return "COYOTE-semi"; }
  const char* describe() const override {
    return "Kulfi-style semi-oblivious: COYOTE-oblivious DAG structure, "
           "splits re-optimized for the base matrix only";
  }
  routing::RoutingConfig compute(const SchemeContext& ctx) const override {
    // Start from the demand-oblivious optimum (same options as the
    // 'oblivious' scheme, so both rows share one structure in one run),
    // then re-tune the splitting ratios for the base matrix alone -- a
    // middle point between 'base' (fully demand-aware) and 'partial'
    // (box-aware): the structure is oblivious, only the rates adapt, and
    // nothing depends on the margin.
    core::CoyoteResult obl = core::coyoteOblivious(ctx.g, ctx.dags, ctx.coyote,
                                                   ctx.oblivious_pool);
    routing::PerformanceEvaluator eval(ctx.g, ctx.dags, ctx.coyote.lp);
    eval.addMatrix(ctx.base_tm);
    int used = 0;
    routing::RoutingConfig cfg = core::optimizeSplitting(
        ctx.g, eval, obl.routing, ctx.coyote.splitting, &used);
    if (ctx.splitting_iters_saved != nullptr) {
      *ctx.splitting_iters_saved += obl.splitting_iters_saved +
                                    (ctx.coyote.splitting.iterations - used);
    }
    return cfg;
  }
};

}  // namespace

std::unique_ptr<const Scheme> makeEcmpScheme() {
  return std::make_unique<EcmpScheme>();
}
std::unique_ptr<const Scheme> makeBaseScheme() {
  return std::make_unique<BaseScheme>();
}
std::unique_ptr<const Scheme> makeObliviousScheme() {
  return std::make_unique<ObliviousScheme>();
}
std::unique_ptr<const Scheme> makePartialScheme() {
  return std::make_unique<PartialScheme>();
}
std::unique_ptr<const Scheme> makeInvCapEcmpScheme() {
  return std::make_unique<InvCapEcmpScheme>();
}
std::unique_ptr<const Scheme> makeSemiObliviousScheme() {
  return std::make_unique<SemiObliviousScheme>();
}

}  // namespace coyote::te
