#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "core/coyote.hpp"
#include "core/dag_builder.hpp"
#include "core/local_search.hpp"
#include "core/splitting_optimizer.hpp"
#include "routing/ecmp.hpp"
#include "routing/propagation.hpp"
#include "routing/worst_case.hpp"
#include "splitting_reference.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "util/thread_pool.hpp"

namespace coyote::core {
namespace {

const double kGolden = (std::sqrt(5.0) - 1.0) / 2.0;

// ---------------------------------------------------------------------------
// DAG augmentation (Sec. V-B Step II).
// ---------------------------------------------------------------------------

class AugmentationOnZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(AugmentationOnZoo, EveryLinkOrientedExactlyOnce) {
  const Graph g = topo::makeZoo(GetParam());
  const DagSet dags = augmentedDags(g);
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    const Dag& dag = dags[t];
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
      const Edge& ed = g.edge(e);
      if (ed.reverse == kInvalidEdge || ed.reverse < e) continue;
      const bool fwd = dag.contains(e);
      const bool bwd = dag.contains(ed.reverse);
      if (ed.src == t || ed.dst == t) {
        // Links incident to the destination point into it only.
        EXPECT_TRUE(fwd != bwd) << GetParam();
      } else {
        EXPECT_TRUE(fwd ^ bwd)
            << GetParam() << ": link " << g.nodeName(ed.src) << "-"
            << g.nodeName(ed.dst) << " t=" << g.nodeName(t);
      }
    }
    // Everyone reaches the destination inside the augmented DAG.
    for (NodeId v = 0; v < g.numNodes(); ++v) {
      EXPECT_TRUE(dag.reachesDest(v)) << GetParam();
    }
  }
}

TEST_P(AugmentationOnZoo, ContainsShortestPathDag) {
  const Graph g = topo::makeZoo(GetParam());
  const DagSet aug = augmentedDags(g);
  const DagSet sp = routing::shortestPathDags(g);
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    for (const EdgeId e : sp[t].edges()) {
      EXPECT_TRUE(aug[t].contains(e)) << GetParam() << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, AugmentationOnZoo,
                         ::testing::ValuesIn(topo::zooNames()));

TEST(Augmentation, TieBreakMatchesRunningExample) {
  const Graph g = topo::runningExample();
  const NodeId s2 = *g.findNode("s2");
  const NodeId v = *g.findNode("v");
  const NodeId t = *g.findNode("t");
  const Dag dag = augmentedDag(g, t);
  // dist(s2)=dist(v)=1 under unit weights: tie broken s2 -> v (Fig. 1c).
  EXPECT_TRUE(dag.contains(*g.findEdge(s2, v)));
  EXPECT_FALSE(dag.contains(*g.findEdge(v, s2)));
}

TEST(Augmentation, SkipsLinksWhenEndpointUnreachable) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId c = g.addNode();  // c only has an incoming edge from b
  const NodeId t = g.addNode();
  g.addLink(a, b);
  g.addLink(a, t);
  g.addEdge(b, c);
  const Dag dag = augmentedDag(g, t);
  EXPECT_TRUE(dag.reachesDest(a));
  EXPECT_TRUE(dag.reachesDest(b));
  EXPECT_FALSE(dag.reachesDest(c));
}

// ---------------------------------------------------------------------------
// Splitting optimization (Sec. V-C): the Appendix B closed form.
// ---------------------------------------------------------------------------

struct GoldenFixture {
  Graph g = topo::runningExample();
  NodeId s1, s2, v, t;
  std::shared_ptr<const DagSet> dags;
  routing::PerformanceEvaluator eval;

  GoldenFixture()
      : s1(*g.findNode("s1")),
        s2(*g.findNode("s2")),
        v(*g.findNode("v")),
        t(*g.findNode("t")),
        dags(augmentedDagsShared(g)),
        eval(g, dags) {
    tm::TrafficMatrix d1(g.numNodes()), d2(g.numNodes());
    d1.set(s1, t, 2.0);
    d2.set(s2, t, 2.0);
    eval.addMatrix(d1);
    eval.addMatrix(d2);
  }
};

class GoldenRatioRecovery : public ::testing::TestWithParam<SplitMethod> {};

TEST_P(GoldenRatioRecovery, OptimizerFindsTheClosedForm) {
  GoldenFixture fx;
  SplittingOptions opt;
  opt.method = GetParam();
  opt.iterations = 1500;
  const routing::RoutingConfig cfg = optimizeSplitting(
      fx.g, fx.eval, routing::RoutingConfig::uniform(fx.g, fx.dags), opt);
  // Appendix B: the optimum is phi(s1,s2)=phi(s2,t)=(sqrt(5)-1)/2 with
  // worst-case utilization sqrt(5)-1 ~ 1.236.
  EXPECT_NEAR(fx.eval.ratioFor(cfg), std::sqrt(5.0) - 1.0, 0.01);
  EXPECT_NEAR(cfg.ratio(fx.t, *fx.g.findEdge(fx.s1, fx.s2)), kGolden, 0.03);
  EXPECT_NEAR(cfg.ratio(fx.t, *fx.g.findEdge(fx.s2, fx.t)), kGolden, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Methods, GoldenRatioRecovery,
                         ::testing::Values(SplitMethod::kGpCondensation,
                                           SplitMethod::kMirrorDescent));

TEST(SplittingOptimizer, NeverWorseThanItsStartingPoint) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = augmentedDagsShared(g);
  routing::PerformanceEvaluator eval(g, dags);
  eval.addPool(tm::cornerPool(
      tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0), {true, true, 4, 5}));
  const auto init = routing::RoutingConfig::uniform(g, dags);
  SplittingOptions opt;
  opt.iterations = 150;
  const auto cfg = optimizeSplitting(g, eval, init, opt);
  EXPECT_LE(eval.ratioFor(cfg), eval.ratioFor(init) + 1e-9);
}

TEST(SplittingOptimizer, PrunesTinyRatios) {
  GoldenFixture fx;
  SplittingOptions opt;
  opt.iterations = 400;
  opt.prune_below = 1e-3;
  const auto cfg = optimizeSplitting(
      fx.g, fx.eval, routing::RoutingConfig::uniform(fx.g, fx.dags), opt);
  for (NodeId t = 0; t < fx.g.numNodes(); ++t) {
    for (const EdgeId e : (*fx.dags)[t].edges()) {
      const double r = cfg.ratio(t, e);
      EXPECT_TRUE(r == 0.0 || r >= 1e-4) << r;
    }
  }
}

TEST(SplittingOptimizer, RejectsEmptyPool) {
  const Graph g = topo::runningExample();
  const auto dags = augmentedDagsShared(g);
  routing::PerformanceEvaluator eval(g, dags);
  EXPECT_THROW((void)optimizeSplitting(
                   g, eval, routing::RoutingConfig::uniform(g, dags), {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Kernel bit-identity: optimizeSplitting's compiled-DAG kernel must do the
// same floating-point operations in the same order as the plain loop kept
// in splitting_reference.hpp.
// ---------------------------------------------------------------------------

/// DAG ratios of a and b that differ in any bit.
int differingRatios(const Graph& g, const routing::RoutingConfig& a,
                    const routing::RoutingConfig& b) {
  int differ = 0;
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    for (const EdgeId e : a.dags()[t].edges()) {
      differ += std::bit_cast<std::uint64_t>(a.ratio(t, e)) !=
                std::bit_cast<std::uint64_t>(b.ratio(t, e));
    }
  }
  return differ;
}

/// Runs both SplitMethods through the kernel, on a private pool of 1, 2 and
/// 8 threads, and through the reference, and expects bit-equal ratios and
/// equal iteration counts; returns the iteration count per method.
std::vector<int> expectKernelMatchesReference(
    const Graph& g, routing::PerformanceEvaluator& eval,
    const routing::RoutingConfig& init, SplittingOptions opt) {
  std::vector<int> used_per_method;
  for (const SplitMethod method :
       {SplitMethod::kGpCondensation, SplitMethod::kMirrorDescent}) {
    SCOPED_TRACE(method == SplitMethod::kGpCondensation ? "gp" : "mirror");
    opt.method = method;
    int ref_used = -2;
    const auto ref = splitting_reference::referenceOptimizeSplitting(
        g, eval, init, opt, &ref_used);
    for (const unsigned threads : {1U, 2U, 8U}) {
      SCOPED_TRACE(threads);
      util::ThreadPool tp(threads);
      eval.setThreadPool(tp);
      EXPECT_EQ(eval.threadPool().threadCount(), threads);
      int used = -1;
      const auto cfg = optimizeSplitting(g, eval, init, opt, &used);
      eval.setThreadPool(util::ThreadPool::global());
      EXPECT_EQ(used, ref_used);
      EXPECT_EQ(differingRatios(g, cfg, ref), 0);
    }
    used_per_method.push_back(ref_used);
  }
  return used_per_method;
}

SplittingOptions kernelOptions() {
  SplittingOptions opt;
  opt.iterations = 250;
  return opt;
}

TEST(SplittingKernel, BitIdenticalToReferenceOnCornerPools) {
  for (const char* name : {"Abilene", "Geant"}) {
    SCOPED_TRACE(name);
    const Graph g = topo::makeZoo(name);
    const auto dags = augmentedDagsShared(g);
    routing::PerformanceEvaluator eval(g, dags);
    eval.addPool(
        tm::cornerPool(tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0)));
    (void)expectKernelMatchesReference(
        g, eval, routing::RoutingConfig::uniform(g, dags), kernelOptions());
  }
}

TEST(SplittingKernel, BitIdenticalToReferenceOnObliviousPools) {
  for (const char* name : {"Abilene", "Geant"}) {
    SCOPED_TRACE(name);
    const Graph g = topo::makeZoo(name);
    const auto dags = augmentedDagsShared(g);
    routing::PerformanceEvaluator eval(g, dags);
    eval.addPool(tm::obliviousPool(g.numNodes()));
    (void)expectKernelMatchesReference(
        g, eval, routing::RoutingConfig::uniform(g, dags), kernelOptions());
  }
}

TEST(SplittingKernel, BitIdenticalToReferenceOnFatTree) {
  const Graph g = topo::fatTree(4);
  const auto dags = augmentedDagsShared(g);
  routing::PerformanceEvaluator eval(g, dags);
  tm::GravityOptions gopt;
  gopt.endpoint_prefix = "edge";
  eval.addPool(tm::cornerPool(
      tm::marginBounds(tm::gravityMatrix(g, 1.0, gopt), 2.0)));
  (void)expectKernelMatchesReference(
      g, eval, routing::RoutingConfig::uniform(g, dags), kernelOptions());
}

// The dc-fattree benchmark's oblivious pool: many destinations, each with
// demand in only a few matrices.
TEST(SplittingKernel, BitIdenticalToReferenceOnFatTreeObliviousPool) {
  const Graph g = topo::fatTree(4);
  const auto dags = augmentedDagsShared(g);
  routing::PerformanceEvaluator eval(g, dags);
  tm::ObliviousPoolOptions popt;
  popt.source_concentrated = false;
  popt.uniform = false;
  popt.random_sparse = 4;
  eval.addPool(tm::obliviousPool(g.numNodes(), popt));
  (void)expectKernelMatchesReference(
      g, eval, routing::RoutingConfig::uniform(g, dags), kernelOptions());
}

TEST(SplittingKernel, BitIdenticalToReferenceWhenPatienceStopsEarly) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = augmentedDagsShared(g);
  routing::PerformanceEvaluator eval(g, dags);
  eval.addPool(
      tm::cornerPool(tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0)));
  SplittingOptions opt = kernelOptions();
  const auto warm = optimizeSplitting(
      g, eval, routing::RoutingConfig::uniform(g, dags), opt);
  opt.patience = 20;
  for (const int used : expectKernelMatchesReference(g, eval, warm, opt)) {
    EXPECT_LT(used, opt.iterations);
  }
}

// ---------------------------------------------------------------------------
// Full pipeline.
// ---------------------------------------------------------------------------

TEST(Coyote, SingleMatrixPoolIsLpExact) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  // Margin 1: the box degenerates to {base}; COYOTE-pk must be optimal.
  const CoyoteResult res =
      coyoteWithBounds(g, dags, tm::marginBounds(base, 1.0), {});
  EXPECT_NEAR(res.pool_ratio, 1.0, 1e-5);
}

TEST(Coyote, NeverWorseThanEcmpOnSharedPool) {
  for (const auto& name : {"Abilene", "NSF", "Germany"}) {
    const Graph g = topo::makeZoo(name);
    const auto dags = augmentedDagsShared(g);
    routing::PerformanceEvaluator pool(g, dags);
    pool.addPool(tm::cornerPool(
        tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.5), {true, true, 4, 3}));
    CoyoteOptions opt;
    opt.splitting.iterations = 250;
    const CoyoteResult res = optimizeAgainstPool(g, pool, nullptr, opt);
    const auto ecmp = routing::ecmpConfig(g, dags);
    EXPECT_LE(res.pool_ratio, pool.ratioFor(ecmp) + 1e-9) << name;
  }
}

TEST(Coyote, ObliviousBeatsEcmpOnRunningExample) {
  const Graph g = topo::runningExample();
  const auto dags = augmentedDagsShared(g);
  routing::PerformanceEvaluator pool(g, dags);
  pool.addPool(tm::obliviousPool(g.numNodes()));
  CoyoteOptions opt;
  opt.oracle_rounds = 3;  // tiny network: exact cutting planes are cheap
  const CoyoteResult res = optimizeAgainstPool(g, pool, nullptr, opt);
  const auto ecmp = routing::ecmpConfig(g, dags);
  EXPECT_LE(res.pool_ratio, pool.ratioFor(ecmp) + 1e-9);
  // The exact oblivious ratio (all senders, slave LP) also improves on ECMP.
  const double coyote_exact =
      routing::findWorstCaseDemand(g, res.routing).ratio;
  const double ecmp_exact = routing::findWorstCaseDemand(g, ecmp).ratio;
  EXPECT_LE(coyote_exact, ecmp_exact + 1e-6);
}

TEST(Coyote, OracleRoundsGrowThePool) {
  const Graph g = topo::runningExample();
  const auto dags = augmentedDagsShared(g);
  routing::PerformanceEvaluator pool(g, dags);
  tm::ObliviousPoolOptions pool_opt;
  pool_opt.destination_concentrated = true;
  pool_opt.random_sparse = 0;
  pool.addPool(tm::obliviousPool(g.numNodes(), pool_opt));
  const int before = pool.size();
  CoyoteOptions opt;
  opt.oracle_rounds = 2;
  (void)optimizeAgainstPool(g, pool, nullptr, opt);
  EXPECT_GE(pool.size(), before);  // oracle may add worst-case matrices
}

TEST(Coyote, PartialKnowledgeNoWorseThanOblivious) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const tm::DemandBounds box = tm::marginBounds(base, 2.0);

  CoyoteOptions opt;
  opt.splitting.iterations = 250;
  const CoyoteResult pk = coyoteWithBounds(g, dags, box, opt);
  const CoyoteResult obl = coyoteOblivious(g, dags, opt);

  // Evaluate both on the same margin-2 corner pool: knowing the bounds can
  // only help (up to optimizer noise).
  routing::PerformanceEvaluator eval(g, dags);
  eval.addPool(tm::cornerPool(box, {true, true, 6, 17}));
  EXPECT_LE(eval.ratioFor(pk.routing), eval.ratioFor(obl.routing) + 0.10);
}

// ---------------------------------------------------------------------------
// Local search (Appendix A).
// ---------------------------------------------------------------------------

TEST(LocalSearch, ReturnsIntegralWeightsInRange) {
  const Graph g = topo::makeZoo("Abilene");
  const tm::DemandBounds box =
      tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0);
  LocalSearchOptions opt;
  opt.max_rounds = 2;
  opt.max_moves_per_round = 8;
  const LocalSearchResult res = localSearchWeights(g, box, opt);
  ASSERT_EQ(res.weights.size(), static_cast<std::size_t>(g.numEdges()));
  for (const double w : res.weights) {
    EXPECT_GE(w, 1.0);
    EXPECT_LE(w, kMaxWeight);
    EXPECT_DOUBLE_EQ(w, std::round(w));
  }
  EXPECT_GE(res.rounds, 1);
}

TEST(LocalSearch, ImprovesOrMatchesInverseCapacityEcmp) {
  const Graph g = topo::makeZoo("NSF");
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const tm::DemandBounds box = tm::marginBounds(base, 2.0);
  LocalSearchOptions opt;
  opt.max_rounds = 2;
  opt.max_moves_per_round = 12;
  const LocalSearchResult res = localSearchWeights(g, box, opt);

  // Evaluate ECMP with found weights vs. inverse-capacity weights on the
  // same corner pool (normalized by the unrestricted optimum, as inside the
  // heuristic).
  const auto evalEcmp = [&](const Graph& weighted) {
    const auto dags =
        std::make_shared<const DagSet>(routing::shortestPathDags(weighted));
    const auto ecmp = routing::ecmpConfig(weighted, dags);
    double worst = 0.0;
    for (const auto& d : tm::cornerPool(box)) {
      const double optu = routing::optimalUtilizationUnrestricted(weighted, d);
      if (optu <= 1e-12) continue;
      worst = std::max(
          worst, routing::maxLinkUtilization(weighted, ecmp, d) / optu);
    }
    return worst;
  };

  Graph tuned = g;
  for (EdgeId e = 0; e < g.numEdges(); ++e) tuned.setWeight(e, res.weights[e]);
  EXPECT_LE(evalEcmp(tuned), evalEcmp(g) + 1e-6);
}

TEST(LocalSearch, DegenerateZeroDemandBox) {
  const Graph g = topo::makeZoo("Gambia");
  const tm::TrafficMatrix zero(g.numNodes());
  const tm::DemandBounds box(zero, zero);
  const LocalSearchResult res = localSearchWeights(g, box, {});
  EXPECT_DOUBLE_EQ(res.utilization, 0.0);
}

// ---------------------------------------------------------------------------
// require() failure paths of the optimizer entry points.
// ---------------------------------------------------------------------------

TEST(CoyoteEdgeCases, EmptyOptimizationPoolThrows) {
  const Graph g = topo::prototypeTriangle();
  const auto dags = augmentedDagsShared(g);
  routing::PerformanceEvaluator empty_pool(g, dags);
  EXPECT_THROW(optimizeAgainstPool(g, empty_pool, nullptr, {}),
               std::invalid_argument);
  const auto init = routing::RoutingConfig::uniform(g, dags);
  EXPECT_THROW(optimizeSplitting(g, empty_pool, init, {}),
               std::invalid_argument);
}

TEST(CoyoteEdgeCases, ZeroIterationSplittingThrows) {
  const Graph g = topo::prototypeTriangle();
  const auto dags = augmentedDagsShared(g);
  routing::PerformanceEvaluator eval(g, dags);
  eval.addMatrix(tm::gravityMatrix(g, 1.0));
  const auto init = routing::RoutingConfig::uniform(g, dags);
  SplittingOptions opt;
  opt.iterations = 0;
  EXPECT_THROW(optimizeSplitting(g, eval, init, opt), std::invalid_argument);
}

TEST(CoyoteEdgeCases, LocalSearchOptionValidation) {
  const Graph g = topo::prototypeTriangle();
  const tm::DemandBounds box = tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0);
  LocalSearchOptions opt;
  opt.max_rounds = 0;
  EXPECT_THROW(localSearchWeights(g, box, opt), std::invalid_argument);
}

}  // namespace
}  // namespace coyote::core
