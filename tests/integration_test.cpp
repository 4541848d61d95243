// Cross-module integration tests: the full COYOTE pipeline from uncertainty
// bounds to verified OSPF lies and emulated traffic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "core/coyote.hpp"
#include "core/dag_builder.hpp"
#include "core/local_search.hpp"
#include "fibbing/lie_synthesis.hpp"
#include "fibbing/ospf_model.hpp"
#include "routing/ecmp.hpp"
#include "routing/propagation.hpp"
#include "routing/worst_case.hpp"
#include "sim/fluid.hpp"
#include "tm/traffic_matrix.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "util/env.hpp"

namespace coyote {
namespace {

TEST(Pipeline, BoundsToVerifiedLies) {
  // bounds -> DAGs -> splitting -> quantization -> lies -> verified FIBs.
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const tm::DemandBounds box = tm::marginBounds(base, 2.0);

  core::CoyoteOptions copt;
  copt.splitting.iterations = 250;
  const core::CoyoteResult res =
      core::coyoteWithBounds(g, dags, box, {}, copt);

  constexpr int kBudget = 5;
  const routing::RoutingConfig wire = fib::quantizeConfig(g, res.routing, kBudget);
  wire.validate(g);

  fib::OspfModel model(g);
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    model.advertisePrefix(t, t);
    fib::applyPlan(model, fib::synthesizeLies(g, wire, t, t, kBudget));
    ASSERT_TRUE(fib::verifyRealization(model, wire, t, t, kBudget))
        << "dest " << g.nodeName(t);
    ASSERT_TRUE(model.forwardingIsLoopFree(t));
  }

  // The wire config's performance stays close to the ideal one.
  routing::PerformanceEvaluator eval(g, dags);
  tm::PoolOptions popt;
  popt.source_hotspots = false;
  popt.random_corners = 4;
  eval.addPool(tm::cornerPool(box, popt));
  EXPECT_LE(eval.ratioFor(wire), eval.ratioFor(res.routing) + 0.15);
}

TEST(Pipeline, FluidEmulationMatchesPropagation) {
  // Install a COYOTE config in the fluid emulator (one prefix per
  // destination) and check that a demand matrix routable below capacity is
  // delivered losslessly, matching the propagation model's loads.
  const Graph g = topo::makeZoo("NSF");
  const auto dags = core::augmentedDagsShared(g);
  const auto cfg = routing::RoutingConfig::uniform(g, dags);

  tm::TrafficMatrix d = tm::gravityMatrix(g, 10.0);
  const double mxlu = routing::maxLinkUtilization(g, cfg, d);
  d.scale(0.9 / mxlu);  // now strictly below every capacity

  sim::FluidNetwork net(g);
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    net.setPrefixOwner(t, t);
    for (NodeId u = 0; u < g.numNodes(); ++u) {
      if (u == t) continue;
      std::vector<std::pair<EdgeId, double>> splits;
      for (const EdgeId e : (*dags)[t].outEdges(u)) {
        splits.emplace_back(e, cfg.ratio(t, e));
      }
      if (!splits.empty()) net.setForwarding(t, u, std::move(splits));
    }
    for (NodeId s = 0; s < g.numNodes(); ++s) {
      if (s != t && d.at(s, t) > 0.0) {
        net.addFlow({s, t, d.at(s, t), 0.0, 1.0});
      }
    }
  }
  const auto stats = net.run(1.0, 1.0);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_NEAR(stats[0].sent, d.total(), 1e-6);
  EXPECT_NEAR(stats[0].dropRate(), 0.0, 1e-9);
}

TEST(Pipeline, FluidEmulationDropsAtTheBottleneck) {
  // Scale the same demand matrix to 2x the bottleneck: the emulator must
  // drop traffic; a loose sanity band relates drop rate to over-utilization.
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  const auto cfg = routing::RoutingConfig::uniform(g, dags);
  tm::TrafficMatrix d = tm::gravityMatrix(g, 10.0);
  d.scale(2.0 / routing::maxLinkUtilization(g, cfg, d));

  sim::FluidNetwork net(g);
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    net.setPrefixOwner(t, t);
    for (NodeId u = 0; u < g.numNodes(); ++u) {
      if (u == t) continue;
      std::vector<std::pair<EdgeId, double>> splits;
      for (const EdgeId e : (*dags)[t].outEdges(u)) {
        splits.emplace_back(e, cfg.ratio(t, e));
      }
      if (!splits.empty()) net.setForwarding(t, u, std::move(splits));
    }
    for (NodeId s = 0; s < g.numNodes(); ++s) {
      if (s != t && d.at(s, t) > 0.0) {
        net.addFlow({s, t, d.at(s, t), 0.0, 1.0});
      }
    }
  }
  const auto stats = net.run(1.0, 1.0);
  EXPECT_GT(stats[0].dropRate(), 0.0);
  EXPECT_LT(stats[0].dropRate(), 0.5);  // only the bottleneck links drop
}

TEST(Pipeline, PoolRatioLowerBoundsExactRatio) {
  // The corner pool is a subset of the box, so the exact slave-LP worst
  // case can only be worse (greater or equal).
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = [&] {
    tm::TrafficMatrix d(g.numNodes());
    d.set(*g.findNode("s1"), *g.findNode("t"), 1.0);
    d.set(*g.findNode("s2"), *g.findNode("t"), 0.5);
    d.set(*g.findNode("v"), *g.findNode("t"), 0.25);
    return d;
  }();
  const tm::DemandBounds box = tm::marginBounds(base, 2.0);

  routing::PerformanceEvaluator pool(g, dags);
  pool.addPool(tm::cornerPool(box, {}));
  const auto cfg = routing::RoutingConfig::uniform(g, dags);
  const double pool_ratio = pool.ratioFor(cfg);
  const double exact = routing::findWorstCaseDemand(g, cfg, &box).ratio;
  EXPECT_GE(exact, pool_ratio - 1e-6);
}

TEST(Pipeline, LocalSearchFeedsCoyote) {
  // Fig. 9 pipeline for one margin: tuned weights -> augmented DAGs ->
  // ECMP vs COYOTE on the same pool.
  const Graph base_graph = topo::makeZoo("Abilene");
  const tm::TrafficMatrix base = tm::bimodalMatrix(base_graph, {}, 31, 1.0);
  const tm::DemandBounds box = tm::marginBounds(base, 2.0);

  core::LocalSearchOptions ls;
  ls.max_rounds = 2;
  ls.max_moves_per_round = 8;
  const core::LocalSearchResult found =
      core::localSearchWeights(base_graph, box, ls);

  Graph g = base_graph;
  for (EdgeId e = 0; e < g.numEdges(); ++e) g.setWeight(e, found.weights[e]);
  const auto dags = core::augmentedDagsShared(g);
  routing::PerformanceEvaluator pool(g, dags);
  tm::PoolOptions popt;
  popt.source_hotspots = false;
  popt.random_corners = 4;
  pool.addPool(tm::cornerPool(box, popt));

  core::CoyoteOptions copt;
  copt.splitting.iterations = 200;
  const core::CoyoteResult pk = core::optimizeAgainstPool(g, pool, &box, copt);
  EXPECT_LE(pk.pool_ratio,
            pool.ratioFor(routing::ecmpConfig(g, dags)) + 1e-9);
}

class RandomBackbonePipeline : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomBackbonePipeline, CoyoteNeverWorseThanEcmp) {
  const Graph g = topo::randomBackbone(11, 3.0, GetParam());
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const tm::DemandBounds box = tm::marginBounds(base, 2.0);
  routing::PerformanceEvaluator pool(g, dags);
  tm::PoolOptions popt;
  popt.source_hotspots = false;
  popt.random_corners = 3;
  popt.seed = GetParam();
  pool.addPool(tm::cornerPool(box, popt));
  core::CoyoteOptions copt;
  copt.splitting.iterations = 150;
  const core::CoyoteResult pk = core::optimizeAgainstPool(g, pool, &box, copt);
  EXPECT_LE(pk.pool_ratio,
            pool.ratioFor(routing::ecmpConfig(g, dags)) + 1e-9)
      << "seed " << GetParam();
  // And the lies for the result verify on the OSPF model.
  const auto wire = fib::quantizeConfig(g, pk.routing, 6);
  fib::OspfModel model(g);
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    model.advertisePrefix(t, t);
    fib::applyPlan(model, fib::synthesizeLies(g, wire, t, t, 6));
    EXPECT_TRUE(fib::verifyRealization(model, wire, t, t, 6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBackbonePipeline,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// COYOTE_FULL=1 sweep (the ctest `full' label; skipped in quick runs).
// ---------------------------------------------------------------------------

TEST(FullSweep, BoundsToVerifiedLiesAcrossCorpus) {
  if (!util::envFlag("COYOTE_FULL")) {
    GTEST_SKIP() << "set COYOTE_FULL=1 (ctest label `full') for the sweep";
  }
  // The Abilene pipeline check of Pipeline.BoundsToVerifiedLies, across
  // every corpus backbone with a reduced iteration budget.
  for (const std::string& name : topo::zooNames()) {
    const Graph g = topo::makeZoo(name);
    const auto dags = core::augmentedDagsShared(g);
    const tm::DemandBounds box =
        tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0);
    core::CoyoteOptions copt;
    copt.splitting.iterations = 60;
    const core::CoyoteResult res =
        core::coyoteWithBounds(g, dags, box, {}, copt);
    constexpr int kBudget = 5;
    const routing::RoutingConfig wire =
        fib::quantizeConfig(g, res.routing, kBudget);
    wire.validate(g);
    fib::OspfModel model(g);
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      model.advertisePrefix(t, t);
      fib::applyPlan(model, fib::synthesizeLies(g, wire, t, t, kBudget));
      ASSERT_TRUE(fib::verifyRealization(model, wire, t, t, kBudget))
          << name << " dest " << g.nodeName(t);
      ASSERT_TRUE(model.forwardingIsLoopFree(t)) << name;
    }
  }
}

}  // namespace
}  // namespace coyote
