#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "core/dag_builder.hpp"
#include "routing/config.hpp"
#include "routing/ecmp.hpp"
#include "routing/evaluator.hpp"
#include "routing/optu.hpp"
#include "routing/propagation.hpp"
#include "routing/stretch.hpp"
#include "routing/worst_case.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "util/thread_pool.hpp"

namespace coyote::routing {
namespace {

const double kGolden = (std::sqrt(5.0) - 1.0) / 2.0;  // ~0.618

/// The Fig. 1c DAG of the running example: s1->{s2,v}, s2->{v,t}, v->t,
/// with the given splits at s1 and s2.
struct RunningExample {
  Graph g = topo::runningExample();
  NodeId s1, s2, v, t;
  std::shared_ptr<const DagSet> dags;

  RunningExample() {
    s1 = *g.findNode("s1");
    s2 = *g.findNode("s2");
    v = *g.findNode("v");
    t = *g.findNode("t");
    dags = core::augmentedDagsShared(g);
  }

  RoutingConfig config(double phi_s1s2, double phi_s2t) const {
    RoutingConfig cfg(g, dags);
    cfg.setRatio(t, *g.findEdge(s1, s2), phi_s1s2);
    cfg.setRatio(t, *g.findEdge(s1, v), 1.0 - phi_s1s2);
    cfg.setRatio(t, *g.findEdge(s2, t), phi_s2t);
    cfg.setRatio(t, *g.findEdge(s2, v), 1.0 - phi_s2t);
    cfg.setRatio(t, *g.findEdge(v, t), 1.0);
    // Other destinations: equal split (irrelevant for t-only demands).
    RoutingConfig uni = RoutingConfig::uniform(g, dags);
    for (NodeId d = 0; d < g.numNodes(); ++d) {
      if (d == t) continue;
      for (const EdgeId e : (*dags)[d].edges()) {
        cfg.setRatio(d, e, uni.ratio(d, e));
      }
    }
    cfg.validate(g);
    return cfg;
  }

  tm::TrafficMatrix demand(double d1, double d2) const {
    tm::TrafficMatrix d(g.numNodes());
    if (d1 > 0) d.set(s1, t, d1);
    if (d2 > 0) d.set(s2, t, d2);
    return d;
  }
};

TEST(RunningExampleDag, MatchesFigure1c) {
  const RunningExample ex;
  const Dag& dag = (*ex.dags)[ex.t];
  EXPECT_EQ(dag.edges().size(), 5u);
  EXPECT_TRUE(dag.contains(*ex.g.findEdge(ex.s1, ex.s2)));
  EXPECT_TRUE(dag.contains(*ex.g.findEdge(ex.s1, ex.v)));
  EXPECT_TRUE(dag.contains(*ex.g.findEdge(ex.s2, ex.v)));  // tie-break
  EXPECT_TRUE(dag.contains(*ex.g.findEdge(ex.s2, ex.t)));
  EXPECT_TRUE(dag.contains(*ex.g.findEdge(ex.v, ex.t)));
}

// ---------------------------------------------------------------------------

TEST(RoutingConfig, UniformSumsToOne) {
  const Graph g = topo::makeZoo("NSF");
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig cfg = RoutingConfig::uniform(g, dags);
  cfg.validate(g);  // must not throw
}

TEST(RoutingConfig, SetRatioOutsideDagThrows) {
  const RunningExample ex;
  // (t has no out-edges in its own DAG; edge v->s2 is not in the DAG).
  const EdgeId vs2 = *ex.g.findEdge(ex.v, ex.s2);
  RoutingConfig cfg(ex.g, ex.dags);
  EXPECT_THROW(cfg.setRatio(ex.t, vs2, 0.5), std::invalid_argument);
}

TEST(RoutingConfig, ValidateCatchesBadSums) {
  const RunningExample ex;
  RoutingConfig cfg(ex.g, ex.dags);
  cfg.setRatio(ex.t, *ex.g.findEdge(ex.s1, ex.s2), 0.9);  // 0.9 != 1
  EXPECT_THROW(cfg.validate(ex.g), std::logic_error);
  // Only s1's split toward t is off; the message names both nodes.
  RoutingConfig one = RoutingConfig::uniform(ex.g, ex.dags);
  one.setRatio(ex.t, *ex.g.findEdge(ex.s1, ex.s2), 0.9);
  try {
    one.validate(ex.g);
    ADD_FAILURE() << "validate accepted ratios summing to 1.4";
  } catch (const std::logic_error& err) {
    EXPECT_STREQ(err.what(),
                 "splitting ratios at node s1 toward t sum to 1.400000");
  }
}

TEST(RoutingConfig, NormalizeRescalesAndFillsUniform) {
  const RunningExample ex;
  RoutingConfig cfg(ex.g, ex.dags);
  cfg.setRatio(ex.t, *ex.g.findEdge(ex.s1, ex.s2), 3.0);
  cfg.setRatio(ex.t, *ex.g.findEdge(ex.s1, ex.v), 1.0);
  cfg.normalize(ex.g);
  EXPECT_NEAR(cfg.ratio(ex.t, *ex.g.findEdge(ex.s1, ex.s2)), 0.75, 1e-12);
  // s2 had no ratios at all -> uniform fallback over its two DAG out-edges.
  EXPECT_NEAR(cfg.ratio(ex.t, *ex.g.findEdge(ex.s2, ex.t)), 0.5, 1e-12);
  cfg.validate(ex.g);
}

// ---------------------------------------------------------------------------

TEST(Propagation, SinglePathCarriesAllDemand) {
  const RunningExample ex;
  const RoutingConfig cfg = ex.config(1.0, 1.0);  // all via s2 -> t
  const LinkLoads loads = computeLoads(ex.g, cfg, ex.demand(2.0, 0.0));
  EXPECT_NEAR(loads[*ex.g.findEdge(ex.s1, ex.s2)], 2.0, 1e-12);
  EXPECT_NEAR(loads[*ex.g.findEdge(ex.s2, ex.t)], 2.0, 1e-12);
  EXPECT_NEAR(loads[*ex.g.findEdge(ex.v, ex.t)], 0.0, 1e-12);
}

TEST(Propagation, FlowIsConservedAtDestination) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig cfg = RoutingConfig::uniform(g, dags);
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 50.0);
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    LinkLoads loads(g.numEdges(), 0.0);
    accumulateDestinationLoads(g, cfg, d, t, loads);
    double into_t = 0.0;
    for (const EdgeId e : g.inEdges(t)) into_t += loads[e];
    double demand_to_t = 0.0;
    for (NodeId s = 0; s < g.numNodes(); ++s) {
      if (s != t) demand_to_t += d.at(s, t);
    }
    EXPECT_NEAR(into_t, demand_to_t, 1e-9) << "t=" << t;
  }
}

TEST(Propagation, MatchesManualComputationOnFig1c) {
  const RunningExample ex;
  const RoutingConfig cfg = ex.config(0.5, 2.0 / 3.0);  // Fig. 1c splits
  // D1 = (2,0): load(v,t) = 2*(1 - 1/2 * 2/3) = 4/3.
  const LinkLoads l1 = computeLoads(ex.g, cfg, ex.demand(2.0, 0.0));
  EXPECT_NEAR(l1[*ex.g.findEdge(ex.v, ex.t)], 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(l1[*ex.g.findEdge(ex.s2, ex.t)], 2.0 / 3.0, 1e-12);
  // D2 = (0,2): load(s2,t) = 2*2/3 = 4/3.
  const LinkLoads l2 = computeLoads(ex.g, cfg, ex.demand(0.0, 2.0));
  EXPECT_NEAR(l2[*ex.g.findEdge(ex.s2, ex.t)], 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(l2[*ex.g.findEdge(ex.v, ex.t)], 2.0 / 3.0, 1e-12);
  // Both worst cases are exactly 4/3 (caption of Fig. 1c).
  EXPECT_NEAR(maxLinkUtilization(ex.g, cfg, ex.demand(2.0, 0.0)), 4.0 / 3.0,
              1e-12);
  EXPECT_NEAR(maxLinkUtilization(ex.g, cfg, ex.demand(0.0, 2.0)), 4.0 / 3.0,
              1e-12);
}

TEST(Propagation, GoldenRatioSplitsGiveSqrt5Minus1) {
  const RunningExample ex;
  const RoutingConfig cfg = ex.config(kGolden, kGolden);
  EXPECT_NEAR(maxLinkUtilization(ex.g, cfg, ex.demand(2.0, 0.0)),
              std::sqrt(5.0) - 1.0, 1e-9);
  EXPECT_NEAR(maxLinkUtilization(ex.g, cfg, ex.demand(0.0, 2.0)),
              std::sqrt(5.0) - 1.0, 1e-9);
}

TEST(Propagation, SourceFractionsDecomposeLoads) {
  const Graph g = topo::makeZoo("NSF");
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig cfg = RoutingConfig::uniform(g, dags);
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 10.0);
  // Reconstruct loads from per-pair fractions l_st(e) = f_st(u)*phi_t(e).
  LinkLoads direct = computeLoads(g, cfg, d);
  LinkLoads rebuilt(g.numEdges(), 0.0);
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    for (NodeId s = 0; s < g.numNodes(); ++s) {
      if (s == t || d.at(s, t) <= 0.0) continue;
      const auto f = sourceFractions(g, cfg, s, t);
      for (const EdgeId e : (*dags)[t].edges()) {
        rebuilt[e] += d.at(s, t) * f[g.edge(e).src] * cfg.ratio(t, e);
      }
    }
  }
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    EXPECT_NEAR(rebuilt[e], direct[e], 1e-9) << "e=" << e;
  }
}

TEST(Propagation, ExpectedHopCountOnChain) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId c = g.addNode();
  g.addLink(a, b);
  g.addLink(b, c);
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig cfg = RoutingConfig::uniform(g, dags);
  EXPECT_NEAR(expectedHopCount(g, cfg, a, c), 2.0, 1e-12);
  EXPECT_NEAR(expectedHopCount(g, cfg, b, c), 1.0, 1e-12);
  EXPECT_NEAR(expectedHopCount(g, cfg, c, c), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------

TEST(Ecmp, EqualSplitOnDiamond) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId c = g.addNode();
  const NodeId d = g.addNode();
  g.addLink(a, b);
  g.addLink(a, c);
  g.addLink(b, d);
  g.addLink(c, d);
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig ecmp = ecmpConfig(g, dags);
  EXPECT_NEAR(ecmp.ratio(d, *g.findEdge(a, b)), 0.5, 1e-12);
  EXPECT_NEAR(ecmp.ratio(d, *g.findEdge(a, c)), 0.5, 1e-12);
  EXPECT_NEAR(ecmp.ratio(d, *g.findEdge(b, d)), 1.0, 1e-12);
}

TEST(Ecmp, ZeroOnNonShortestDagEdges) {
  const RunningExample ex;
  const RoutingConfig ecmp = ecmpConfig(ex.g, ex.dags);
  // With unit weights, s2's shortest path is the direct edge only; the
  // augmented edge (s2,v) carries ratio 0.
  EXPECT_NEAR(ecmp.ratio(ex.t, *ex.g.findEdge(ex.s2, ex.t)), 1.0, 1e-12);
  EXPECT_NEAR(ecmp.ratio(ex.t, *ex.g.findEdge(ex.s2, ex.v)), 0.0, 1e-12);
}

class EcmpValidOnZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(EcmpValidOnZoo, ConfigValidates) {
  const Graph g = topo::makeZoo(GetParam());
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig ecmp = ecmpConfig(g, dags);
  ecmp.validate(g);
}

INSTANTIATE_TEST_SUITE_P(Zoo, EcmpValidOnZoo,
                         ::testing::Values("Abilene", "NSF", "Geant",
                                           "Germany", "InternetMCI", "GRNet",
                                           "Gambia", "BBNPlanet"));

// ---------------------------------------------------------------------------

TEST(Optu, TwoDisjointPaths) {
  const RunningExample ex;
  // D1 = (2,0) can be routed at utilization 1 inside the Fig. 1c DAG.
  EXPECT_NEAR(optimalUtilization(ex.g, *ex.dags, ex.demand(2.0, 0.0)), 1.0,
              1e-7);
  EXPECT_NEAR(optimalUtilization(ex.g, *ex.dags, ex.demand(0.0, 2.0)), 1.0,
              1e-7);
  EXPECT_NEAR(optimalUtilization(ex.g, *ex.dags, ex.demand(1.0, 1.0)), 1.0,
              1e-7);
}

TEST(Optu, ScalesLinearly) {
  const RunningExample ex;
  const double u1 = optimalUtilization(ex.g, *ex.dags, ex.demand(1.0, 0.5));
  const double u2 = optimalUtilization(ex.g, *ex.dags, ex.demand(2.0, 1.0));
  EXPECT_NEAR(u2, 2.0 * u1, 1e-6);
}

// The simplex's feasibility tolerance is absolute, so without the engine's
// power-of-two rescale a tiny demand routes "feasibly" on zero flow.
TEST(Optu, EveryEntryPointIsScaleInvariant) {
  util::ThreadPool tp(2);
  for (const char* name : {"Abilene", "Geant"}) {
    const Graph g = topo::makeZoo(name);
    const auto dags = core::augmentedDagsShared(g);
    const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
    for (const bool within_dags : {true, false}) {
      SCOPED_TRACE(std::string(name) + (within_dags ? " dags" : " any"));
      const auto engine = [&] {
        return within_dags ? std::make_unique<OptuEngine>(g, dags)
                           : std::make_unique<OptuEngine>(g);
      };
      const double optu = engine()->utilization(base);
      ASSERT_GT(optu, 0.0);
      for (const int k : {-40, -30, -20, -10, 0, 10, 20}) {
        SCOPED_TRACE(k);
        tm::TrafficMatrix d = base;
        d.scale(std::ldexp(1.0, k));
        const double want = std::ldexp(optu, k);
        const auto near = [&](double got) {
          EXPECT_NEAR(got / want, 1.0, 1e-12) << got << " vs " << want;
        };
        near(engine()->utilization(d));
        near(engine()->utilizationBatch({d}, tp).front());
        near(engine()->utilizationAt(0, d));
        const auto [alpha, flows] = engine()->utilizationWithFlows(d);
        near(alpha);
        // The flows route d: each destination's flow out of the sources
        // sums to the demand it carries.
        for (NodeId t = 0; t < g.numNodes(); ++t) {
          if (flows[t].empty()) continue;
          double into = 0.0;
          for (EdgeId e = 0; e < g.numEdges(); ++e) {
            if (g.edge(e).dst == t) into += flows[t][e];
          }
          double sent = 0.0;
          for (NodeId s = 0; s < g.numNodes(); ++s) {
            if (s != t) sent += d.at(s, t);
          }
          EXPECT_NEAR(into / sent, 1.0, 1e-9);
        }
      }
    }
  }
}

TEST(Optu, UnrestrictedNeverWorseThanDagRestricted) {
  const Graph g = topo::makeZoo("NSF");
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 20.0);
  const double dag_u = optimalUtilization(g, *dags, d);
  const double any_u = optimalUtilizationUnrestricted(g, d);
  EXPECT_LE(any_u, dag_u + 1e-6);
  EXPECT_GT(any_u, 0.0);
}

TEST(Optu, OptimalRoutingAchievesAlpha) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 30.0);
  const OptimalRouting opt = optimalRoutingForDemand(g, dags, d);
  EXPECT_GT(opt.utilization, 0.0);
  EXPECT_NEAR(maxLinkUtilization(g, opt.routing, d), opt.utilization, 1e-5);
}

TEST(Optu, OptimalBeatsOrMatchesEcmp) {
  const Graph g = topo::makeZoo("Geant");
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 10.0);
  const double opt = optimalUtilization(g, *dags, d);
  const double ecmp = maxLinkUtilization(g, ecmpConfig(g, dags), d);
  EXPECT_LE(opt, ecmp + 1e-9);
}

TEST(Optu, ThrowsWhenDemandNotRoutableInDag) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId t = g.addNode();
  g.addEdge(a, t);
  g.addEdge(b, a);  // b can reach t only through a
  DagSet dags;
  for (NodeId dest = 0; dest < 3; ++dest) {
    std::vector<EdgeId> edges;
    if (dest == t) edges = {*g.findEdge(a, t)};  // b's edge omitted
    dags.emplace_back(g, dest, std::move(edges));
  }
  tm::TrafficMatrix d(3);
  d.set(b, t, 1.0);
  EXPECT_THROW((void)optimalUtilization(g, dags, d), std::invalid_argument);
}

// ---------------------------------------------------------------------------

tm::DemandBounds twoUserBox(const RunningExample& ex) {
  // Only s1 and s2 may send traffic (to t), with a free scale -- the
  // "two network users" demand space of Sec. II / Appendix B.
  tm::TrafficMatrix lo(ex.g.numNodes());
  tm::TrafficMatrix hi(ex.g.numNodes());
  hi.set(ex.s1, ex.t, 1.0);
  hi.set(ex.s2, ex.t, 1.0);
  return {lo, hi};
}

TEST(WorstCase, GoldenRoutingHasOptimalObliviousRatio) {
  const RunningExample ex;
  const RoutingConfig golden = ex.config(kGolden, kGolden);
  const tm::DemandBounds box = twoUserBox(ex);
  const WorstCaseResult wc = findWorstCaseDemand(ex.g, golden, &box);
  EXPECT_NEAR(wc.ratio, std::sqrt(5.0) - 1.0, 1e-5);
}

TEST(WorstCase, Fig1cRoutingHasRatioFourThirds) {
  const RunningExample ex;
  const RoutingConfig cfg = ex.config(0.5, 2.0 / 3.0);
  const tm::DemandBounds box = twoUserBox(ex);
  const WorstCaseResult wc = findWorstCaseDemand(ex.g, cfg, &box);
  EXPECT_NEAR(wc.ratio, 4.0 / 3.0, 1e-5);
}

TEST(WorstCase, WorstDemandIsRoutableWithinCapacities) {
  const RunningExample ex;
  const RoutingConfig cfg = ex.config(0.5, 0.5);
  const WorstCaseResult wc = findWorstCaseDemand(ex.g, cfg);
  EXPECT_GT(wc.ratio, 1.0);
  EXPECT_LE(optimalUtilization(ex.g, *ex.dags, wc.demand), 1.0 + 1e-6);
  // The reported ratio is exactly the utilization cfg suffers on it.
  EXPECT_NEAR(maxLinkUtilization(ex.g, cfg, wc.demand), wc.ratio, 1e-6);
}

TEST(WorstCase, UnloadableEdgeHasRatioZero) {
  // An edge that no routing entry ever uses admits no adversarial demand;
  // the slave LP must report 0 instead of building an empty LP.
  const RunningExample ex;
  routing::RoutingConfig cfg(ex.g, ex.dags);
  // Route only toward t, all direct: s1->v->t unused beyond v->t; the
  // remaining destinations get no ratios at all (empty problem rows).
  cfg.setRatio(ex.t, *ex.g.findEdge(ex.s1, ex.s2), 1.0);
  cfg.setRatio(ex.t, *ex.g.findEdge(ex.s2, ex.t), 1.0);
  cfg.setRatio(ex.t, *ex.g.findEdge(ex.v, ex.t), 1.0);
  const EdgeId s1v = *ex.g.findEdge(ex.s1, ex.v);
  const WorstCaseResult wc = findWorstCaseDemandForEdge(ex.g, cfg, s1v);
  EXPECT_DOUBLE_EQ(wc.ratio, 0.0);
  EXPECT_DOUBLE_EQ(wc.demand.total(), 0.0);
}

TEST(WorstCase, BoxRestrictsTheAdversary) {
  const RunningExample ex;
  const RoutingConfig cfg = ex.config(0.5, 1.0);
  // Unrestricted adversary vs. one confined near the balanced demand.
  tm::TrafficMatrix base(ex.g.numNodes());
  base.set(ex.s1, ex.t, 1.0);
  base.set(ex.s2, ex.t, 1.0);
  const tm::DemandBounds tight = tm::marginBounds(base, 1.0);
  const WorstCaseResult free_adv = findWorstCaseDemand(ex.g, cfg);
  const WorstCaseResult tight_adv = findWorstCaseDemand(ex.g, cfg, &tight);
  EXPECT_GE(free_adv.ratio, tight_adv.ratio - 1e-9);
}

TEST(WorstCase, SingleEdgeQuery) {
  const RunningExample ex;
  const RoutingConfig cfg = ex.config(0.5, 1.0);
  const tm::DemandBounds box = twoUserBox(ex);
  const EdgeId s2t = *ex.g.findEdge(ex.s2, ex.t);
  const WorstCaseResult wc = findWorstCaseDemandForEdge(ex.g, cfg, s2t, &box);
  // With only s1/s2 sending to t: max 0.5*d1 + d2 subject to d1 + d2 <= 2
  // (the cut into t) is attained at d = (0,2) with utilization 2.
  EXPECT_NEAR(wc.ratio, 2.0, 1e-5);
  EXPECT_EQ(wc.edge, s2t);
  EXPECT_NEAR(wc.demand.at(ex.s2, ex.t), 2.0, 1e-5);
}

TEST(WorstCase, FullScanMatchesPerEdgeQueries) {
  // findWorstCaseDemand fans the per-edge LPs out on the thread pool;
  // its result must equal the serial per-edge scan, ties resolving to
  // the lowest edge id.
  const RunningExample ex;
  const RoutingConfig cfg = ex.config(0.5, 1.0);
  const tm::DemandBounds box = twoUserBox(ex);
  const WorstCaseResult all = findWorstCaseDemand(ex.g, cfg, &box);
  double best = -1.0;
  EdgeId arg = kInvalidEdge;
  for (EdgeId e = 0; e < ex.g.numEdges(); ++e) {
    const double r = findWorstCaseDemandForEdge(ex.g, cfg, e, &box).ratio;
    if (r > best) {
      best = r;
      arg = e;
    }
  }
  EXPECT_EQ(all.edge, arg);
  EXPECT_DOUBLE_EQ(all.ratio, best);
}

TEST(WorstCase, CrossDestinationTrafficRaisesTheObliviousRatio) {
  // Without the two-user restriction the adversary may also route demands
  // toward other destinations across (s2,t); the oblivious ratio can only
  // grow.
  const RunningExample ex;
  const RoutingConfig cfg = ex.config(0.5, 1.0);
  const tm::DemandBounds box = twoUserBox(ex);
  const EdgeId s2t = *ex.g.findEdge(ex.s2, ex.t);
  const double boxed = findWorstCaseDemandForEdge(ex.g, cfg, s2t, &box).ratio;
  const double free_ratio = findWorstCaseDemandForEdge(ex.g, cfg, s2t).ratio;
  EXPECT_GE(free_ratio, boxed - 1e-9);
}

// ---------------------------------------------------------------------------

TEST(Evaluator, NormalizesToUnitOptu) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  PerformanceEvaluator eval(g, dags);
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 123.0);
  ASSERT_EQ(eval.addMatrix(d), 0);
  EXPECT_NEAR(optimalUtilization(g, *dags, eval.matrix(0)), 1.0, 1e-6);
  // The optimal routing for that matrix evaluates to ratio ~1.
  const OptimalRouting opt = optimalRoutingForDemand(g, dags, d);
  EXPECT_NEAR(eval.ratioFor(opt.routing), 1.0, 1e-5);
}

TEST(Evaluator, DeduplicatesAndSkipsZero) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  PerformanceEvaluator eval(g, dags);
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 1.0);
  EXPECT_EQ(eval.addMatrix(d), 0);
  EXPECT_EQ(eval.addMatrix(d), -1);  // duplicate
  EXPECT_EQ(eval.addMatrix(tm::TrafficMatrix(g.numNodes())), -1);  // zero
  EXPECT_EQ(eval.size(), 1);
}

TEST(Evaluator, WorstReportsArgmax) {
  const RunningExample ex;
  PerformanceEvaluator eval(ex.g, ex.dags);
  ASSERT_EQ(eval.addMatrix(ex.demand(2.0, 0.0)), 0);
  ASSERT_EQ(eval.addMatrix(ex.demand(0.0, 2.0)), 1);
  // All-direct-ish routing is bad for D2 (everything through (s2,t)).
  const RoutingConfig cfg = ex.config(1.0, 1.0);
  const auto [idx, ratio] = eval.worst(cfg);
  EXPECT_EQ(idx, 0);  // D1 pushes 2 units through (s1,s2)->(s2,t)
  EXPECT_NEAR(ratio, 2.0, 1e-6);
}

// ---------------------------------------------------------------------------

TEST(Stretch, IdentityIsOne) {
  const Graph g = topo::makeZoo("NSF");
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig ecmp = ecmpConfig(g, dags);
  EXPECT_NEAR(averageStretch(g, ecmp, ecmp), 1.0, 1e-12);
}

TEST(Stretch, UniformAugmentedIsLongerThanEcmp) {
  const Graph g = topo::makeZoo("Geant");
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig ecmp = ecmpConfig(g, dags);
  const RoutingConfig uni = RoutingConfig::uniform(g, dags);
  // Spreading over every augmented edge takes detours.
  EXPECT_GT(averageStretch(g, uni, ecmp), 1.0);
}

}  // namespace
}  // namespace coyote::routing
