// The link-failure robustness subsystem (src/failure/): scenario
// enumeration, post-failure network derivation (capacity zeroing, DAG
// repair, OSPF reconvergence), the scheme failure evaluator (generic over
// te::Scheme lists; the paper's four by default), its warm-started OPTU
// re-solves, thread-count bit-identity, and the experiment-runner
// integration (coyote-bench/4 'failures' block).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/coyote.hpp"
#include "core/dag_builder.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "failure/degrade.hpp"
#include "failure/evaluate.hpp"
#include "failure/scenario.hpp"
#include "core/splitting_optimizer.hpp"
#include "graph/dijkstra.hpp"
#include "lp/stats.hpp"
#include "routing/ecmp.hpp"
#include "routing/evaluator.hpp"
#include "routing/optu.hpp"
#include "routing/propagation.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"

namespace coyote::failure {
namespace {

// ---------------------------------------------------------------------------
// Enumeration.
// ---------------------------------------------------------------------------

TEST(FailureScenarios, SingleLinkEnumerationOnRunningExample) {
  const Graph g = topo::runningExample();
  const auto links = physicalLinks(g);
  EXPECT_EQ(links.size(), 5u);  // Fig. 1a has five bidirectional links
  const auto fails = singleLinkFailures(g);
  ASSERT_EQ(fails.size(), 5u);
  EXPECT_EQ(fails[0].label, "s1-s2");
  for (const FailureScenario& f : fails) {
    ASSERT_EQ(f.links.size(), 1u);
    // Both directions are failed.
    EXPECT_EQ(directedEdges(g, f).size(), 2u);
  }
}

TEST(FailureScenarios, DoubleLinkSamplingIsDeterministicAndUnique) {
  const Graph g = topo::makeZoo("Abilene");
  const auto a = sampledDoubleLinkFailures(g, 10, 17);
  const auto b = sampledDoubleLinkFailures(g, 10, 17);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].links, b[i].links);
    EXPECT_EQ(a[i].links.size(), 2u);
    EXPECT_LT(a[i].links[0], a[i].links[1]);
  }
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_NE(a[i - 1].links, a[i].links);  // sorted + without replacement
  }
  // A different seed draws a different sample (overwhelmingly likely).
  const auto c = sampledDoubleLinkFailures(g, 10, 18);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || a[i].links != c[i].links;
  }
  EXPECT_TRUE(any_diff);
  // Requesting more pairs than exist returns all of them.
  const Graph tri = topo::prototypeTriangle();
  EXPECT_EQ(sampledDoubleLinkFailures(tri, 100, 1).size(), 3u);
}

TEST(FailureScenarios, DerivedSrlgsSkipDegreeTwoNodes) {
  const Graph g = topo::runningExample();
  const auto srlgs = derivedSrlgs(g);
  // s1 and t have degree 2; s2 and v have degree 3.
  ASSERT_EQ(srlgs.size(), 2u);
  EXPECT_EQ(srlgs[0].name, "s2");
  EXPECT_EQ(srlgs[1].name, "v");
  for (const Srlg& s : srlgs) EXPECT_EQ(s.links.size(), 2u);
  const auto fails = srlgFailures(g, srlgs);
  ASSERT_EQ(fails.size(), 2u);
  EXPECT_EQ(fails[0].label, "srlg:s2");
  // A triangle has no node of degree >= 3: no derived SRLGs.
  EXPECT_TRUE(derivedSrlgs(topo::prototypeTriangle()).empty());
}

// ---------------------------------------------------------------------------
// Degraded network derivation.
// ---------------------------------------------------------------------------

TEST(Degrade, CapacityZeroingAndSpfWithdrawal) {
  const Graph g = topo::runningExample();
  const NodeId s2 = *g.findNode("s2");
  const NodeId v = *g.findNode("v");
  const NodeId t = *g.findNode("t");
  const EdgeId s2t = *g.findEdge(s2, t);
  const FailureScenario f{"s2-t", {std::min(s2t, g.edge(s2t).reverse)}};

  const Graph degraded = degradedGraph(g, f);
  EXPECT_EQ(degraded.edge(s2t).capacity, 0.0);
  EXPECT_EQ(degraded.edge(degraded.edge(s2t).reverse).capacity, 0.0);
  EXPECT_EQ(degraded.numEdges(), g.numEdges());  // ids preserved

  // SPF treats the zero-capacity link as withdrawn: s2's distance to t
  // goes from 1 (direct) to 2 (via v), and the direct edge leaves the
  // next-hop set.
  EXPECT_DOUBLE_EQ(shortestPathsTo(g, t).dist[s2], 1.0);
  const ShortestPathsToDest sp = shortestPathsTo(degraded, t);
  EXPECT_DOUBLE_EQ(sp.dist[s2], 2.0);
  for (const EdgeId e : ecmpNextHops(degraded, sp, s2)) {
    EXPECT_NE(e, s2t);
  }
  // Still strongly connected; failing v-t too disconnects t.
  EXPECT_TRUE(degraded.stronglyConnected());
  const EdgeId vt = *g.findEdge(v, t);
  FailureScenario both = f;
  both.links.push_back(std::min(vt, g.edge(vt).reverse));
  EXPECT_FALSE(degradedGraph(g, both).stronglyConnected());
}

TEST(Degrade, RepairedDagsAreAcyclicPrunedAndNormalized) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  const auto uniform = routing::RoutingConfig::uniform(g, dags);
  for (const FailureScenario& f : singleLinkFailures(g)) {
    const auto failed = failedEdgeMask(g, f);
    // Dag's constructor rejects cycles, so construction is the acyclicity
    // check; on top, no failed edge may survive and every surviving edge
    // must lead to a node that still reaches the destination.
    const auto repaired = repairDags(g, *dags, failed);
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      const Dag& dag = (*repaired)[t];
      for (const EdgeId e : dag.edges()) {
        EXPECT_FALSE(failed[e]) << f.label;
        EXPECT_TRUE(dag.reachesDest(g.edge(e).dst)) << f.label;
      }
    }
    // Split renormalization: the repaired config is structurally valid
    // (ratios sum to 1 wherever the repaired DAG still reaches dest) and
    // places zero traffic on failed edges.
    const auto cfg = repairRouting(g, uniform, repaired);
    EXPECT_NO_THROW(cfg.validate(g)) << f.label;
    const Graph degraded = degradedGraph(g, f);
    if (degraded.stronglyConnected()) {
      const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
      const double mxlu = routing::maxLinkUtilization(degraded, cfg, base);
      EXPECT_TRUE(std::isfinite(mxlu)) << f.label;  // no load on dead links
    }
  }
}

TEST(Degrade, ReconvergedEcmpMatchesPostFailureShortestPaths) {
  const Graph g = topo::runningExample();
  const NodeId s1 = *g.findNode("s1");
  const NodeId s2 = *g.findNode("s2");
  const NodeId v = *g.findNode("v");
  const NodeId t = *g.findNode("t");
  const EdgeId s2t = *g.findEdge(s2, t);
  const FailureScenario f{"s2-t", {std::min(s2t, g.edge(s2t).reverse)}};
  const Graph degraded = degradedGraph(g, f);

  const auto ecmp = reconvergedEcmp(degraded);
  // s2 now reaches t only via v.
  EXPECT_DOUBLE_EQ(ecmp.ratio(t, *g.findEdge(s2, v)), 1.0);
  // s1 is equidistant via s2 (1+2) and v (1+1)? No: via v costs 2, via s2
  // costs 3 -- all of s1's traffic to t goes via v.
  EXPECT_DOUBLE_EQ(ecmp.ratio(t, *g.findEdge(s1, v)), 1.0);
  EXPECT_NO_THROW(ecmp.validate(degraded));
  EXPECT_TRUE(routesAllDemands(ecmp, tm::uniformMatrix(g, 1.0)));
}

TEST(Degrade, DisconnectedPairsOnAPath) {
  Graph g;
  const NodeId a = g.addNode("a");
  const NodeId b = g.addNode("b");
  const NodeId c = g.addNode("c");
  g.addLink(a, b);
  const EdgeId bc = g.addLink(b, c);
  tm::TrafficMatrix base(3);
  base.set(a, c, 1.0);
  base.set(c, a, 2.0);
  base.set(a, b, 1.0);
  const FailureScenario f{"b-c", {bc}};
  const Graph degraded = degradedGraph(g, f);
  // a->c and c->a are cut; a->b survives.
  EXPECT_EQ(disconnectedPairs(degraded, base), 2);
  EXPECT_EQ(disconnectedPairs(g, base), 0);
}

// ---------------------------------------------------------------------------
// Hand-computed post-failure ratio on the running example (Fig. 1a).
// ---------------------------------------------------------------------------

// Failing link s2-v leaves the uniform in-DAG splitting with MxLU 2 on the
// (s2 -> t: 2) corner: s2's repaired DAG forwards everything on the direct
// edge, while the unrestricted optimum re-routes half of it s2->s1->v->t
// for OPTU_f = 1. The (s1 -> t: 2) corner stays optimal (split 1/1 over
// two edge-disjoint surviving paths). Post-failure ratio = max(1, 2) = 2.
TEST(PostFailureRatio, HandComputedOnRunningExample) {
  const Graph g = topo::runningExample();
  const NodeId s1 = *g.findNode("s1");
  const NodeId s2 = *g.findNode("s2");
  const NodeId v = *g.findNode("v");
  const NodeId t = *g.findNode("t");
  const EdgeId s2v = *g.findEdge(s2, v);
  const FailureScenario f{"s2-v", {std::min(s2v, g.edge(s2v).reverse)}};

  const auto dags = core::augmentedDagsShared(g);
  auto cfg = routing::RoutingConfig::uniform(g, dags);
  // Pin the splits the hand computation assumes (uniform() already gives
  // these; set them explicitly so the test does not depend on DAG shape).
  cfg.setRatio(t, *g.findEdge(s1, s2), 0.5);
  cfg.setRatio(t, *g.findEdge(s1, v), 0.5);

  const auto repaired = repairDags(g, *dags, failedEdgeMask(g, f));
  const auto post = repairRouting(g, cfg, repaired);
  // s2's only surviving DAG edge toward t is the direct link.
  EXPECT_DOUBLE_EQ(post.ratio(t, *g.findEdge(s2, t)), 1.0);

  tm::TrafficMatrix d1(g.numNodes()), d2(g.numNodes());
  d1.set(s1, t, 2.0);
  d2.set(s2, t, 2.0);
  const Graph degraded = degradedGraph(g, f);
  routing::OptuEngine engine(g);  // unrestricted OPTU on the intact graph
  engine.setFailedEdges(directedEdges(g, f));

  const double optu1 = engine.utilization(d1);
  const double optu2 = engine.utilization(d2);
  EXPECT_NEAR(optu1, 1.0, 1e-9);  // s1-s2-t and s1-v-t, one unit each
  EXPECT_NEAR(optu2, 1.0, 1e-9);  // s2-t direct plus s2-s1-v-t
  EXPECT_NEAR(routing::maxLinkUtilization(degraded, post, d1), 1.0, 1e-12);
  EXPECT_NEAR(routing::maxLinkUtilization(degraded, post, d2), 2.0, 1e-12);

  const double ratio =
      std::max(routing::maxLinkUtilization(degraded, post, d1) / optu1,
               routing::maxLinkUtilization(degraded, post, d2) / optu2);
  EXPECT_NEAR(ratio, 2.0, 1e-9);

  // Cross-checks: the warm post-failure engine agrees with a cold solve
  // on the degraded graph, and restoring the intact network brings the
  // s2 corner back to optimal 1.0 (two surviving two-edge routes).
  EXPECT_NEAR(routing::optimalUtilizationUnrestricted(degraded, d2), optu2,
              1e-9);
  engine.setFailedEdges({});
  EXPECT_NEAR(engine.utilization(d2), 1.0, 1e-9);
  // Failing s1-s2 *and* s2-v leaves s2 only the direct edge: OPTU 2.
  const EdgeId s1s2 = *g.findEdge(s1, s2);
  engine.setFailedEdges(
      directedEdges(g, {"", {std::min(s1s2, g.edge(s1s2).reverse),
                             std::min(s2v, g.edge(s2v).reverse)}}));
  EXPECT_NEAR(engine.utilization(d2), 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// The compiled MxLU kernel the ruler evaluates its table with.
// ---------------------------------------------------------------------------

/// CompiledRouting(g, cfg) must reproduce maxLinkUtilization(g, cfg, d) to
/// the bit on every matrix; returns how many of them came out +inf.
int expectCompiledMxluMatches(const Graph& g, const routing::RoutingConfig& cfg,
                              const std::vector<tm::TrafficMatrix>& pool) {
  const routing::CompiledRouting compiled(g, cfg, pool);
  std::vector<double> scratch;
  int infinite = 0;
  for (std::size_t j = 0; j < pool.size(); ++j) {
    const double want = routing::maxLinkUtilization(g, cfg, pool[j]);
    const double got = compiled.maxLinkUtilization(pool[j], scratch);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "matrix " << j << ": " << got << " vs " << want;
    infinite += std::isinf(want) ? 1 : 0;
  }
  return infinite;
}

TEST(CompiledMxlu, BitIdenticalOnGeantCornerPool) {
  const Graph g = topo::makeZoo("Geant");
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  std::vector<tm::TrafficMatrix> pool = tm::cornerPool(
      tm::marginBounds(base, FailureEvalOptions().margin),
      FailureEvalOptions().pool);
  pool.emplace_back(g.numNodes());  // the all-zero matrix: MxLU 0
  const auto ecmp = routing::ecmpConfig(g, dags);
  // A COYOTE config: optimized splits, most of them fractional.
  routing::PerformanceEvaluator eval(g, dags);
  eval.addPool(pool);
  core::SplittingOptions sopt;
  sopt.iterations = 40;
  const auto coyote = core::optimizeSplitting(g, eval, ecmp, sopt);
  EXPECT_EQ(expectCompiledMxluMatches(g, ecmp, pool), 0);
  EXPECT_EQ(expectCompiledMxluMatches(g, coyote, pool), 0);
  EXPECT_EQ(expectCompiledMxluMatches(g, coyote, eval.matrices()), 0);

  // After a failure: the repaired config and the reconverged ECMP on the
  // degraded graph, and the intact config, which still loads the failed
  // link (capacity 0): +inf on every matrix with demand.
  int checked = 0;
  for (const FailureScenario& f : singleLinkFailures(g)) {
    const Graph degraded = degradedGraph(g, f);
    if (disconnectedPairs(degraded, base) > 0) continue;
    const auto repaired = repairRouting(
        g, coyote, repairDags(g, *dags, failedEdgeMask(g, f)));
    EXPECT_EQ(expectCompiledMxluMatches(degraded, repaired, pool), 0)
        << f.label;
    EXPECT_EQ(expectCompiledMxluMatches(degraded, reconvergedEcmp(degraded),
                                        pool),
              0)
        << f.label;
    const int dead = expectCompiledMxluMatches(degraded, coyote, pool);
    if (dead > 0) ++checked;
    if (checked == 3) break;
  }
  EXPECT_EQ(checked, 3) << "no failure left the intact config on a dead link";
}

TEST(CompiledMxlu, BitIdenticalOnFatTreeObliviousPool) {
  const Graph g = topo::fatTree(4);
  const auto dags = core::augmentedDagsShared(g);
  std::vector<tm::TrafficMatrix> pool = tm::obliviousPool(g.numNodes());
  pool.emplace_back(g.numNodes());
  ASSERT_GT(pool.size(), 10u);
  EXPECT_EQ(expectCompiledMxluMatches(
                g, routing::RoutingConfig::uniform(g, dags), pool),
            0);
  EXPECT_EQ(expectCompiledMxluMatches(g, routing::ecmpConfig(g, dags), pool),
            0);
  // Compiled for one matrix's destinations only: a matrix sending
  // elsewhere is refused, not silently routed nowhere.
  tm::TrafficMatrix to0(g.numNodes()), to1(g.numNodes());
  to0.set(1, 0, 1.0);
  to1.set(0, 1, 1.0);
  const routing::CompiledRouting only0(
      g, routing::RoutingConfig::uniform(g, dags), {to0});
  std::vector<double> scratch;
  EXPECT_NO_THROW((void)only0.maxLinkUtilization(to0, scratch));
  EXPECT_THROW((void)only0.maxLinkUtilization(to1, scratch),
               std::invalid_argument);
}

/// A graph's single-link failures against the failure sweeps' corner
/// pool (gravity base, margin 2), with the unrestricted OPTU of every
/// (failure, slot) as a reference for the bound-and-prune ruler. One
/// engine per slot solves it, warm across the failures, so the reference
/// shares neither the ruler's solve order, nor its pruning, nor its
/// per-slot basis memo.
struct RulerReference {
  Graph g;
  tm::TrafficMatrix base;
  std::vector<tm::TrafficMatrix> pool;
  std::vector<FailureScenario> fails;
  /// [failure][slot]; an empty row for a disconnecting failure.
  std::vector<std::vector<double>> optu;

  explicit RulerReference(Graph graph)
      : g(std::move(graph)),
        base(tm::gravityMatrix(g, 1.0)),
        pool(tm::cornerPool(tm::marginBounds(base, FailureEvalOptions().margin),
                            FailureEvalOptions().pool)),
        fails(singleLinkFailures(g)),
        optu(fails.size()) {
    for (std::size_t j = 0; j < pool.size(); ++j) {
      routing::OptuEngine engine(g);
      for (std::size_t i = 0; i < fails.size(); ++i) {
        if (disconnectedPairs(degradedGraph(g, fails[i]), base) > 0) continue;
        engine.setFailedEdges(directedEdges(g, fails[i]));
        optu[i].push_back(engine.utilization(pool[j]));
      }
    }
  }

  /// Geant's, built once: its LPs dominate the tests that use it.
  static const RulerReference& geant() {
    static const RulerReference ref(topo::makeZoo("Geant"));
    return ref;
  }
};

TEST(NodeCutBound, NeverExceedsOptu) {
  // The bound the ruler prunes with must never exceed the optimum it
  // stands in for: every single-link failure x corner-pool matrix.
  const RulerReference grid(topo::grid(3, 3));
  for (const RulerReference* ref : {&RulerReference::geant(), &grid}) {
    int checked = 0;
    for (std::size_t i = 0; i < ref->fails.size(); ++i) {
      if (ref->optu[i].empty()) continue;  // disconnecting
      const Graph degraded = degradedGraph(ref->g, ref->fails[i]);
      for (std::size_t j = 0; j < ref->pool.size(); ++j) {
        const double bound = nodeCutBound(degraded, ref->pool[j]);
        EXPECT_GT(bound, 0.0) << ref->fails[i].label << ", matrix " << j;
        EXPECT_LE(bound, ref->optu[i][j] * (1.0 + 1e-12))
            << ref->fails[i].label << ", matrix " << j;
        ++checked;
      }
    }
    EXPECT_GT(checked, 0) << ref->g.numNodes() << " nodes";
  }
}

TEST(OptuDualBound, HandComputedOnTwoNodes) {
  // a <-> b at capacity 2, 3 units a -> b: OPTU = 1.5.
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const EdgeId ab = g.addLink(a, b, 2.0);
  tm::TrafficMatrix d(2);
  d.set(a, b, 3.0);
  std::vector<double> pi(g.numEdges(), 1.0);
  EXPECT_DOUBLE_EQ(routing::OptuDualBound(g, pi).of(d), 0.75);
  pi[g.edge(ab).reverse] = 0.0;  // the optimal prices
  EXPECT_DOUBLE_EQ(routing::OptuDualBound(g, pi).of(d), 1.5);
  EXPECT_DOUBLE_EQ(
      routing::OptuDualBound(g, std::vector<double>(g.numEdges(), 0.0)).of(d),
      0.0);
  // A failed edge's weight buys no capacity (sum pi*c = 0 here)...
  g.setCapacity(ab, 0.0);
  EXPECT_DOUBLE_EQ(routing::OptuDualBound(g, pi).of(d), 0.0);
  // ...and a pair the surviving graph cannot connect contributes nothing.
  pi.assign(g.numEdges(), 1.0);
  EXPECT_DOUBLE_EQ(routing::OptuDualBound(g, pi).of(d), 0.0);
  EXPECT_THROW(routing::OptuDualBound(g, std::vector<double>(1, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(routing::OptuDualBound(g, std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
}

TEST(OptuDualBound, NeverExceedsOptuAndOwnPricesAreTight) {
  // The bound the ruler prunes with, on every single-link failure x corner
  // slot of unrestricted Geant. Weak duality: another slot's capacity
  // prices and seeded random weights (a quarter of them 0) never exceed
  // OPTU_f. Strong duality: a slot's own prices reach its OPTU_f, which
  // also checks the sign and rows of the prices utilizationAt exports.
  const RulerReference& ref = RulerReference::geant();
  routing::OptuEngine engine(ref.g);
  std::uint64_t seed = 7;
  int tight = 0;
  int cross = 0;
  for (std::size_t i = 0; i < ref.fails.size(); ++i) {
    if (ref.optu[i].empty()) continue;  // disconnecting
    const std::string& label = ref.fails[i].label;
    const Graph degraded = degradedGraph(ref.g, ref.fails[i]);
    engine.setFailedEdges(directedEdges(ref.g, ref.fails[i]));
    std::vector<double> random(ref.g.numEdges(), 0.0);
    for (double& w : random) {
      if (util::rng::nextUnit(seed) >= 0.25) w = util::rng::nextUnit(seed);
    }
    const routing::OptuDualBound random_bound(degraded, random);
    for (std::size_t j = 0; j < ref.pool.size(); ++j) {
      const double optu_j = ref.optu[i][j];
      EXPECT_LE(random_bound.of(ref.pool[j]), optu_j * (1.0 + 1e-12))
          << label << ", matrix " << j;
      std::vector<double> pi{1.0};  // must come back cleared or refilled
      const double optu = engine.utilizationAt(j, ref.pool[j], &pi);
      EXPECT_NEAR(optu, optu_j, 1e-9 * optu_j) << label << ", matrix " << j;
      if (pi.empty()) continue;  // solved as a min cut: no LP prices
      ASSERT_EQ(static_cast<int>(pi.size()), ref.g.numEdges());
      const routing::OptuDualBound own(degraded, pi);
      EXPECT_NEAR(own.of(ref.pool[j]), optu, 1e-9 * optu)
          << label << ", matrix " << j;
      ++tight;
      for (std::size_t k = 0; k < ref.pool.size(); ++k) {
        if (k == j) continue;
        EXPECT_LE(own.of(ref.pool[k]), ref.optu[i][k] * (1.0 + 1e-12))
            << label << ", prices of " << j << " on matrix " << k;
        ++cross;
      }
    }
  }
  EXPECT_GT(tight, 0);
  EXPECT_GT(cross, 0);
}

// ---------------------------------------------------------------------------
// The four-scheme failure evaluator.
// ---------------------------------------------------------------------------

FailureEvalOptions quickOptions() {
  FailureEvalOptions opt;
  opt.coyote.splitting.iterations = 120;
  opt.pool.random_corners = 2;
  opt.pool.pair_hotspots = 2;
  return opt;
}

TEST(FailureEvaluator, RunningExampleSweepIsSaneAndNormalized) {
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::uniformMatrix(g, 1.0);
  const FailureEvaluator eval(g, dags, base, quickOptions());
  const FailureSweepResult res = eval.evaluate(singleLinkFailures(g));

  ASSERT_EQ(res.outcomes.size(), 5u);
  EXPECT_EQ(res.evaluated, 5);  // no single failure disconnects Fig. 1a
  EXPECT_EQ(res.disconnecting, 0);
  // Default scheme list: the paper's four, keyed by registry key.
  ASSERT_EQ(res.schemes.size(), 4u);
  EXPECT_EQ(res.schemes[0].first, "ecmp");
  EXPECT_EQ(res.schemes[3].first, "partial");
  for (const FailureOutcome& o : res.outcomes) {
    ASSERT_TRUE(o.evaluated) << o.label;
    // OSPF reconvergence always finds a route on a connected graph; the
    // static schemes may be stranded (e.g. failing v-t leaves v's DAG for
    // t without out-edges even though the graph stays connected).
    EXPECT_TRUE(o.routable[0]) << o.label;  // [0] == "ecmp"
    for (std::size_t s = 0; s < o.ratio.size(); ++s) {
      if (!o.routable[s]) continue;
      // Ratios are normalized by the unrestricted post-failure optimum: a
      // destination-based routing can never beat it.
      EXPECT_GE(o.ratio[s], 1.0 - 1e-7) << o.label;
      EXPECT_LT(o.ratio[s], 50.0) << o.label;
    }
  }
  for (const auto& [key, st] : res.schemes) {
    EXPECT_EQ(st.evaluated + st.unroutable, 5) << key;
    EXPECT_GT(st.evaluated, 0) << key;
    EXPECT_GE(st.worst, st.p95) << key;
    EXPECT_GE(st.p95, st.median) << key;
    EXPECT_GE(st.median, 1.0 - 1e-7) << key;
  }
  EXPECT_EQ(res.schemes[0].second.unroutable, 0);  // reconverged ECMP
}

TEST(FailureEvaluator, DisconnectingFailuresAreReportedNotCrashedOn) {
  // Every single-link failure of a tree disconnects some demand pair.
  const Graph g = topo::makeZoo("Gambia");
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const FailureEvaluator eval(g, dags, base, quickOptions());
  const FailureSweepResult res = eval.evaluate(singleLinkFailures(g));
  EXPECT_EQ(res.evaluated, 0);
  EXPECT_EQ(res.disconnecting, static_cast<int>(res.outcomes.size()));
  EXPECT_GT(res.disconnected_pairs, 0);
  for (const FailureOutcome& o : res.outcomes) {
    EXPECT_FALSE(o.evaluated);
    EXPECT_GT(o.disconnected_pairs, 0) << o.label;
  }
  for (const auto& [key, st] : res.schemes) {
    EXPECT_EQ(st.evaluated, 0) << key;
    EXPECT_EQ(st.worst, 0.0) << key;
  }
}

TEST(FailureEvaluator, FullSweepIsBitIdenticalAcrossThreadCounts) {
  const Graph g = topo::grid(3, 3);
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const auto fails = singleLinkFailures(g);

  std::vector<FailureSweepResult> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    FailureEvalOptions opt = quickOptions();
    opt.threads = threads;
    const FailureEvaluator eval(g, dags, base, opt);
    results.push_back(eval.evaluate(fails));
  }
  const FailureSweepResult& ref = results.front();
  ASSERT_EQ(ref.outcomes.size(), fails.size());
  for (std::size_t r = 1; r < results.size(); ++r) {
    const FailureSweepResult& other = results[r];
    ASSERT_EQ(other.outcomes.size(), ref.outcomes.size());
    for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
      EXPECT_EQ(ref.outcomes[i].evaluated, other.outcomes[i].evaluated);
      EXPECT_EQ(ref.outcomes[i].disconnected_pairs,
                other.outcomes[i].disconnected_pairs);
      for (std::size_t s = 0; s < ref.outcomes[i].ratio.size(); ++s) {
        // Bit-identical, not merely close.
        EXPECT_EQ(ref.outcomes[i].ratio[s], other.outcomes[i].ratio[s])
            << "failure " << ref.outcomes[i].label << " scheme " << s
            << " threads run " << r;
      }
    }
    for (std::size_t s = 0; s < ref.schemes.size(); ++s) {
      EXPECT_EQ(ref.schemes[s].second.worst, other.schemes[s].second.worst);
      EXPECT_EQ(ref.schemes[s].second.median,
                other.schemes[s].second.median);
      EXPECT_EQ(ref.schemes[s].second.p95, other.schemes[s].second.p95);
    }
  }
}

TEST(FailureEvaluator, WarmStartedResolvesBeatColdOnes) {
  const Graph g = topo::grid(3, 3);
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const FailureEvaluator eval(g, dags, base, quickOptions());
  const auto fails = singleLinkFailures(g);

  const lp::StatsSnapshot before = lp::statsSnapshot();
  const FailureSweepResult warm = eval.evaluate(fails);
  const lp::StatsSnapshot warm_delta = lp::statsSnapshot() - before;

  // Same verdicts as a reference that reuses no basis across failures:
  // each failure alone in its own evaluate() call, which builds a fresh
  // OPTU engine for it (the intact routings are the evaluator's fixed
  // state, so nothing else differs)...
  ASSERT_EQ(warm.outcomes.size(), fails.size());
  for (std::size_t i = 0; i < fails.size(); ++i) {
    const FailureSweepResult alone = eval.evaluate({fails[i]});
    const FailureOutcome& ref = alone.outcomes.front();
    ASSERT_EQ(warm.outcomes[i].evaluated, ref.evaluated) << ref.label;
    for (std::size_t s = 0; s < ref.ratio.size(); ++s) {
      if (ref.routable[s]) {
        EXPECT_NEAR(warm.outcomes[i].ratio[s], ref.ratio[s],
                    1e-7 * (1.0 + ref.ratio[s]))
            << ref.label << " scheme " << s;
      }
    }
  }
  // ...but the warm sweep reuses bases and pays far fewer pivots than an
  // all-cold sweep: measured with gcc 12 in Release before the cold
  // switch was removed, 4,718 warm vs 19,226 cold pivots. Solving every
  // slot from its per-slot memo basis took 5,214; bound and prune
  // (evaluateFailure) skips most slot LPs and takes 1,389, not counting
  // the intact-pool floor the constructor solves. 3,000 sits between the
  // last two.
  EXPECT_LT(warm_delta.iterations, 3000)
      << "warm pivots " << warm_delta.iterations;
}

TEST(FailureEvaluator, PrunedRulerMatchesSolvesOfEverySlot) {
  // Bound and prune may skip a slot's OPTU_f LP only when the slot cannot
  // raise any scheme's worst ratio: a Geant single-link sweep against the
  // reference that solves every (failure, slot) LP.
  const RulerReference& ref = RulerReference::geant();
  const auto dags = core::augmentedDagsShared(ref.g);
  FailureEvalOptions opt;
  opt.coyote.splitting.iterations = 120;
  const FailureEvaluator eval(ref.g, dags, ref.base, opt);
  const FailureSweepResult res = eval.evaluate(ref.fails);
  ASSERT_EQ(ref.pool.size(), eval.intact().pool().size());

  int compared = 0;
  for (std::size_t i = 0; i < ref.fails.size(); ++i) {
    const FailureOutcome& o = res.outcomes[i];
    ASSERT_EQ(o.evaluated, !ref.optu[i].empty()) << o.label;
    if (!o.evaluated) continue;
    const Graph degraded = degradedGraph(ref.g, ref.fails[i]);
    const auto repaired =
        repairDags(ref.g, *dags, failedEdgeMask(ref.g, ref.fails[i]));
    const std::vector<const te::Scheme*>& schemes =
        eval.intact().options().schemes;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      if (!o.routable[s]) continue;
      const te::Scheme& scheme = *schemes[s];
      const routing::RoutingConfig cfg =
          scheme.reaction() == te::FailureReaction::kReconverge
              ? scheme.reconverge(degraded)
              : repairRouting(ref.g,
                              eval.intact().intactRouting(scheme.key()),
                              repaired);
      double want = 0.0;
      for (std::size_t j = 0; j < ref.pool.size(); ++j) {
        want = std::max(want, routing::maxLinkUtilization(degraded, cfg,
                                                          ref.pool[j]) /
                                  ref.optu[i][j]);
      }
      EXPECT_NEAR(o.ratio[s], want, 1e-9 * want)
          << o.label << " scheme " << scheme.key();
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);
  // ...and most slots never reached the LP: the node-cut bound, the floor
  // and the solved slots' dual bounds skip 511 of 612 here.
  EXPECT_GE(5 * res.slots_skipped, 4 * (res.slots_solved + res.slots_skipped))
      << res.slots_solved << " solved, " << res.slots_skipped << " skipped";
}

// ---------------------------------------------------------------------------
// The intact-scheme builder shared by FailureEvaluator and serve.
// ---------------------------------------------------------------------------

/// Mismatched entries of two configurations over g (compared with ==, no
/// tolerance).
int mismatches(const Graph& g, const routing::RoutingConfig& a,
               const routing::RoutingConfig& b) {
  int bad = 0;
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
      bad += a.ratio(t, e) != b.ratio(t, e);
    }
  }
  return bad;
}

TEST(IntactSchemes, ConfigsEqualFreshPerSchemeComputes) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  FailureEvalOptions opt;
  opt.coyote.splitting.iterations = 60;
  opt.coyote.splitting.patience = 10;
  opt.schemes = te::SchemeRegistry::builtin().all();
  ASSERT_EQ(opt.schemes.size(), 6u);

  // Every scheme computed on its own: a fresh evaluator per
  // margin-dependent scheme and no shared oblivious-pool cache.
  int manual_saved = 0;
  const auto manual =
      [&](const tm::TrafficMatrix& b, double margin,
          const std::vector<std::optional<routing::RoutingConfig>>* prev) {
        const tm::DemandBounds box = tm::marginBounds(b, margin);
        std::vector<std::optional<routing::RoutingConfig>> out;
        for (std::size_t i = 0; i < opt.schemes.size(); ++i) {
          const te::Scheme* s = opt.schemes[i];
          if (s->reaction() == te::FailureReaction::kReconverge) {
            out.emplace_back();
            continue;
          }
          core::CoyoteOptions copt = opt.coyote;
          if (prev != nullptr) copt.warm_init = &*(*prev)[i];
          routing::PerformanceEvaluator eval(g, dags, copt.lp);
          te::SchemeContext ctx{g, dags, b, copt};
          ctx.splitting_iters_saved = &manual_saved;
          if (s->marginDependent()) {
            eval.addPool(tm::cornerPool(box, opt.pool));
            ctx.box = &box;
            ctx.pool = &eval;
          }
          out.emplace_back(s->compute(ctx));
        }
        return out;
      };
  const auto expectEqual =
      [&](const std::vector<std::optional<routing::RoutingConfig>>& want,
          const IntactSchemes& intact) {
        ASSERT_EQ(intact.configs().size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          const char* key = opt.schemes[i]->key();
          ASSERT_EQ(intact.configs()[i].has_value(), want[i].has_value())
              << key;
          if (want[i].has_value()) {
            EXPECT_EQ(mismatches(g, *intact.configs()[i], *want[i]), 0) << key;
          }
        }
      };

  const auto cold = manual(base, 2.0, nullptr);
  const int cold_manual_saved = std::exchange(manual_saved, 0);
  // The box moved (a demand and a margin event at once), recomputed warm:
  // each optimizer run starts from the previous configuration.
  tm::TrafficMatrix moved = base;
  moved.scale(1.1);
  const auto warm = manual(moved, 2.5, &cold);

  // threads = 2: compute() lends its private pool to every margin-dependent
  // scheme's evaluator, and no bit moves.
  for (const unsigned threads : {0u, 2u}) {
    SCOPED_TRACE(threads);
    FailureEvalOptions topt = opt;
    topt.threads = threads;
    IntactSchemes intact(g, dags, base, topt);
    const int cold_saved = intact.compute(/*warm=*/false);
    expectEqual(cold, intact);
    EXPECT_EQ(cold_saved, cold_manual_saved);

    intact.moveBox(moved, 2.5);
    EXPECT_EQ(intact.options().margin, 2.5);
    const int warm_saved = intact.compute(/*warm=*/true);
    expectEqual(warm, intact);
    EXPECT_EQ(warm_saved, manual_saved);
    EXPECT_GT(warm_saved, 0);
  }
}

TEST(IntactSchemes, ObliviousPoolIsNormalizedOnce) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  FailureEvalOptions opt;
  opt.coyote.splitting.iterations = 30;
  opt.schemes =
      te::SchemeRegistry::builtin().parseList("oblivious,semi-oblivious");

  const auto delta = [](const auto& run) {
    const lp::StatsSnapshot before = lp::statsSnapshot();
    run();
    const lp::StatsSnapshot d = lp::statsSnapshot() - before;
    return std::make_pair(d.solves, d.iterations);
  };
  // The two normalizations a compute() may need: the oblivious pool's
  // (both schemes optimize against it) and the base matrix's alone
  // (semi-oblivious re-tunes its splits for it).
  const auto pool_lp = delta([&] {
    routing::PerformanceEvaluator eval(g, dags, opt.coyote.lp);
    eval.addPool(tm::obliviousPool(g.numNodes(), opt.coyote.oblivious_pool));
  });
  const auto base_lp = delta([&] {
    routing::PerformanceEvaluator eval(g, dags, opt.coyote.lp);
    EXPECT_EQ(eval.addMatrix(base), 0);
  });
  ASSERT_GT(pool_lp.first, 0);
  ASSERT_GT(base_lp.first, 0);

  IntactSchemes intact(g, dags, base, opt);
  // The first compute normalizes the oblivious pool once, not once per
  // scheme...
  const auto first = delta([&] { intact.compute(/*warm=*/false); });
  EXPECT_EQ(first.first, pool_lp.first + base_lp.first);
  EXPECT_EQ(first.second, pool_lp.second + base_lp.second);
  // ...and a recompute reuses it: only the base matrix is normalized.
  const auto second = delta([&] { intact.compute(/*warm=*/true); });
  EXPECT_EQ(second, base_lp);
}

TEST(IntactSchemes, RejectsOracleRounds) {
  const Graph g = topo::runningExample();
  FailureEvalOptions opt;
  opt.coyote.oracle_rounds = 1;
  EXPECT_THROW(IntactSchemes(g, core::augmentedDagsShared(g),
                             tm::uniformMatrix(g, 1.0), opt),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Registry + runner integration.
// ---------------------------------------------------------------------------

TEST(FailureScenarioRegistry, SmokeAndFigureScenariosHaveFailureVariants) {
  const exp::ScenarioRegistry& reg = exp::ScenarioRegistry::global();
  for (const exp::Scenario& s : reg.all()) {
    if (s.kind == exp::ScenarioKind::kFailure) continue;
    if (!(s.hasTag("smoke") || s.hasTag("figure"))) continue;
    const bool single_topology = s.kind == exp::ScenarioKind::kSchemes ||
                                 s.kind == exp::ScenarioKind::kLocalSearch ||
                                 s.kind == exp::ScenarioKind::kQuantization ||
                                 s.kind == exp::ScenarioKind::kPrototype;
    if (!single_topology) continue;  // fig11/table1 sweep network lists
    const exp::Scenario* fail1 = reg.find(s.id + "-fail1");
    ASSERT_NE(fail1, nullptr) << s.id;
    EXPECT_EQ(fail1->kind, exp::ScenarioKind::kFailure);
    EXPECT_TRUE(fail1->hasTag("failure"));
    EXPECT_EQ(fail1->failure.model, exp::FailureSpec::Model::kSingleLink);
    EXPECT_NE(reg.find(s.id + "-srlg"), nullptr) << s.id;
  }
  // The CI smoke gate runs exactly one failure scenario.
  int smoke_failures = 0;
  for (const exp::Scenario* s : reg.match("smoke")) {
    smoke_failures += s->kind == exp::ScenarioKind::kFailure;
  }
  EXPECT_EQ(smoke_failures, 1);
  ASSERT_NE(reg.find("running-example-fail1"), nullptr);
  EXPECT_TRUE(reg.find("running-example-fail1")->hasTag("smoke"));
  // Double-link variants exist where registered.
  EXPECT_NE(reg.find("running-example-fail2"), nullptr);
  EXPECT_NE(reg.find("fig06-fail2"), nullptr);
  EXPECT_EQ(reg.find("fig11-fail1"), nullptr);
  EXPECT_EQ(reg.find("table1-fail1"), nullptr);
}

TEST(FailureRunner, EmitsSchemaFourFailuresBlock) {
  const exp::Scenario* s =
      exp::ScenarioRegistry::global().find("running-example-fail1");
  ASSERT_NE(s, nullptr);
  exp::RunOptions opt;
  opt.print = false;
  const exp::ExperimentRunner runner(opt);
  const exp::ScenarioResult result = runner.run(*s);
  EXPECT_TRUE(result.ok);

  const util::json::Value& doc = result.document;
  EXPECT_EQ(doc.stringOr("schema", ""), "coyote-bench/7");
  EXPECT_EQ(doc.stringOr("kind", ""), "failure");
  EXPECT_EQ(doc.stringOr("failure_model", ""), "single-link");
  const util::json::Value* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->asArray().size(), 5u);
  const util::json::Value* block = doc.find("failures");
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->stringOr("model", ""), "single-link");
  EXPECT_EQ(block->numberOr("scenarios", -1.0), 5.0);
  EXPECT_EQ(block->numberOr("evaluated", -1.0), 5.0);
  EXPECT_EQ(block->numberOr("disconnecting", -1.0), 0.0);
  const util::json::Value* schemes = block->find("schemes");
  ASSERT_NE(schemes, nullptr);
  for (const char* key : {"ecmp", "base", "oblivious", "partial"}) {
    const util::json::Value* st = schemes->find(key);
    ASSERT_NE(st, nullptr) << key;
    EXPECT_GE(st->numberOr("worst", -1.0), 1.0 - 1e-7) << key;
    EXPECT_GE(st->numberOr("worst", -1.0), st->numberOr("p95", 1e9)) << key;
  }
}

TEST(FailureRunner, EverySmokeFailureVariantRunsGreen) {
  // The acceptance bar: every smoke scenario's -fail1 variant runs green
  // end to end (the srlg/fail2 variants of the running example ride
  // along; the remaining variants are exercised by the COYOTE_FULL
  // integration sweep).
  const exp::ScenarioRegistry& reg = exp::ScenarioRegistry::global();
  std::vector<std::string> ids;
  for (const exp::Scenario* s : reg.match("smoke")) {
    if (s->kind != exp::ScenarioKind::kFailure &&
        reg.find(s->id + "-fail1") != nullptr) {
      ids.push_back(s->id + "-fail1");
    }
  }
  ids.emplace_back("running-example-srlg");
  ids.emplace_back("running-example-fail2");
  exp::RunOptions opt;
  opt.print = false;
  const exp::ExperimentRunner runner(opt);
  for (const std::string& id : ids) {
    const exp::Scenario* s = reg.find(id);
    ASSERT_NE(s, nullptr) << id;
    const exp::ScenarioResult result = runner.run(*s);
    EXPECT_TRUE(result.ok) << id;
    const util::json::Value* block = result.document.find("failures");
    ASSERT_NE(block, nullptr) << id;
    EXPECT_GE(block->numberOr("scenarios", -1.0), 0.0) << id;
  }
}

}  // namespace
}  // namespace coyote::failure
