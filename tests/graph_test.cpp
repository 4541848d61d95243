#include <gtest/gtest.h>

#include <cmath>

#include "graph/dag.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/maxflow.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"

namespace coyote {
namespace {

TEST(Graph, AddNodesAndEdges) {
  Graph g;
  const NodeId a = g.addNode("a");
  const NodeId b = g.addNode("b");
  EXPECT_EQ(g.numNodes(), 2);
  const EdgeId e = g.addEdge(a, b, 5.0, 2.0);
  EXPECT_EQ(g.numEdges(), 1);
  EXPECT_EQ(g.edge(e).src, a);
  EXPECT_EQ(g.edge(e).dst, b);
  EXPECT_DOUBLE_EQ(g.edge(e).capacity, 5.0);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 2.0);
  EXPECT_EQ(g.edge(e).reverse, kInvalidEdge);
}

TEST(Graph, AddLinkCreatesMutualReverse) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const EdgeId e = g.addLink(a, b, 3.0);
  const EdgeId r = g.edge(e).reverse;
  ASSERT_NE(r, kInvalidEdge);
  EXPECT_EQ(g.edge(r).reverse, e);
  EXPECT_EQ(g.edge(r).src, b);
  EXPECT_EQ(g.edge(r).dst, a);
  EXPECT_DOUBLE_EQ(g.edge(r).capacity, 3.0);
}

TEST(Graph, RejectsSelfLoopsAndBadCapacity) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  EXPECT_THROW(g.addEdge(a, a), std::invalid_argument);
  EXPECT_THROW(g.addEdge(a, b, 0.0), std::invalid_argument);
  EXPECT_THROW(g.addEdge(a, b, 1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(g.addEdge(a, 7), std::invalid_argument);
}

TEST(Graph, FindNodeAndEdge) {
  Graph g;
  const NodeId a = g.addNode("alpha");
  const NodeId b = g.addNode("beta");
  g.addLink(a, b);
  EXPECT_EQ(g.findNode("beta"), b);
  EXPECT_FALSE(g.findNode("gamma").has_value());
  ASSERT_TRUE(g.findEdge(a, b).has_value());
  ASSERT_TRUE(g.findEdge(b, a).has_value());
  EXPECT_FALSE(g.findEdge(a, a).has_value());
}

TEST(Graph, DefaultNodeNamesAreUnique) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  EXPECT_NE(g.nodeName(a), g.nodeName(b));
}

TEST(Graph, InverseCapacityWeights) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId c = g.addNode();
  const EdgeId e1 = g.addEdge(a, b, 10.0);
  const EdgeId e2 = g.addEdge(b, c, 2.5);
  const EdgeId e3 = g.addEdge(c, a, 1.0);
  g.setInverseCapacityWeights();
  EXPECT_DOUBLE_EQ(g.edge(e1).weight, 1.0);
  EXPECT_DOUBLE_EQ(g.edge(e2).weight, 4.0);
  EXPECT_DOUBLE_EQ(g.edge(e3).weight, 10.0);
}

TEST(Graph, InverseCapacityWeightsSkipFailedLinks) {
  // A failed (zero-capacity) link keeps its weight and does not change the
  // max-capacity scale the live links are weighted against.
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId c = g.addNode();
  const EdgeId e1 = g.addEdge(a, b, 10.0);
  const EdgeId e2 = g.addEdge(b, c, 2.5);
  const EdgeId e3 = g.addEdge(c, a, 1.0, 7.0);
  g.setCapacity(e3, 0.0);
  g.setInverseCapacityWeights();
  EXPECT_DOUBLE_EQ(g.edge(e1).weight, 1.0);
  EXPECT_DOUBLE_EQ(g.edge(e2).weight, 4.0);
  EXPECT_EQ(g.edge(e3).weight, 7.0);
}

TEST(Graph, OutInCapacity) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId c = g.addNode();
  g.addEdge(a, b, 2.0);
  g.addEdge(a, c, 3.0);
  g.addEdge(b, a, 7.0);
  EXPECT_DOUBLE_EQ(g.outCapacity(a), 5.0);
  EXPECT_DOUBLE_EQ(g.inCapacity(a), 7.0);
}

TEST(Graph, StronglyConnected) {
  Graph ring = topo::ring(5);
  EXPECT_TRUE(ring.stronglyConnected());
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  g.addEdge(a, b);
  EXPECT_FALSE(g.stronglyConnected());
}

// ---------------------------------------------------------------------------

TEST(Dijkstra, PathDistances) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId c = g.addNode();
  g.addLink(a, b, 1.0, 2.0);
  g.addLink(b, c, 1.0, 3.0);
  const auto sp = shortestPathsTo(g, c);
  EXPECT_DOUBLE_EQ(sp.dist[c], 0.0);
  EXPECT_DOUBLE_EQ(sp.dist[b], 3.0);
  EXPECT_DOUBLE_EQ(sp.dist[a], 5.0);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  g.addEdge(a, b);  // only a -> b
  const auto sp = shortestPathsTo(g, a);
  EXPECT_TRUE(std::isinf(sp.dist[b]));
}

TEST(Dijkstra, HopDistancesIgnoreWeights) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId c = g.addNode();
  g.addLink(a, b, 1.0, 100.0);
  g.addLink(b, c, 1.0, 100.0);
  g.addLink(a, c, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(hopDistancesTo(g, c).dist[a], 1.0);
  EXPECT_DOUBLE_EQ(shortestPathsTo(g, c).dist[a], 1.0);
}

TEST(Dijkstra, ExplicitWeightsAllowZeroAndSkipFailedLinks) {
  // a <-> b <-> c plus a <-> c; lengths come from the vector, not
  // Edge::weight, and a zero-capacity edge is withdrawn as in SPF.
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId c = g.addNode();
  const EdgeId ab = g.addLink(a, b, 1.0, 7.0);
  const EdgeId bc = g.addLink(b, c, 1.0, 7.0);
  const EdgeId ac = g.addLink(a, c, 1.0, 1.0);
  std::vector<double> w(g.numEdges(), 5.0);
  w[ab] = 0.0;
  w[bc] = 2.0;
  w[ac] = 4.0;
  EXPECT_DOUBLE_EQ(shortestPathsTo(g, c, w).dist[a], 2.0);  // via b
  EXPECT_DOUBLE_EQ(shortestPathsTo(g, c, w).dist[b], 2.0);
  EXPECT_DOUBLE_EQ(shortestPathsTo(g, b, w).dist[a], 0.0);
  g.setCapacity(bc, 0.0);
  EXPECT_DOUBLE_EQ(shortestPathsTo(g, c, w).dist[a], 4.0);  // direct
  EXPECT_DOUBLE_EQ(shortestPathsTo(g, c, w).dist[b], 9.0);  // b -> a -> c
  EXPECT_THROW(shortestPathsTo(g, c, std::vector<double>(2, 1.0)),
               std::invalid_argument);
}

TEST(Dijkstra, EcmpNextHopsOnDiamond) {
  // a -> {b,c} -> d with equal weights: a has two ECMP next-hops.
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId c = g.addNode();
  const NodeId d = g.addNode();
  g.addLink(a, b);
  g.addLink(a, c);
  g.addLink(b, d);
  g.addLink(c, d);
  const auto sp = shortestPathsTo(g, d);
  EXPECT_EQ(ecmpNextHops(g, sp, a).size(), 2u);
  EXPECT_EQ(ecmpNextHops(g, sp, b).size(), 1u);
  EXPECT_TRUE(ecmpNextHops(g, sp, d).empty());
}

TEST(Dijkstra, ShortestPathDagIsAcyclicAndComplete) {
  const Graph g = topo::makeZoo("Abilene");
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    const auto sp = shortestPathsTo(g, t);
    const auto edges = shortestPathDagEdges(g, sp);
    const Dag dag(g, t, edges);  // throws on a cycle
    for (NodeId v = 0; v < g.numNodes(); ++v) {
      EXPECT_TRUE(dag.reachesDest(v)) << "node " << v << " t=" << t;
    }
  }
}

// ---------------------------------------------------------------------------

TEST(Dag, RejectsCycles) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId t = g.addNode();
  const EdgeId ab = g.addEdge(a, b);
  const EdgeId ba = g.addEdge(b, a);
  g.addEdge(b, t);
  EXPECT_THROW(Dag(g, t, {ab, ba}), std::invalid_argument);
}

TEST(Dag, RejectsEdgesOutOfDest) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId t = g.addNode();
  const EdgeId ta = g.addEdge(t, a);
  g.addEdge(a, t);
  EXPECT_THROW(Dag(g, t, {ta}), std::invalid_argument);
}

TEST(Dag, TopoOrderRespectsEdges) {
  Graph g = topo::grid(3, 3);
  const NodeId t = 8;
  const auto sp = shortestPathsTo(g, t);
  const Dag dag(g, t, shortestPathDagEdges(g, sp));
  std::vector<int> pos(g.numNodes(), -1);
  const auto& topo = dag.topoOrder();
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = static_cast<int>(i);
  for (const EdgeId e : dag.edges()) {
    EXPECT_LT(pos[g.edge(e).src], pos[g.edge(e).dst]);
  }
}

TEST(Dag, ReachabilityOnPartialDag) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId c = g.addNode();  // isolated in the DAG
  const NodeId t = g.addNode();
  g.addEdge(a, b);
  const EdgeId bt = g.addEdge(b, t);
  g.addEdge(c, a);
  const EdgeId ab = *g.findEdge(a, b);
  const Dag dag(g, t, {ab, bt});
  EXPECT_TRUE(dag.reachesDest(a));
  EXPECT_TRUE(dag.reachesDest(b));
  EXPECT_FALSE(dag.reachesDest(c));
}

TEST(Dag, DeduplicatesEdges) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId t = g.addNode();
  const EdgeId e = g.addEdge(a, t);
  const Dag dag(g, t, {e, e, e});
  EXPECT_EQ(dag.edges().size(), 1u);
}

// ---------------------------------------------------------------------------

TEST(MaxFlow, SingleEdge) {
  Graph g;
  const NodeId s = g.addNode();
  const NodeId t = g.addNode();
  g.addEdge(s, t, 4.0);
  EXPECT_DOUBLE_EQ(maxFlow(g, s, t), 4.0);
}

TEST(MaxFlow, ParallelPathsAdd) {
  Graph g;
  const NodeId s = g.addNode();
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId t = g.addNode();
  g.addEdge(s, a, 2.0);
  g.addEdge(a, t, 2.0);
  g.addEdge(s, b, 3.0);
  g.addEdge(b, t, 1.0);
  EXPECT_DOUBLE_EQ(maxFlow(g, s, t), 3.0);  // 2 + min(3,1)
}

TEST(MaxFlow, BottleneckRespected) {
  Graph g;
  const NodeId s = g.addNode();
  const NodeId m = g.addNode();
  const NodeId t = g.addNode();
  g.addEdge(s, m, 10.0);
  g.addEdge(m, t, 1.5);
  EXPECT_DOUBLE_EQ(maxFlow(g, s, t), 1.5);
}

TEST(MaxFlow, MultiSourceSuperSource) {
  Graph g;
  const NodeId s1 = g.addNode();
  const NodeId s2 = g.addNode();
  const NodeId t = g.addNode();
  g.addEdge(s1, t, 1.0);
  g.addEdge(s2, t, 2.0);
  EXPECT_DOUBLE_EQ(maxFlow(g, {s1, s2}, t), 3.0);
}

TEST(MaxFlow, BipartitionGadgetMinCut) {
  // Sec. IV: in the reduction, mincut({s1,s2}, t) = 2*SUM.
  Graph g;
  const NodeId s1 = g.addNode();
  const NodeId s2 = g.addNode();
  const NodeId t = g.addNode();
  const double w[] = {1.0, 3.0};
  for (const double wi : w) {
    const NodeId x1 = g.addNode();
    const NodeId x2 = g.addNode();
    const NodeId m = g.addNode();
    g.addLink(x1, x2, wi);
    g.addLink(x1, m, wi);
    g.addLink(x2, m, wi);
    g.addEdge(s1, x1, 2 * wi);
    g.addEdge(s2, x2, 2 * wi);
    g.addEdge(m, t, 2 * wi);
  }
  EXPECT_DOUBLE_EQ(maxFlow(g, {s1, s2}, t), 8.0);  // 2*SUM, SUM=4
  EXPECT_DOUBLE_EQ(maxFlow(g, s1, t), 8.0);
  EXPECT_DOUBLE_EQ(maxFlow(g, s2, t), 8.0);
}

class RandomBackboneFlow : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomBackboneFlow, FlowBoundedByDegreeCuts) {
  const Graph g = topo::randomBackbone(12, 3.0, GetParam());
  // Max-flow between any two nodes is bounded by min(out-cap(s), in-cap(t))
  // and is positive (the generator guarantees a ring).
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId t = 8; t < 12; ++t) {
      const double f = maxFlow(g, s, t);
      EXPECT_GT(f, 0.0);
      EXPECT_LE(f, std::min(g.outCapacity(s), g.inCapacity(t)) + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBackboneFlow,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(MaxFlow, ScaleInvariant) {
  // The saturation tolerance is relative to the largest arc capacity, so
  // scaling every capacity scales the flow -- also when all of them sit
  // below 1e-12, where an absolute tolerance would report no flow at all.
  const auto scaled = [](const Graph& g, double f) {
    Graph h;
    for (NodeId v = 0; v < g.numNodes(); ++v) h.addNode();
    for (const Edge& e : g.edges()) h.addEdge(e.src, e.dst, f * e.capacity);
    return h;
  };
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = topo::randomBackbone(12, 3.0, seed);
    for (const double f : {1e-13, 1e13}) {
      const Graph h = scaled(g, f);
      for (NodeId s = 0; s < 4; ++s) {
        for (NodeId t = 8; t < 12; ++t) {
          const double base = maxFlow(g, s, t);
          ASSERT_GT(base, 0.0);
          EXPECT_NEAR(maxFlow(h, s, t) / f, base, 1e-12 * base)
              << "seed " << seed << ", scale " << f << ", " << s << "->" << t;
        }
      }
      const double base = maxFlow(g, {0, 1, 2}, 11);
      EXPECT_NEAR(maxFlow(h, {0, 1, 2}, 11) / f, base, 1e-12 * base)
          << "seed " << seed << ", scale " << f << ", multi-source";
    }
  }
}

// ---------------------------------------------------------------------------
// require() failure paths: empty graphs and degenerate edge parameters.
// ---------------------------------------------------------------------------

TEST(GraphEdgeCases, EmptyGraphAccessorsThrow) {
  const Graph g;
  EXPECT_EQ(g.numNodes(), 0);
  EXPECT_EQ(g.numEdges(), 0);
  EXPECT_THROW((void)g.edge(0), std::invalid_argument);
  EXPECT_THROW((void)g.nodeName(0), std::invalid_argument);
  EXPECT_THROW((void)g.outEdges(0), std::invalid_argument);
  EXPECT_THROW((void)g.inEdges(0), std::invalid_argument);
  EXPECT_FALSE(g.findNode("anything").has_value());
}

TEST(GraphEdgeCases, EmptyGraphShortestPathsThrow) {
  const Graph g;
  // Any destination id is out of range on an empty graph.
  EXPECT_THROW(shortestPathsTo(g, 0), std::invalid_argument);
}

TEST(GraphEdgeCases, CapacityAndWeightMutatorPreconditions) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const EdgeId e = g.addLink(a, b, 2.0);
  EXPECT_THROW(g.setCapacity(e, -1.0), std::invalid_argument);
  EXPECT_THROW(g.setWeight(e, 0.0), std::invalid_argument);
  EXPECT_THROW(g.setWeight(e, -0.5), std::invalid_argument);
  // A failed mutation leaves the edge untouched.
  EXPECT_DOUBLE_EQ(g.edge(e).capacity, 2.0);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 1.0);
  // Links are born up: construction rejects non-positive capacities...
  EXPECT_THROW(g.addLink(a, b, 0.0), std::invalid_argument);
  EXPECT_THROW(g.addLink(a, b, 1.0, 0.0), std::invalid_argument);
  // ...but setCapacity(e, 0) marks a failed link (src/failure/), which
  // SPF and connectivity then skip.
  EXPECT_TRUE(g.stronglyConnected());
  g.setCapacity(e, 0.0);
  g.setCapacity(g.edge(e).reverse, 0.0);
  EXPECT_DOUBLE_EQ(g.edge(e).capacity, 0.0);
  EXPECT_FALSE(g.stronglyConnected());
  EXPECT_TRUE(std::isinf(shortestPathsTo(g, b).dist[a]));
}

TEST(GraphEdgeCases, DagRejectsOutOfRangeDestOnEmptyGraph) {
  const Graph g;
  EXPECT_THROW(Dag(g, 0, {}), std::invalid_argument);
}

}  // namespace
}  // namespace coyote
