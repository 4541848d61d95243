#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"

namespace coyote::tm {
namespace {

TEST(TrafficMatrix, SetGetAndDiagonal) {
  TrafficMatrix d(3);
  d.set(0, 1, 2.5);
  EXPECT_DOUBLE_EQ(d.at(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(d.at(1, 0), 0.0);
  EXPECT_THROW(d.set(1, 1, 1.0), std::invalid_argument);
  EXPECT_THROW(d.set(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW((void)d.at(0, 5), std::invalid_argument);
}

TEST(TrafficMatrix, ScaleAndTotal) {
  TrafficMatrix d(3);
  d.set(0, 1, 1.0);
  d.set(2, 1, 3.0);
  EXPECT_DOUBLE_EQ(d.total(), 4.0);
  EXPECT_DOUBLE_EQ(d.maxEntry(), 3.0);
  d.scale(0.5);
  EXPECT_DOUBLE_EQ(d.total(), 2.0);
  EXPECT_EQ(d.nonZeroPairs().size(), 2u);
}

TEST(TrafficMatrix, Equality) {
  TrafficMatrix a(2), b(2);
  a.set(0, 1, 1.0);
  EXPECT_FALSE(a == b);
  b.set(0, 1, 1.0);
  EXPECT_TRUE(a == b);
}

TEST(TrafficMatrix, RefusesNonFiniteValuesAndOverflowingScales) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TrafficMatrix d(3);
  EXPECT_THROW(d.set(0, 1, inf), std::invalid_argument);
  EXPECT_THROW(d.set(0, 1, nan), std::invalid_argument);
  d.set(0, 1, 1e300);
  d.set(2, 0, 2.0);
  const TrafficMatrix before = d;
  EXPECT_THROW(d.scale(inf), std::invalid_argument);
  EXPECT_THROW(d.scale(nan), std::invalid_argument);
  EXPECT_THROW(d.scale(1e10), std::invalid_argument);  // 1e310 overflows
  EXPECT_THROW(d.scale(-1.0), std::invalid_argument);
  // Every refusal happened before any entry moved.
  EXPECT_TRUE(d == before);
  EXPECT_EQ(d.at(2, 0), 2.0);
  d.scale(1e-300);  // shrinking stays finite
  EXPECT_EQ(d.at(0, 1), 1e300 * 1e-300);
}

TEST(TrafficMatrix, ColumnsAreStoredOnDemand) {
  TrafficMatrix a(4), b(4);
  EXPECT_FALSE(a.hasDemandTo(2));
  a.set(0, 2, 0.0);  // a zero into a missing column stores nothing
  EXPECT_FALSE(a.hasDemandTo(2));
  EXPECT_TRUE(a == b);
  a.set(1, 2, 3.0);
  EXPECT_TRUE(a.hasDemandTo(2));
  EXPECT_FALSE(a.hasDemandTo(1));
  EXPECT_FALSE(a == b);
  a.set(1, 2, 0.0);  // a stored all-zero column equals a missing one
  EXPECT_FALSE(a.hasDemandTo(2));
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);
  EXPECT_THROW((void)a.hasDemandTo(4), std::invalid_argument);
}

/// Row-major |V| x |V| reference matrix: the layout TrafficMatrix stored
/// before it kept destination columns. The differential tests below hold
/// the column store to it entry by entry.
struct DenseReference {
  int n;
  std::vector<double> d;

  explicit DenseReference(int num_nodes)
      : n(num_nodes), d(static_cast<std::size_t>(num_nodes) * num_nodes) {}
  static DenseReference of(const TrafficMatrix& m) {
    DenseReference r(m.numNodes());
    for (NodeId s = 0; s < r.n; ++s) {
      for (NodeId t = 0; t < r.n; ++t) r.d[s * r.n + t] = m.at(s, t);
    }
    return r;
  }
  void set(NodeId s, NodeId t, double v) { d[s * n + t] = v; }
  void scale(double f) {
    for (double& v : d) v *= f;
  }
  [[nodiscard]] double total() const {
    double sum = 0.0;
    for (const double v : d) sum += v;
    return sum;
  }
  [[nodiscard]] double maxEntry() const {
    double m = 0.0;
    for (const double v : d) m = std::max(m, v);
    return m;
  }
  [[nodiscard]] bool hasDemandTo(NodeId t) const {
    for (NodeId s = 0; s < n; ++s) {
      if (d[s * n + t] > 0.0) return true;
    }
    return false;
  }
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> nonZeroPairs() const {
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (d[s * n + t] > 0.0) pairs.emplace_back(s, t);
      }
    }
    return pairs;
  }
};

void expectAgrees(const TrafficMatrix& m, const DenseReference& r) {
  ASSERT_EQ(m.numNodes(), r.n);
  for (NodeId s = 0; s < r.n; ++s) {
    for (NodeId t = 0; t < r.n; ++t) {
      ASSERT_EQ(m.at(s, t), r.d[s * r.n + t]) << s << "->" << t;
    }
  }
  EXPECT_EQ(m.total(), r.total());  // bit-equal, not merely near
  EXPECT_EQ(m.maxEntry(), r.maxEntry());
  EXPECT_EQ(m.nonZeroPairs(), r.nonZeroPairs());
  for (NodeId t = 0; t < r.n; ++t) {
    EXPECT_EQ(m.hasDemandTo(t), r.hasDemandTo(t)) << "destination " << t;
  }
}

void expectEqualityAgrees(const TrafficMatrix& a, const DenseReference& ra,
                          const TrafficMatrix& b, const DenseReference& rb) {
  const bool dense_equal = ra.n == rb.n && ra.d == rb.d;
  EXPECT_EQ(a == b, dense_equal);
  EXPECT_EQ(b == a, dense_equal);
}

TEST(TrafficMatrix, MatchesDenseReferenceOnRandomEdits) {
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 7);
    std::uniform_int_distribution<NodeId> node(0, n - 1);
    std::uniform_real_distribution<double> value(0.0, 4.0);
    TrafficMatrix a(n), b(n);
    DenseReference ra(n), rb(n);
    for (int op = 0; op < 40; ++op) {
      const int kind = static_cast<int>(rng() % 8);
      if (kind == 0) {
        const double factors[] = {0.0, 0.5, 3.0, value(rng)};
        const double f = factors[rng() % 4];
        a.scale(f);
        ra.scale(f);
        b.scale(f);
        rb.scale(f);
        continue;
      }
      const NodeId s = node(rng);
      const NodeId t = node(rng);
      if (s == t) continue;
      // Zeros, fresh values and re-sets of a value already there.
      const double v = kind == 1   ? 0.0
                       : kind == 2 ? ra.d[s * n + t]
                                   : value(rng);
      a.set(s, t, v);
      ra.set(s, t, v);
      // b follows a, except that it sometimes stores a column a lacks and
      // zeroes it again (logically equal), or takes a different value.
      if (rng() % 4 == 0 && v == 0.0) {
        b.set(s, t, 1.0);
        b.set(s, t, 0.0);
        rb.set(s, t, 0.0);
      } else if (rng() % 16 == 0) {
        b.set(s, t, v + 1.0);
        rb.set(s, t, v + 1.0);
      } else {
        b.set(s, t, v);
        rb.set(s, t, v);
      }
    }
    expectAgrees(a, ra);
    expectAgrees(b, rb);
    expectEqualityAgrees(a, ra, b, rb);
    if (HasFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
}

TEST(TrafficMatrix, GeneratedMatricesMatchDenseReference) {
  const Graph geant = topo::makeZoo("Geant");
  const Graph fat = topo::fatTree(4);
  std::vector<TrafficMatrix> all;
  all.push_back(gravityMatrix(geant, 3.0));
  GravityOptions top;
  top.top_k = 3;
  all.push_back(gravityMatrix(geant, 5.0, top));
  GravityOptions hosts;
  hosts.top_k = 2;
  hosts.endpoint_prefix = "edge";
  all.push_back(gravityMatrix(fat, 1.0, hosts));
  all.push_back(bimodalMatrix(geant, {}, 7, 10.0));
  for (auto& d : cornerPool(marginBounds(all[1], 2.0))) {
    all.push_back(std::move(d));
  }
  for (auto& d : cornerPool(marginBounds(all[0], 1.5))) {
    all.push_back(std::move(d));
  }
  ObliviousPoolOptions obl;
  obl.source_concentrated = true;
  for (auto& d : obliviousPool(geant.numNodes(), obl)) {
    all.push_back(std::move(d));
  }
  std::vector<DenseReference> refs;
  for (const TrafficMatrix& d : all) {
    refs.push_back(DenseReference::of(d));
    expectAgrees(d, refs.back());
    if (HasFailure()) return;
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = 0; j < all.size(); ++j) {
      expectEqualityAgrees(all[i], refs[i], all[j], refs[j]);
    }
  }
}

TEST(Gravity, ProportionalToCapacityProducts) {
  Graph g;
  const NodeId a = g.addNode();
  const NodeId b = g.addNode();
  const NodeId c = g.addNode();
  g.addEdge(a, b, 4.0);
  g.addEdge(b, c, 2.0);
  g.addEdge(c, a, 1.0);
  const TrafficMatrix d = gravityMatrix(g, 1.0);
  EXPECT_NEAR(d.total(), 1.0, 1e-12);
  // outCap: a=4, b=2, c=1 -> d(a,b)/d(a,c) = (4*2)/(4*1) = 2.
  EXPECT_NEAR(d.at(a, b) / d.at(a, c), 2.0, 1e-9);
  EXPECT_NEAR(d.at(b, a) / d.at(c, a), 2.0, 1e-9);
}

TEST(Gravity, AllPairsPositiveOnBackbones) {
  const Graph g = topo::makeZoo("Abilene");
  const TrafficMatrix d = gravityMatrix(g, 100.0);
  EXPECT_NEAR(d.total(), 100.0, 1e-9);
  EXPECT_EQ(d.nonZeroPairs().size(),
            static_cast<std::size_t>(g.numNodes() * (g.numNodes() - 1)));
}

TEST(Gravity, DefaultOptionsAreBitIdentical) {
  // GravityOptions{} must reproduce the historical dense matrix exactly
  // (committed baselines depend on it), not merely to tolerance.
  for (const char* name : {"Abilene", "Geant"}) {
    const Graph g = topo::makeZoo(name);
    const TrafficMatrix dense = gravityMatrix(g, 3.0);
    const TrafficMatrix opt = gravityMatrix(g, 3.0, GravityOptions{});
    for (NodeId s = 0; s < g.numNodes(); ++s) {
      for (NodeId t = 0; t < g.numNodes(); ++t) {
        if (s == t) continue;
        ASSERT_EQ(opt.at(s, t), dense.at(s, t)) << name;
      }
    }
  }
}

TEST(Gravity, TopKKeepsTheHeaviestDemandsPerSource) {
  const Graph g = topo::makeZoo("Geant");
  GravityOptions opt;
  opt.top_k = 3;
  const TrafficMatrix d = gravityMatrix(g, 5.0, opt);
  EXPECT_NEAR(d.total(), 5.0, 1e-9);  // renormalized after sparsification
  const TrafficMatrix dense = gravityMatrix(g, 5.0);
  for (NodeId s = 0; s < g.numNodes(); ++s) {
    int kept = 0;
    double min_kept = 1e300, max_dropped = 0.0;
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      if (s == t) continue;
      if (d.at(s, t) > 0.0) {
        ++kept;
        min_kept = std::min(min_kept, dense.at(s, t));
      } else {
        max_dropped = std::max(max_dropped, dense.at(s, t));
      }
    }
    EXPECT_EQ(kept, 3) << "source " << s;
    // The survivors really are the heaviest dense-gravity entries.
    EXPECT_GE(min_kept, max_dropped - 1e-12) << "source " << s;
  }
  // Deterministic: two builds agree exactly.
  const TrafficMatrix d2 = gravityMatrix(g, 5.0, opt);
  EXPECT_TRUE(d == d2);
}

TEST(Gravity, EndpointPrefixRestrictsToEdgeSwitches) {
  const Graph g = topo::fatTree(4);
  GravityOptions opt;
  opt.endpoint_prefix = "edge";
  const TrafficMatrix d = gravityMatrix(g, 1.0, opt);
  EXPECT_NEAR(d.total(), 1.0, 1e-12);
  int endpoints = 0;
  for (NodeId v = 0; v < g.numNodes(); ++v) {
    endpoints += g.nodeName(v).rfind("edge", 0) == 0;
  }
  EXPECT_EQ(endpoints, 8);  // k^2/2 edge switches at k = 4
  EXPECT_EQ(d.nonZeroPairs().size(),
            static_cast<std::size_t>(endpoints * (endpoints - 1)));
  for (const auto& [s, t] : d.nonZeroPairs()) {
    EXPECT_EQ(g.nodeName(s).rfind("edge", 0), 0u);
    EXPECT_EQ(g.nodeName(t).rfind("edge", 0), 0u);
  }
}

TEST(Bimodal, DeterministicInSeed) {
  const Graph g = topo::makeZoo("NSF");
  const TrafficMatrix a = bimodalMatrix(g, {}, 7, 10.0);
  const TrafficMatrix b = bimodalMatrix(g, {}, 7, 10.0);
  const TrafficMatrix c = bimodalMatrix(g, {}, 8, 10.0);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_NEAR(a.total(), 10.0, 1e-9);
}

TEST(Bimodal, ElephantsDominate) {
  const Graph g = topo::makeZoo("Geant");
  BimodalParams params;
  params.large_fraction = 0.1;
  const TrafficMatrix d = bimodalMatrix(g, params, 3, 1.0);
  // With a 10x mean gap, the top decile of entries should carry a
  // disproportionate share of the traffic.
  std::vector<double> v;
  for (const auto& [s, t] : d.nonZeroPairs()) v.push_back(d.at(s, t));
  std::sort(v.begin(), v.end(), std::greater<>());
  double top = 0.0;
  const std::size_t k = v.size() / 10;
  for (std::size_t i = 0; i < k; ++i) top += v[i];
  EXPECT_GT(top, 0.35 * d.total());
}

// ---------------------------------------------------------------------------

TEST(Uncertainty, MarginBounds) {
  TrafficMatrix base(2);
  base.set(0, 1, 4.0);
  const DemandBounds box = marginBounds(base, 2.0);
  EXPECT_DOUBLE_EQ(box.lo.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(box.hi.at(0, 1), 8.0);
  EXPECT_TRUE(box.contains(base));
  TrafficMatrix out(2);
  out.set(0, 1, 9.0);
  EXPECT_FALSE(box.contains(out));
  EXPECT_THROW((void)marginBounds(base, 0.5), std::invalid_argument);
}

TEST(Uncertainty, BoundsValidation) {
  TrafficMatrix lo(2), hi(2);
  lo.set(0, 1, 3.0);
  hi.set(0, 1, 1.0);
  EXPECT_THROW(DemandBounds(lo, hi), std::invalid_argument);
}

TEST(CornerPool, ContainsAllHiAndHotspots) {
  const Graph g = topo::makeZoo("Abilene");
  const TrafficMatrix base = gravityMatrix(g, 1.0);
  const DemandBounds box = marginBounds(base, 2.0);
  PoolOptions opt;
  opt.random_corners = 4;
  opt.pair_hotspots = 6;
  const auto pool = cornerPool(box, opt);
  // all-hi + n destination hotspots + n source hotspots + pairs + randoms.
  EXPECT_EQ(pool.size(),
            static_cast<std::size_t>(1 + 2 * g.numNodes() + 6 + 4));
  EXPECT_TRUE(pool.front() == box.hi);
  for (const auto& d : pool) EXPECT_TRUE(box.contains(d));
}

TEST(CornerPool, MarginOneCollapsesToBase) {
  const Graph g = topo::makeZoo("Abilene");
  const TrafficMatrix base = gravityMatrix(g, 1.0);
  const DemandBounds box = marginBounds(base, 1.0);
  for (const auto& d : cornerPool(box)) EXPECT_TRUE(d == base);
}

TEST(CornerPool, EntriesAreCornerValues) {
  const Graph g = topo::makeZoo("NSF");
  const TrafficMatrix base = gravityMatrix(g, 1.0);
  const DemandBounds box = marginBounds(base, 3.0);
  for (const auto& d : cornerPool(box)) {
    for (const auto& [s, t] : d.nonZeroPairs()) {
      const double v = d.at(s, t);
      const bool is_lo = std::abs(v - box.lo.at(s, t)) < 1e-12;
      const bool is_hi = std::abs(v - box.hi.at(s, t)) < 1e-12;
      EXPECT_TRUE(is_lo || is_hi);
    }
  }
}

TEST(CornerPool, PairHotspotsSpikeTheLargestPairs) {
  const Graph g = topo::makeZoo("Abilene");
  TrafficMatrix base = gravityMatrix(g, 1.0);
  const DemandBounds box = marginBounds(base, 3.0);
  PoolOptions opt;
  opt.destination_hotspots = false;
  opt.source_hotspots = false;
  opt.random_corners = 0;
  opt.pair_hotspots = 3;
  const auto pool = cornerPool(box, opt);
  ASSERT_EQ(pool.size(), 4u);  // all-hi + 3 pair spikes
  // Each pair matrix has exactly one entry at hi, the rest at lo.
  for (std::size_t k = 1; k < pool.size(); ++k) {
    int at_hi = 0;
    for (const auto& [s, t] : pool[k].nonZeroPairs()) {
      if (std::abs(pool[k].at(s, t) - box.hi.at(s, t)) < 1e-12) ++at_hi;
    }
    EXPECT_EQ(at_hi, 1);
  }
}

TEST(CornerPool, MaxHotspotsCapsPoolSize) {
  const Graph g = topo::makeZoo("Geant");
  const DemandBounds box = marginBounds(gravityMatrix(g, 1.0), 2.0);
  PoolOptions opt;
  opt.random_corners = 0;
  opt.pair_hotspots = 0;
  opt.max_hotspots = 5;
  const auto pool = cornerPool(box, opt);
  EXPECT_EQ(pool.size(), static_cast<std::size_t>(1 + 5 + 5));
}

TEST(ObliviousPool, DestinationConcentratedShape) {
  ObliviousPoolOptions opt;
  opt.destination_concentrated = true;
  opt.source_concentrated = false;
  opt.uniform = false;
  opt.random_sparse = 0;
  const auto pool = obliviousPool(5, opt);
  ASSERT_EQ(pool.size(), 5u);
  // Matrix k concentrates all demand on destination k.
  for (int k = 0; k < 5; ++k) {
    for (const auto& [s, t] : pool[k].nonZeroPairs()) EXPECT_EQ(t, k);
    EXPECT_EQ(pool[k].nonZeroPairs().size(), 4u);
  }
}

TEST(ObliviousPool, SparseRandomRespectsPairBudget) {
  ObliviousPoolOptions opt;
  opt.destination_concentrated = false;
  opt.source_concentrated = false;
  opt.uniform = false;
  opt.random_sparse = 6;
  opt.sparse_active_pairs = 2;
  const auto pool = obliviousPool(6, opt);
  EXPECT_EQ(pool.size(), 6u);
  for (const auto& d : pool) {
    EXPECT_LE(d.nonZeroPairs().size(), 2u);
    EXPECT_GE(d.nonZeroPairs().size(), 1u);
  }
}

TEST(ObliviousPool, SourceConcentratedAndUniform) {
  ObliviousPoolOptions opt;
  opt.destination_concentrated = false;
  opt.source_concentrated = true;
  opt.uniform = true;
  opt.random_sparse = 0;
  const auto pool = obliviousPool(4, opt);
  ASSERT_EQ(pool.size(), 5u);  // 4 source matrices + uniform
  for (int k = 0; k < 4; ++k) {
    for (const auto& [s, t] : pool[k].nonZeroPairs()) EXPECT_EQ(s, k);
  }
  EXPECT_EQ(pool.back().nonZeroPairs().size(), 12u);
}

}  // namespace
}  // namespace coyote::tm
