#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "core/dag_builder.hpp"
#include "routing/dual_certificate.hpp"
#include "routing/ecmp.hpp"
#include "routing/optu.hpp"
#include "routing/worst_case.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"

namespace coyote::routing {
namespace {

TEST(DualCertificate, StrongDualityOnRunningExample) {
  // Each edge's certificate is a feasible point of the dual of its
  // slave LP, so it bounds that LP from above (weak duality); the winning
  // edge is certified by its own optimal duals, so there the bound is
  // tight (strong duality). Pruned edges carry bounds, not LP optima.
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig ecmp = ecmpConfig(g, dags);
  const ObliviousCertificate cert = certifyObliviousRatio(g, ecmp);
  const WorstCaseResult wc = findWorstCaseDemand(g, ecmp);
  EXPECT_EQ(cert.ratio, wc.ratio);
  EXPECT_TRUE(checkCertificate(g, ecmp, cert));
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const double primal = findWorstCaseDemandForEdge(g, ecmp, e).ratio;
    EXPECT_GE(cert.edges[e].ratio, primal - 1e-9) << "edge " << e;
  }
  ASSERT_GE(wc.edge, 0);
  EXPECT_NEAR(cert.edges[wc.edge].ratio, wc.ratio, 1e-9 * wc.ratio);
}

TEST(DualCertificate, CertificateValidates) {
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig uni = RoutingConfig::uniform(g, dags);
  const ObliviousCertificate cert = certifyObliviousRatio(g, uni);
  EXPECT_GT(cert.ratio, 1.0);
  EXPECT_TRUE(checkCertificate(g, uni, cert));
}

TEST(DualCertificate, TamperedCertificateIsRejected) {
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig uni = RoutingConfig::uniform(g, dags);
  const ObliviousCertificate cert = certifyObliviousRatio(g, uni);
  ASSERT_TRUE(checkCertificate(g, uni, cert));
  const auto rejects = [&](const char* what, const auto& tamper) {
    ObliviousCertificate bad = cert;
    tamper(bad);
    EXPECT_FALSE(checkCertificate(g, uni, bad)) << what;
  };
  // Claiming a smaller ratio must fail R1.
  rejects("halved ratio", [](ObliviousCertificate& c) {
    c.ratio *= 0.5;
    for (auto& ec : c.edges) ec.ratio *= 0.5;
  });
  // Empty weights claim "nothing loads this edge".
  rejects("cleared weights", [](ObliviousCertificate& c) {
    for (auto& ec : c.edges) ec.pi.clear();
  });
  // Entry i must certify edge i, not repeat one (lightly loaded) edge.
  rejects("duplicated edge", [](ObliviousCertificate& c) {
    for (auto& ec : c.edges) ec = c.edges.front();
  });
  rejects("mislabeled edge", [](ObliviousCertificate& c) {
    std::swap(c.edges[0].edge, c.edges[1].edge);
  });
  rejects("truncated weights", [](ObliviousCertificate& c) {
    for (auto& ec : c.edges) {
      if (!ec.pi.empty()) ec.pi.pop_back();
    }
  });
  rejects("NaN weight", [](ObliviousCertificate& c) {
    for (auto& ec : c.edges) {
      if (!ec.pi.empty()) ec.pi.front() = std::nan("");
    }
  });
}

TEST(DualCertificate, ZeroedWeightsAreRejected) {
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig uni = RoutingConfig::uniform(g, dags);
  ObliviousCertificate cert = certifyObliviousRatio(g, uni);
  // Zero out the weights of the worst edge: R2 must now fail.
  int worst = 0;
  for (std::size_t i = 0; i < cert.edges.size(); ++i) {
    if (cert.edges[i].ratio > cert.edges[worst].ratio) {
      worst = static_cast<int>(i);
    }
  }
  std::fill(cert.edges[worst].pi.begin(), cert.edges[worst].pi.end(), 0.0);
  EXPECT_FALSE(checkCertificate(g, uni, cert));
}

class DualityOnBackbones : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DualityOnBackbones, CertificateMatchesSlaveLp) {
  const Graph g = topo::randomBackbone(7, 3.0, GetParam());
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig cfg = RoutingConfig::uniform(g, dags);
  const ObliviousCertificate cert = certifyObliviousRatio(g, cfg);
  const WorstCaseResult wc = findWorstCaseDemand(g, cfg);
  EXPECT_EQ(cert.ratio, wc.ratio) << "seed " << GetParam();
  EXPECT_TRUE(checkCertificate(g, cfg, cert)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualityOnBackbones,
                         ::testing::Values(2u, 9u, 17u));

// ---------------------------------------------------------------------------
// Bounded demand sets (Appendix C, closing paragraph).
// ---------------------------------------------------------------------------

TEST(BoxCertificate, StrongDualityOnRunningExample) {
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig uni = RoutingConfig::uniform(g, dags);
  tm::TrafficMatrix base(g.numNodes());
  base.set(*g.findNode("s1"), *g.findNode("t"), 1.0);
  base.set(*g.findNode("s2"), *g.findNode("t"), 0.5);
  const tm::DemandBounds box = tm::marginBounds(base, 2.0);
  const BoxCertificate cert = certifyBoxRatio(g, uni, box);
  const WorstCaseResult wc = findWorstCaseDemand(g, uni, &box);
  EXPECT_EQ(cert.ratio, wc.ratio);
  EXPECT_TRUE(checkBoxCertificate(g, uni, box, cert));
}

TEST(BoxCertificate, MarginOneCertifiesBaseOptimalAtOne) {
  // At margin 1 the box is {base}; the base-optimal routing must be
  // certified at exactly 1.0 (the regression scenario that exposed the
  // phase-2 artificial-drift solver bug).
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  tm::TrafficMatrix base(g.numNodes());
  base.set(*g.findNode("s1"), *g.findNode("t"), 1.0);
  base.set(*g.findNode("s2"), *g.findNode("t"), 1.0);
  const auto opt = optimalRoutingForDemand(g, dags, base);
  const tm::DemandBounds box = tm::marginBounds(base, 1.0);
  const BoxCertificate cert = certifyBoxRatio(g, opt.routing, box);
  EXPECT_NEAR(cert.ratio, 1.0, 1e-5);
  EXPECT_TRUE(checkBoxCertificate(g, opt.routing, box, cert));
}

TEST(BoxCertificate, TamperingIsRejected) {
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig uni = RoutingConfig::uniform(g, dags);
  const tm::DemandBounds box =
      tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0);
  const BoxCertificate cert = certifyBoxRatio(g, uni, box);
  ASSERT_TRUE(checkBoxCertificate(g, uni, box, cert));
  const auto rejects = [&](const char* what, const auto& tamper) {
    BoxCertificate bad = cert;
    tamper(bad);
    EXPECT_FALSE(checkBoxCertificate(g, uni, box, bad)) << what;
  };
  rejects("scaled ratio", [](BoxCertificate& c) {
    c.ratio *= 0.8;
    for (auto& ec : c.edges) ec.ratio *= 0.8;
  });
  rejects("cleared weights", [](BoxCertificate& c) {
    for (auto& ec : c.edges) ec.pi.clear();
  });
  rejects("duplicated edge", [](BoxCertificate& c) {
    for (auto& ec : c.edges) ec = c.edges.front();
  });
  rejects("mislabeled edge", [](BoxCertificate& c) {
    std::swap(c.edges[0].edge, c.edges[1].edge);
  });
  // Short potentials must be rejected, not read past their end.
  rejects("truncated p", [](BoxCertificate& c) {
    for (auto& ec : c.edges) {
      if (!ec.p.empty()) ec.p.pop_back();
    }
  });
  rejects("truncated p[t]", [](BoxCertificate& c) {
    for (auto& ec : c.edges) {
      for (auto& pt : ec.p) {
        if (!pt.empty()) pt.pop_back();
      }
    }
  });
  rejects("truncated s+", [](BoxCertificate& c) {
    for (auto& ec : c.edges) {
      if (!ec.s_plus.empty()) ec.s_plus.pop_back();
    }
  });
}

TEST(BoxCertificate, TighterBoxCertifiesSmallerRatio) {
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig uni = RoutingConfig::uniform(g, dags);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const double r15 =
      certifyBoxRatio(g, uni, tm::marginBounds(base, 1.5)).ratio;
  const double r30 =
      certifyBoxRatio(g, uni, tm::marginBounds(base, 3.0)).ratio;
  EXPECT_LE(r15, r30 + 1e-9);
}

class BoxDualityOnBackbones : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BoxDualityOnBackbones, CertificateMatchesSlaveLp) {
  const Graph g = topo::randomBackbone(6, 3.0, GetParam());
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig cfg = RoutingConfig::uniform(g, dags);
  const tm::DemandBounds box =
      tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0);
  const BoxCertificate cert = certifyBoxRatio(g, cfg, box);
  const WorstCaseResult wc = findWorstCaseDemand(g, cfg, &box);
  EXPECT_EQ(cert.ratio, wc.ratio) << "seed " << GetParam();
  EXPECT_TRUE(checkBoxCertificate(g, cfg, box, cert))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoxDualityOnBackbones,
                         ::testing::Values(4u, 12u, 23u));

TEST(DualCertificate, GoldenRoutingOnAbilene) {
  // A full-size sanity check: certificate == slave LP on ECMP/Abilene.
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  const RoutingConfig ecmp = ecmpConfig(g, dags);
  const ObliviousCertificate cert = certifyObliviousRatio(g, ecmp);
  const WorstCaseResult wc = findWorstCaseDemand(g, ecmp);
  EXPECT_EQ(cert.ratio, wc.ratio);
  EXPECT_TRUE(checkCertificate(g, ecmp, cert));
}

}  // namespace
}  // namespace coyote::routing
