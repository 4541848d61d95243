// The pluggable TE-scheme API (src/scheme/): registry invariants
// (duplicate/unsafe/unknown keys), scheme semantics (margin dependence,
// failure reactions, invcap reweighting), the fibbing round-trip of every
// built-in scheme's configuration, thread-count bit-identity of a
// six-scheme sweep, and the runner's dynamic coyote-bench/4 rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/dag_builder.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "failure/degrade.hpp"
#include "failure/evaluate.hpp"
#include "failure/scenario.hpp"
#include "fibbing/lie_synthesis.hpp"
#include "fibbing/ospf_model.hpp"
#include "routing/ecmp.hpp"
#include "routing/propagation.hpp"
#include "scheme/registry.hpp"
#include "tm/traffic_matrix.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"

namespace coyote::te {
namespace {

// ---------------------------------------------------------------------------
// Registry invariants.
// ---------------------------------------------------------------------------

TEST(SchemeRegistry, BuiltinHasThePaperFourAsDefaultsPlusExtensions) {
  const SchemeRegistry& reg = SchemeRegistry::builtin();
  ASSERT_EQ(reg.defaults().size(), 4u);
  const char* const expected[] = {"ecmp", "base", "oblivious", "partial"};
  for (int i = 0; i < 4; ++i) {
    EXPECT_STREQ(reg.defaults()[i]->key(), expected[i]);
  }
  EXPECT_EQ(reg.all().size(), 6u);
  ASSERT_NE(reg.find("invcap-ecmp"), nullptr);
  ASSERT_NE(reg.find("semi-oblivious"), nullptr);
  // Only COYOTE-pk is margin-dependent; the OSPF family reconverges, the
  // COYOTE family repairs its DAGs.
  for (const Scheme* s : reg.all()) {
    EXPECT_EQ(s->marginDependent(), std::string(s->key()) == "partial")
        << s->key();
    const bool ospf_family = std::string(s->key()) == "ecmp" ||
                             std::string(s->key()) == "invcap-ecmp";
    EXPECT_EQ(s->reaction() == FailureReaction::kReconverge, ospf_family)
        << s->key();
  }
}

TEST(SchemeRegistry, DuplicateKeyRegistrationIsRejected) {
  SchemeRegistry reg;
  reg.add(makeEcmpScheme());
  EXPECT_THROW(reg.add(makeEcmpScheme()), std::invalid_argument);
  // The survivor is still registered exactly once.
  EXPECT_NE(reg.find("ecmp"), nullptr);
  EXPECT_EQ(reg.all().size(), 1u);
  EXPECT_THROW(reg.add(nullptr), std::invalid_argument);
}

// A scheme with an arbitrary key, for registration-hygiene tests.
class KeyedScheme final : public Scheme {
 public:
  explicit KeyedScheme(std::string key) : key_(std::move(key)) {}
  const char* key() const override { return key_.c_str(); }
  const char* display() const override { return "keyed"; }
  const char* describe() const override { return "test scheme"; }
  routing::RoutingConfig compute(const SchemeContext& ctx) const override {
    return routing::ecmpConfig(ctx.g, ctx.dags);
  }

 private:
  std::string key_;
};

TEST(SchemeRegistry, UnsafeAndReservedKeysAreRejected) {
  SchemeRegistry reg;
  // Keys become JSON row fields and CLI selectors: enforce the charset...
  for (const char* bad : {"", "Bad", "with_underscore", "sp ace", "ümlaut"}) {
    EXPECT_THROW(reg.add(std::make_unique<KeyedScheme>(bad)),
                 std::invalid_argument)
        << bad;
  }
  // ...and reject collisions with the runner's fixed row fields, which a
  // scheme ratio would silently overwrite in the emitted JSON.
  for (const char* reserved : {"margin", "network", "label", "unroutable"}) {
    EXPECT_THROW(reg.add(std::make_unique<KeyedScheme>(reserved)),
                 std::invalid_argument)
        << reserved;
  }
  reg.add(std::make_unique<KeyedScheme>("my-scheme-2"));
  EXPECT_NE(reg.find("my-scheme-2"), nullptr);
}

TEST(SchemeRegistry, UnknownKeyIsAHardErrorNamingTheKey) {
  const SchemeRegistry& reg = SchemeRegistry::builtin();
  try {
    (void)reg.parseList("ecmp,no-such-scheme");
    FAIL() << "unknown scheme key must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-scheme"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)reg.resolve({"partial", "bogus"}),
               std::invalid_argument);
  // A repeated key would sweep the scheme twice and emit duplicate JSON
  // row fields: rejected, naming the key.
  try {
    (void)reg.parseList("ecmp,partial,ecmp");
    FAIL() << "duplicate selection must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate scheme 'ecmp'"),
              std::string::npos)
        << e.what();
  }
}

TEST(SchemeRegistry, ParseListSelectsAndDefaults) {
  const SchemeRegistry& reg = SchemeRegistry::builtin();
  const auto picked = reg.parseList(" semi-oblivious , ecmp");
  ASSERT_EQ(picked.size(), 2u);  // order preserved, not registry order
  EXPECT_STREQ(picked[0]->key(), "semi-oblivious");
  EXPECT_STREQ(picked[1]->key(), "ecmp");
  // Tokens are trimmed, never space-stripped: an embedded space stays
  // part of the (unknown) key instead of silently resolving.
  EXPECT_THROW((void)reg.parseList("ecm p,base"), std::invalid_argument);
  // Empty selection falls back to the paper's four.
  const auto defaults = reg.parseList("");
  ASSERT_EQ(defaults.size(), 4u);
  EXPECT_STREQ(defaults[0]->key(), "ecmp");
}

// ---------------------------------------------------------------------------
// Scheme semantics.
// ---------------------------------------------------------------------------

TEST(Schemes, InvcapEcmpEqualsEcmpWhenWeightsAlreadyInverseCapacity) {
  const Graph g = topo::makeZoo("Abilene");  // zoo sets invcap weights
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const SchemeContext ctx{g,       dags,   base, core::CoyoteOptions{},
                          nullptr, nullptr};
  const auto ecmp =
      SchemeRegistry::builtin().find("ecmp")->compute(ctx);
  const auto invcap =
      SchemeRegistry::builtin().find("invcap-ecmp")->compute(ctx);
  // Same flows on every edge for any demand -> same loads; compare the
  // induced per-edge loads of the base matrix (the DAG sets differ in
  // object identity, so compare behavior, not ratios_ layout).
  const auto l1 = routing::computeLoads(g, ecmp, base);
  const auto l2 = routing::computeLoads(g, invcap, base);
  ASSERT_EQ(l1.size(), l2.size());
  for (std::size_t e = 0; e < l1.size(); ++e) {
    EXPECT_NEAR(l1[e], l2[e], 1e-12) << e;
  }
}

TEST(Schemes, SemiObliviousSitsBetweenObliviousAndBaseOnTheBaseMatrix) {
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::uniformMatrix(g, 1.0);
  core::CoyoteOptions copt;
  copt.splitting.iterations = 200;
  const SchemeContext ctx{g, dags, base, copt, nullptr, nullptr};
  const SchemeRegistry& reg = SchemeRegistry::builtin();

  routing::PerformanceEvaluator eval(g, dags);
  eval.addMatrix(base);
  const double r_obl = eval.ratioFor(reg.find("oblivious")->compute(ctx));
  const double r_semi =
      eval.ratioFor(reg.find("semi-oblivious")->compute(ctx));
  const double r_base = eval.ratioFor(reg.find("base")->compute(ctx));
  // Re-optimizing the oblivious splits for the base matrix can only help
  // on the base matrix, and can at best reach the in-DAG optimum.
  EXPECT_LE(r_semi, r_obl + 1e-9);
  EXPECT_GE(r_semi, r_base - 1e-7);
  EXPECT_NEAR(r_base, 1.0, 1e-7);  // 'base' is the optimum it is named for
}

TEST(Schemes, ReconvergeIsOnlyForOspfFamilySchemes) {
  const Graph g = topo::runningExample();
  const SchemeRegistry& reg = SchemeRegistry::builtin();
  EXPECT_THROW((void)reg.find("base")->reconverge(g), std::logic_error);
  EXPECT_THROW((void)reg.find("partial")->reconverge(g), std::logic_error);
  EXPECT_NO_THROW((void)reg.find("ecmp")->reconverge(g));
  EXPECT_NO_THROW((void)reg.find("invcap-ecmp")->reconverge(g));
}

TEST(Schemes, InvcapReconvergenceUsesSubstrateWeightsOnTheSurvivors) {
  // Triangle a-b, b-c, a-c with a fat direct a-c link but weights that
  // make the two-hop path the configured-weight shortest path. After
  // failing a-b, invcap-ECMP must route a->c on the (invcap-cheap) direct
  // link; weight-faithful ECMP reconvergence on the configured weights
  // would see cost 1 vs the detour's infinite cost too -- so distinguish
  // on the *intact* network instead, then check reconvergence sanity.
  Graph g;
  const NodeId a = g.addNode("a");
  const NodeId b = g.addNode("b");
  const NodeId c = g.addNode("c");
  g.addLink(a, b, 10.0, 1.0);
  g.addLink(b, c, 10.0, 1.0);
  const EdgeId ac = g.addLink(a, c, 100.0, 10.0);  // fat but high weight

  const auto dags = core::augmentedDagsShared(g);
  tm::TrafficMatrix base(g.numNodes());
  base.set(a, c, 1.0);
  const SchemeContext ctx{g,       dags,   base, core::CoyoteOptions{},
                          nullptr, nullptr};
  const SchemeRegistry& reg = SchemeRegistry::builtin();

  // Configured weights: a->c goes a-b-c (cost 2 < 10). Inverse-capacity
  // weights: direct a-c is the cheapest (10/100 scaled vs two 10/10 hops).
  const auto ecmp = reg.find("ecmp")->compute(ctx);
  const auto invcap = reg.find("invcap-ecmp")->compute(ctx);
  EXPECT_NEAR(routing::computeLoads(g, ecmp, base)[ac], 0.0, 1e-12);
  EXPECT_NEAR(routing::computeLoads(g, invcap, base)[ac], 1.0, 1e-12);

  // Fail b-c: both OSPF schemes reconverge onto the direct link.
  const EdgeId bc = *g.findEdge(b, c);
  const failure::FailureScenario f{"b-c",
                                   {std::min(bc, g.edge(bc).reverse)}};
  const Graph degraded = failure::degradedGraph(g, f);
  for (const char* key : {"ecmp", "invcap-ecmp"}) {
    const auto post = reg.find(key)->reconverge(degraded);
    EXPECT_NEAR(routing::computeLoads(degraded, post, base)[ac], 1.0, 1e-12)
        << key;
  }
}

// ---------------------------------------------------------------------------
// Fibbing round-trip: every built-in scheme's intact configuration is
// realizable with OSPF lies on its substrate -- synthesize the lies, re-run
// the OSPF model's SPF, and verify the FIBs realize the (apportioned)
// config. For the OSPF-family schemes the plan must need no lies at all.
// ---------------------------------------------------------------------------

TEST(Schemes, EveryBuiltinConfigRoundTripsThroughSynthesizedLies) {
  constexpr int kBudget = 6;
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::uniformMatrix(g, 1.0);
  const tm::DemandBounds box = tm::marginBounds(base, 2.0);

  core::CoyoteOptions copt;
  copt.splitting.iterations = 120;

  for (const Scheme* s : SchemeRegistry::builtin().all()) {
    SCOPED_TRACE(s->key());
    routing::PerformanceEvaluator pool(g, dags, copt.lp);
    tm::PoolOptions popt;
    popt.source_hotspots = false;
    popt.random_corners = 2;
    pool.addPool(tm::cornerPool(box, popt));
    const SchemeContext ctx{g, dags, base, copt, &box, &pool};
    const routing::RoutingConfig cfg = s->compute(ctx);

    // Lies are priced against the scheme's OSPF substrate (invcap-ecmp
    // re-weights; everyone else keeps the configured weights).
    const Graph substrate = s->ospfSubstrate(g);
    fib::OspfModel model(substrate);
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      model.advertisePrefix(t, t);
      const fib::LiePlan plan =
          fib::synthesizeLies(substrate, cfg, t, t, kBudget);
      fib::applyPlan(model, plan);
      EXPECT_TRUE(fib::verifyRealization(model, cfg, t, t, kBudget))
          << "dest " << g.nodeName(t);
      EXPECT_TRUE(model.forwardingIsLoopFree(t)) << "dest " << g.nodeName(t);
    }
    if (s->reaction() == FailureReaction::kReconverge) {
      // Plain OSPF/ECMP over the substrate weights needs no lies.
      EXPECT_EQ(model.fakeNodeCount(), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Thread-count bit-identity: a sweep over all six schemes on the smoke
// scenario's topology must produce identical rows for 1/2/8 threads.
// ---------------------------------------------------------------------------

TEST(Schemes, SixSchemeSweepIsBitIdenticalAcrossThreadCounts) {
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::uniformMatrix(g, 1.0);

  std::vector<exp::SchemeRow> rows;
  for (const unsigned threads : {1u, 2u, 8u}) {
    exp::SweepOptions opt;
    opt.coyote.splitting.iterations = 150;
    opt.threads = threads;
    const exp::NetworkSweep sweep(g, dags, base, opt,
                                  SchemeRegistry::builtin().all());
    ASSERT_EQ(sweep.schemes().size(), 6u);
    rows.push_back(sweep.run(2.0));
  }
  const exp::SchemeRow& ref = rows.front();
  ASSERT_EQ(ref.ratio.size(), 6u);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    for (std::size_t i = 0; i < ref.ratio.size(); ++i) {
      // Bit-identical, not merely close.
      EXPECT_EQ(ref.ratio[i], rows[r].ratio[i]) << "scheme " << i;
    }
    EXPECT_EQ(ref.lp_solves, rows[r].lp_solves);
    EXPECT_EQ(ref.lp_pivots, rows[r].lp_pivots);
    EXPECT_EQ(ref.scheme_lp_pivots, rows[r].scheme_lp_pivots);
  }
}

// ---------------------------------------------------------------------------
// Sweep + failure-evaluator integration over custom scheme lists.
// ---------------------------------------------------------------------------

TEST(Schemes, NetworkSweepRespectsTheSchemeListOrder) {
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::uniformMatrix(g, 1.0);
  exp::SweepOptions opt;
  opt.coyote.splitting.iterations = 120;

  const auto schemes =
      SchemeRegistry::builtin().parseList("partial,ecmp");
  const exp::NetworkSweep sweep(g, dags, base, opt, schemes);
  const exp::SchemeRow row = sweep.run(2.0);
  ASSERT_EQ(row.ratio.size(), 2u);
  // COYOTE-pk is never worse than ECMP on the optimization pool.
  EXPECT_LE(row.ratio[0], row.ratio[1] + 1e-9);
  // intactRouting serves margin-independent schemes only.
  EXPECT_NO_THROW((void)sweep.intactRouting(1));
  EXPECT_THROW((void)sweep.intactRouting(0), std::logic_error);
}

TEST(Schemes, FailureEvaluatorSweepsCustomListsWithKeyedStats) {
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::uniformMatrix(g, 1.0);

  failure::FailureEvalOptions opt;
  opt.coyote.splitting.iterations = 120;
  opt.pool.random_corners = 2;
  opt.pool.pair_hotspots = 2;
  opt.schemes = SchemeRegistry::builtin().parseList(
      "ecmp,invcap-ecmp,semi-oblivious");
  const failure::FailureEvaluator eval(g, dags, base, opt);
  const failure::FailureSweepResult res =
      eval.evaluate(failure::singleLinkFailures(g));

  ASSERT_EQ(res.schemes.size(), 3u);
  EXPECT_EQ(res.schemes[0].first, "ecmp");
  EXPECT_EQ(res.schemes[1].first, "invcap-ecmp");
  EXPECT_EQ(res.schemes[2].first, "semi-oblivious");
  EXPECT_EQ(res.evaluated, 5);
  for (const failure::FailureOutcome& o : res.outcomes) {
    ASSERT_EQ(o.ratio.size(), 3u);
    // Both OSPF schemes reconverge: always routable on a connected graph,
    // and on this all-unit-capacity network they coincide.
    EXPECT_TRUE(o.routable[0]) << o.label;
    EXPECT_TRUE(o.routable[1]) << o.label;
    EXPECT_EQ(o.ratio[0], o.ratio[1]) << o.label;
  }
  const failure::IntactSchemes& intact = eval.intact();
  EXPECT_NO_THROW((void)intact.intactRouting("semi-oblivious"));
  EXPECT_THROW((void)intact.intactRouting("partial"), std::invalid_argument);
  // Reconverge schemes keep no intact config (their post-failure routing
  // is recomputed from the degraded graph alone).
  EXPECT_THROW((void)intact.intactRouting("ecmp"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Runner integration: dynamic coyote-bench/4 rows.
// ---------------------------------------------------------------------------

TEST(SchemeRunner, EmitsSchemaFourRowsForSelectedSchemes) {
  const exp::Scenario* s =
      exp::ScenarioRegistry::global().find("running-example");
  ASSERT_NE(s, nullptr);
  exp::RunOptions opt;
  opt.print = false;
  opt.schemes = {"invcap-ecmp", "semi-oblivious"};
  const exp::ExperimentRunner runner(opt);
  const exp::ScenarioResult result = runner.run(*s);
  EXPECT_TRUE(result.ok);

  const util::json::Value& doc = result.document;
  EXPECT_EQ(doc.stringOr("schema", ""), "coyote-bench/7");
  const util::json::Value* schemes = doc.find("schemes");
  ASSERT_NE(schemes, nullptr);
  ASSERT_EQ(schemes->asArray().size(), 2u);
  const util::json::Value* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_FALSE(rows->asArray().empty());
  for (const util::json::Value& row : rows->asArray()) {
    EXPECT_GE(row.numberOr("invcap-ecmp", -1.0), 1.0 - 1e-7);
    EXPECT_GE(row.numberOr("semi-oblivious", -1.0), 1.0 - 1e-7);
    EXPECT_EQ(row.find("ecmp"), nullptr);   // not selected, not emitted
    EXPECT_EQ(row.find("partial"), nullptr);
    // Per-scheme LP work counts ride under lp_-prefixed keys.
    const util::json::Value* pivots = row.find("lp_scheme_pivots");
    ASSERT_NE(pivots, nullptr);
    EXPECT_NE(pivots->find("semi-oblivious"), nullptr);
  }
}

TEST(SchemeRunner, MarginGridComesFromIntegerSteps) {
  // 1..5 in 0.5 steps: naive `m += 0.5` accumulation can drop 5.0; the
  // integer-step generator must not.
  const auto grid = exp::marginGrid(5.0, true);
  ASSERT_EQ(grid.size(), 9u);
  EXPECT_EQ(grid.front(), 1.0);
  EXPECT_EQ(grid.back(), 5.0);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i], 1.0 + 0.5 * static_cast<double>(i));
  }
  const auto quick = exp::marginGrid(3.0, false);
  ASSERT_EQ(quick.size(), 3u);
  EXPECT_EQ(quick[2], 3.0);
}

}  // namespace
}  // namespace coyote::te
