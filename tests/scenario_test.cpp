// exp::ScenarioRegistry -- the experiment grid behind coyote_experiments:
// id uniqueness, filtering, and that every
// registered scenario actually builds (graph, base matrix, corner pool).
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "core/dag_builder.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "tm/uncertainty.hpp"
#include "topo/zoo.hpp"

namespace coyote::exp {
namespace {

const ScenarioRegistry& reg() { return ScenarioRegistry::global(); }

TEST(ScenarioRegistry, CoversThePaperAndTheExtensionGrid) {
  // The acceptance bar for the harness: the paper's 7 figures + Table I +
  // ablations plus the zoo x demand-model and synthetic grids.
  EXPECT_GE(reg().all().size(), 25u);
  for (const char* id :
       {"fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
        "table1", "ablation-dag-aug", "ablation-optimizer",
        "ablation-hardness", "running-example"}) {
    EXPECT_NE(reg().find(id), nullptr) << id;
  }
  // Every Zoo topology appears under every base-demand model.
  for (const std::string& name : topo::zooNames()) {
    std::string lower;
    for (const char c : name) {
      lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    for (const char* model : {"gravity", "bimodal", "uniform"}) {
      EXPECT_NE(reg().find("zoo-" + lower + "-" + model), nullptr)
          << name << " x " << model;
    }
  }
}

TEST(ScenarioRegistry, IdsAreUniqueAndWellFormed) {
  std::set<std::string> seen;
  for (const Scenario& s : reg().all()) {
    EXPECT_FALSE(s.id.empty());
    EXPECT_TRUE(seen.insert(s.id).second) << "duplicate id: " << s.id;
    EXPECT_FALSE(s.description.empty()) << s.id;
    EXPECT_FALSE(s.tags.empty()) << s.id;
    // Ids are shell- and filename-safe (they name BENCH_<id>.json files).
    for (const char c : s.id) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '-')
          << s.id;
    }
  }
}

TEST(ScenarioRegistry, FindAndMatch) {
  EXPECT_EQ(reg().find("no-such-scenario"), nullptr);
  const Scenario* fig06 = reg().find("fig06");
  ASSERT_NE(fig06, nullptr);
  EXPECT_EQ(fig06->kind, ScenarioKind::kSchemes);
  EXPECT_TRUE(fig06->hasTag("figure"));
  EXPECT_FALSE(fig06->hasTag("synthetic"));

  // match() hits ids and tags, and the empty pattern selects everything.
  EXPECT_EQ(reg().match("").size(), reg().all().size());
  const auto figures = reg().match("figure");
  EXPECT_GE(figures.size(), 7u);
  for (const Scenario* s : figures) EXPECT_TRUE(s->hasTag("figure"));
  // Substring semantics: "fig06" also selects its failure variants
  // (fig06-fail1, fig06-srlg, fig06-fail2).
  EXPECT_EQ(reg().match("fig06").size(), 4u);
  EXPECT_EQ(reg().match("fig07").size(), 3u);
  EXPECT_EQ(reg().match("fig06-fail1").size(), 1u);
  EXPECT_TRUE(reg().match("zzz-no-hit").empty());

  // The CI smoke selection: small scenarios that finish in seconds.
  EXPECT_GE(reg().match("smoke").size(), 2u);
}

TEST(ScenarioRegistry, MarginGridsAreSane) {
  for (const Scenario& s : reg().all()) {
    switch (s.kind) {
      case ScenarioKind::kSchemes:
      case ScenarioKind::kTable:
      case ScenarioKind::kLocalSearch:
      case ScenarioKind::kQuantization: {
        ASSERT_FALSE(s.margins.empty()) << s.id;
        // Full grids refine the quick ones; both start at margin >= 1 and
        // ascend (margin 1 = no uncertainty, the paper's leftmost point).
        for (const std::vector<double>& grid :
             {s.grid(false), s.grid(true)}) {
          EXPECT_GE(grid.front(), 1.0) << s.id;
          for (std::size_t i = 1; i < grid.size(); ++i) {
            EXPECT_LT(grid[i - 1], grid[i]) << s.id;
          }
        }
        EXPECT_GE(s.grid(true).size(), s.grid(false).size()) << s.id;
        break;
      }
      default:
        break;
    }
  }
}

TEST(ScenarioRegistry, ServeScenariosAreRegistered) {
  const Scenario* smoke = reg().find("serve-running-example");
  ASSERT_NE(smoke, nullptr);
  EXPECT_EQ(smoke->kind, ScenarioKind::kServe);
  EXPECT_TRUE(smoke->hasTag("serve"));
  EXPECT_TRUE(smoke->hasTag("smoke"));  // the CI bench gate replays it
  EXPECT_GT(smoke->serve_events, 0);

  const Scenario* geant = reg().find("serve-geant-500");
  ASSERT_NE(geant, nullptr);
  EXPECT_EQ(geant->kind, ScenarioKind::kServe);
  EXPECT_EQ(geant->serve_events, 500);
  EXPECT_FALSE(geant->hasTag("smoke"));

  EXPECT_STREQ(kindName(ScenarioKind::kServe), "serve");
}

TEST(ScenarioRegistry, ScalingScenariosAreRegistered) {
  // One entry per structured family/size from the registry's scaling
  // grid; every ladder ascends and the smoke rung is CI-affordable.
  for (const char* id :
       {"scaling-fattree-smoke", "scaling-fattree-k8", "scaling-fattree-k12",
        "scaling-fattree-k16", "scaling-dragonfly-a4", "scaling-dragonfly-a8",
        "scaling-hmesh-x2", "scaling-hmesh-x3", "scaling-torus"}) {
    const Scenario* s = reg().find(id);
    ASSERT_NE(s, nullptr) << id;
    EXPECT_EQ(s->kind, ScenarioKind::kScaling) << id;
    EXPECT_TRUE(s->hasTag("scaling")) << id;
    ASSERT_FALSE(s->ladder.empty()) << id;
    // `topology` mirrors the smallest rung for single-topology consumers.
    EXPECT_EQ(s->topology.label(), s->ladder.front().label()) << id;
    int prev_nodes = 0;
    for (const TopologySpec& rung : s->ladder) {
      const Graph g = rung.build();
      EXPECT_GT(static_cast<int>(g.numNodes()), prev_nodes)
          << id << " rung " << rung.label();
      EXPECT_TRUE(g.stronglyConnected()) << id << " rung " << rung.label();
      prev_nodes = static_cast<int>(g.numNodes());
    }
    EXPECT_GT(s->fixed_margin, 1.0) << id;
  }
  EXPECT_STREQ(kindName(ScenarioKind::kScaling), "scaling");

  const Scenario* smoke = reg().find("scaling-fattree-smoke");
  EXPECT_TRUE(smoke->hasTag("smoke"));
  EXPECT_EQ(smoke->ladder.size(), 1u);
  EXPECT_EQ(smoke->ladder.front().label(), "fattree4");

  // The k16 acceptance ladder tops out at the paper-scale 320-node rung.
  const Scenario* k16 = reg().find("scaling-fattree-k16");
  EXPECT_FALSE(k16->hasTag("smoke"));
  EXPECT_EQ(k16->ladder.back().label(), "fattree16");
  EXPECT_EQ(k16->ladder.back().build().numNodes(), 320u);
}

TEST(ScenarioRegistry, ScalingRowsAreBitIdenticalAcrossThreadCounts) {
  // The CSR graph core + sparse OPTU templates must not perturb the
  // thread-count invariance contract (SweepOptions::threads): the same
  // scaling rung computed on 1, 2 and 8 private threads yields the same
  // bits, pivots included.
  const Scenario* smoke = reg().find("scaling-fattree-smoke");
  ASSERT_NE(smoke, nullptr);
  const Graph g = smoke->ladder.front().build();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = smoke->demand.build(g);

  std::vector<SchemeRow> rows;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SweepOptions opt = smoke->sweep;
    opt.threads = threads;
    const NetworkSweep sweep(g, dags, base, opt);
    rows.push_back(sweep.run(smoke->fixed_margin));
  }
  ASSERT_EQ(rows[0].ratio.size(), rows[1].ratio.size());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < rows[0].ratio.size(); ++j) {
      EXPECT_EQ(rows[i].ratio[j], rows[0].ratio[j]) << "scheme " << j;
    }
    EXPECT_EQ(rows[i].lp_pivots, rows[0].lp_pivots);
    EXPECT_EQ(rows[i].lp_solves, rows[0].lp_solves);
  }
}

TEST(ScenarioRegistry, EveryScenarioBuildsGraphMatrixAndPool) {
  for (const Scenario& s : reg().all()) {
    SCOPED_TRACE(s.id);
    if (!s.networks.empty()) {
      // Network-list kinds: every listed Zoo name must resolve.
      for (const bool full : {false, true}) {
        for (const std::string& name : s.networkList(full)) {
          const Graph g = topo::makeZoo(name);
          EXPECT_GE(g.numNodes(), 2);
          EXPECT_GT(g.numEdges(), 0);
        }
      }
      continue;
    }
    const Graph g = s.topology.build();
    EXPECT_GE(g.numNodes(), 2);
    EXPECT_GT(g.numEdges(), 0);
    EXPECT_FALSE(s.topology.label().empty());

    if (s.kind == ScenarioKind::kOptimizer ||
        s.kind == ScenarioKind::kHardness ||
        s.kind == ScenarioKind::kPrototype) {
      continue;  // these kinds build their own instances internally
    }
    const tm::TrafficMatrix base = s.demand.build(g);
    EXPECT_EQ(base.numNodes(), g.numNodes());
    EXPECT_GT(base.total(), 0.0);

    const double margin = s.margins.empty() ? 2.0 : s.margins.back();
    const tm::DemandBounds box = tm::marginBounds(base, margin);
    const std::vector<tm::TrafficMatrix> pool =
        tm::cornerPool(box, s.sweep.pool);
    ASSERT_FALSE(pool.empty());
    for (const tm::TrafficMatrix& d : pool) {
      EXPECT_TRUE(box.contains(d));
    }
  }
}

TEST(ScenarioRegistry, ExplicitConstructionRejectsDuplicates) {
  Scenario a;
  a.id = "a";
  a.description = "first";
  Scenario b = a;
  b.description = "second";
  EXPECT_THROW(ScenarioRegistry({a, b}), std::invalid_argument);

  Scenario unnamed;
  EXPECT_THROW(ScenarioRegistry({unnamed}), std::invalid_argument);

  b.id = "b";
  const ScenarioRegistry two({a, b});
  EXPECT_EQ(two.all().size(), 2u);
  EXPECT_NE(two.find("a"), nullptr);
  EXPECT_NE(two.find("b"), nullptr);
}

TEST(ScenarioRegistry, RegistrationRejectsUnsafeIds) {
  // Ids name BENCH_<id>.json files and travel through shells; the safe
  // charset is enforced at registration time (require() in add()), not
  // just asserted over the global grid by this suite.
  for (const char* bad : {"has space", "slash/y", "dot.json", "semi;rm"}) {
    Scenario s;
    s.id = bad;
    s.description = "bad id";
    EXPECT_THROW(ScenarioRegistry({s}), std::invalid_argument) << bad;
  }
}

TEST(TopologySpec, SyntheticBuildersMatchTheirLabels) {
  EXPECT_EQ(TopologySpec::ring(8).label(), "ring8");
  EXPECT_EQ(TopologySpec::grid(3, 4).label(), "grid3x4");
  EXPECT_EQ(TopologySpec::fullMesh(6).label(), "mesh6");
  EXPECT_EQ(TopologySpec::ring(8).build().numNodes(), 8);
  EXPECT_EQ(TopologySpec::grid(3, 4).build().numNodes(), 12);
  EXPECT_EQ(TopologySpec::fullMesh(6).build().numEdges(), 6 * 5);
}

TEST(DemandSpec, ModelsProduceTheRequestedTotal) {
  const Graph g = TopologySpec::fullMesh(5).build();
  for (const DemandSpec::Model model :
       {DemandSpec::Model::kGravity, DemandSpec::Model::kBimodal,
        DemandSpec::Model::kUniform}) {
    DemandSpec d;
    d.model = model;
    d.total = 4.0;
    const tm::TrafficMatrix m = d.build(g);
    EXPECT_NEAR(m.total(), 4.0, 1e-9) << d.name();
  }
  // Uniform: every ordered pair carries the same demand.
  DemandSpec u;
  u.model = DemandSpec::Model::kUniform;
  const tm::TrafficMatrix m = u.build(g);
  EXPECT_DOUBLE_EQ(m.at(0, 1), m.at(4, 2));
}

}  // namespace
}  // namespace coyote::exp
