// exp::ExperimentRunner -- every scenario kind's BENCH document (the
// top-level key set, run metadata included), the text view printed from
// its rows, and that one throwing scenario does not take the batch down.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"

namespace coyote::exp {
namespace {

namespace json = util::json;

/// Members every BENCH document carries, whatever the kind.
const std::set<std::string>& commonKeys() {
  static const std::set<std::string> keys = {
      "schema",          "scenario",        "kind",
      "description",     "tags",            "git",
      "threads",         "full",            "exact",
      "ok",              "lp_solves",       "lp_pivots",
      "lp_phase1_pivots", "lp_refactorizations", "lp_pricing_hits",
      "lp_degen_rescues", "lp_lu_updates",  "lp_lu_fill",
      "lp_dual_pivots",  "lp_decomp_rounds", "mem_peak_rss_mb",
      "rows",            "timing"};
  return keys;
}

struct KindCase {
  const char* id;  ///< registry scenario, the cheapest of its kind
  ScenarioKind kind;
  std::set<std::string> kind_keys;  ///< members beyond commonKeys()
  std::function<void(Scenario&)> shrink = [](Scenario&) {};
};

std::vector<KindCase> kindCases() {
  return {
      {"running-example", ScenarioKind::kSchemes,
       {"schemes", "network", "demand_model"}},
      {"table1", ScenarioKind::kTable,
       {"schemes", "networks", "demand_model"},
       [](Scenario& s) {
         s.networks = {"Abilene"};
         s.margins = {1.0};
       }},
      {"fig09", ScenarioKind::kLocalSearch,
       {"network", "demand_model", "ecmp_gap_percent"},
       [](Scenario& s) { s.margins = {2.0}; }},
      {"fig10", ScenarioKind::kQuantization, {"network", "demand_model"},
       [](Scenario& s) { s.margins = {2.0}; }},
      {"fig11", ScenarioKind::kStretch, {"networks", "demand_model"},
       [](Scenario& s) { s.networks = {"Abilene"}; }},
      {"fig12", ScenarioKind::kPrototype, {"fake_nodes", "verified"}},
      {"ablation-dag-aug", ScenarioKind::kDagAug,
       {"networks", "demand_model"},
       [](Scenario& s) { s.networks = {"Abilene"}; }},
      {"ablation-optimizer", ScenarioKind::kOptimizer,
       {"closed_form_optimum"}},
      {"ablation-hardness", ScenarioKind::kHardness, {}},
      {"running-example-fail1", ScenarioKind::kFailure,
       {"schemes", "network", "demand_model", "failure_model", "failures"}},
      {"serve-running-example", ScenarioKind::kServe,
       {"schemes", "network", "demand_model", "serve"}},
      {"scaling-fattree-smoke", ScenarioKind::kScaling,
       {"schemes", "ladder", "demand_model", "margin"}},
  };
}

/// Text lines that are table rows: non-empty and not a "#" comment
/// (table titles are comments too).
std::size_t dataLines(const std::string& text) {
  std::istringstream in(text);
  std::size_t n = 0;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') ++n;
  }
  return n;
}

TEST(ExperimentRunner, EveryKindEmitsItsDocumentAndOneTextLinePerRow) {
  const ExperimentRunner runner(RunOptions{});
  std::set<ScenarioKind> covered;
  for (const KindCase& c : kindCases()) {
    SCOPED_TRACE(c.id);
    const Scenario* registered = ScenarioRegistry::global().find(c.id);
    ASSERT_NE(registered, nullptr);
    ASSERT_EQ(registered->kind, c.kind);
    covered.insert(c.kind);
    Scenario s = *registered;
    c.shrink(s);

    testing::internal::CaptureStdout();
    const ScenarioResult result = runner.run(s);
    const std::string text = testing::internal::GetCapturedStdout();
    EXPECT_TRUE(result.ok);

    std::set<std::string> keys;
    for (const auto& [key, value] : result.document.asObject()) {
      keys.insert(key);
    }
    std::set<std::string> expected = commonKeys();
    expected.insert(c.kind_keys.begin(), c.kind_keys.end());
    EXPECT_EQ(keys, expected);
    EXPECT_EQ(result.document.stringOr("kind", ""), kindName(c.kind));

    const json::Value* rows = result.document.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_FALSE(rows->asArray().empty());
    EXPECT_EQ(dataLines(text), rows->asArray().size()) << text;

    // Run metadata names what this run swept, not the registry entry.
    if (const json::Value* nets = result.document.find("networks")) {
      ASSERT_EQ(nets->asArray().size(), s.networks.size());
      for (std::size_t i = 0; i < s.networks.size(); ++i) {
        EXPECT_EQ(nets->asArray()[i].asString(), s.networks[i]);
      }
    }
    if (result.document.find("network") != nullptr) {
      EXPECT_EQ(result.document.stringOr("network", ""), s.topology.label());
    }
    // The ruler visits every pool slot of every evaluated failure once:
    // each is either solved or pruned.
    if (c.kind == ScenarioKind::kFailure) {
      const json::Value& f = *result.document.find("failures");
      ASSERT_NE(f.find("lp_ruler_solved"), nullptr);
      ASSERT_NE(f.find("lp_ruler_skipped"), nullptr);
      EXPECT_GT(f.numberOr("lp_ruler_solved", 0.0), 0.0);
      EXPECT_EQ(f.numberOr("lp_ruler_solved", 0.0) +
                    f.numberOr("lp_ruler_skipped", 0.0),
                f.numberOr("evaluated", 0.0) * f.numberOr("pool_size", 0.0));
    }
  }
  EXPECT_EQ(covered.size(), 12u);  // one case per ScenarioKind
}

TEST(ExperimentRunner, QuietRunPrintsNothing) {
  RunOptions opt;
  opt.print = false;
  const ExperimentRunner runner(opt);
  testing::internal::CaptureStdout();
  const ScenarioResult result =
      runner.run(*ScenarioRegistry::global().find("running-example"));
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_TRUE(result.ok);
}

TEST(ExperimentRunner, ThrowingScenarioFailsAloneAndTheBatchGoesOn) {
  const Scenario& good = *ScenarioRegistry::global().find("running-example");
  Scenario bad = good;
  bad.id = "no-such-net";
  bad.topology = TopologySpec::zoo("NoSuchNet");
  const ScenarioRegistry reg({bad, good});

  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "exp_runner_test_batch";
  std::filesystem::remove_all(dir);
  RunOptions opt;
  opt.print = false;
  opt.json_dir = dir.string();
  const ExperimentRunner runner(opt);

  testing::internal::CaptureStderr();
  const int failures = runner.runAll(reg.match(""));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(err.rfind("scenario no-such-net: ", 0), 0u) << err;
  EXPECT_FALSE(std::filesystem::exists(dir / "BENCH_no-such-net.json"));
  EXPECT_TRUE(std::filesystem::exists(dir / "BENCH_running-example.json"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace coyote::exp
