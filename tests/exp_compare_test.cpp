// exp::compareBenchDirs / compareDocuments -- the library behind the
// bench_compare CLI and CI's result gate: deterministic row values and
// lp_* work counts may not drift, machine-dependent timing and memory
// data never fail the gate, and dropped scenarios do.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "exp/compare.hpp"
#include "util/json.hpp"

namespace coyote::exp {
namespace {

namespace fs = std::filesystem;
namespace json = util::json;

json::Value benchDoc(const std::string& scenario, double ecmp,
                     double median_seconds) {
  json::Value doc = json::Value::object();
  doc["schema"] = "coyote-bench/1";
  doc["scenario"] = scenario;
  json::Value row = json::Value::object();
  row["margin"] = 2.0;
  row["ecmp"] = ecmp;
  row["partial"] = 1.1;
  json::Value rows = json::Value::array();
  rows.push_back(std::move(row));
  doc["rows"] = std::move(rows);
  json::Value timing = json::Value::object();
  timing["median_seconds"] = median_seconds;
  doc["timing"] = std::move(timing);
  return doc;
}

bool hasKind(const CompareReport& report, CompareFinding::Kind kind) {
  for (const CompareFinding& f : report.findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

TEST(CompareDocuments, IdenticalDocumentsPass) {
  const json::Value doc = benchDoc("s", 1.5, 1.0);
  CompareReport report;
  compareDocuments(doc, doc, CompareOptions{}, &report);
  EXPECT_TRUE(report.pass()) << report.text();
  EXPECT_EQ(report.compared, 1);
}

TEST(CompareDocuments, TimingIsNeverGated) {
  // Wall time is machine-dependent run metadata: a 10x slower median, a
  // 10x higher serve p99 and a 10x lower throughput all pass, and so
  // does a document with no timing block at all.
  json::Value baseline = benchDoc("serve", 1.5, 1.0);
  baseline["timing"]["event_p99_ms"] = 40.0;
  baseline["timing"]["events_per_second"] = 50.0;
  json::Value candidate = benchDoc("serve", 1.5, 10.0);
  candidate["timing"]["event_p99_ms"] = 400.0;
  candidate["timing"]["events_per_second"] = 5.0;
  CompareReport report;
  compareDocuments(baseline, candidate, CompareOptions{}, &report);
  EXPECT_TRUE(report.pass()) << report.text();
  EXPECT_TRUE(report.findings.empty()) << report.text();

  const json::Value no_timing =
      json::parse(R"({"scenario":"serve","rows":[]})");
  CompareReport untimed;
  compareDocuments(no_timing, no_timing, CompareOptions{}, &untimed);
  EXPECT_TRUE(untimed.pass()) << untimed.text();
}

TEST(CompareDocuments, ResultDriftFailsEvenWhenTimingIsFine) {
  CompareReport report;
  compareDocuments(benchDoc("s", 1.5, 1.0), benchDoc("s", 1.5001, 1.0),
                   CompareOptions{}, &report);
  EXPECT_FALSE(report.pass());
  EXPECT_TRUE(hasKind(report, CompareFinding::Kind::kDrift));
  // The finding names the offending field.
  ASSERT_FALSE(report.findings.empty());
  EXPECT_NE(report.findings[0].what.find("ecmp"), std::string::npos);
}

TEST(CompareDocuments, SummaryFieldDriftIsDetected) {
  // Kind-specific top-level results (fig12's 'verified'/'fake_nodes',
  // fig09's 'ecmp_gap_percent', 'ok') are deterministic and gated too;
  // run metadata (git, threads, timing, description) is not.
  json::Value baseline = benchDoc("s", 1.5, 1.0);
  baseline["ok"] = true;
  baseline["fake_nodes"] = 4;
  baseline["verified"] = true;
  baseline["git"] = "aaa";

  json::Value candidate = baseline;
  candidate["git"] = "bbb";  // provenance may differ freely
  CompareReport clean;
  compareDocuments(baseline, candidate, CompareOptions{}, &clean);
  EXPECT_TRUE(clean.pass()) << clean.text();

  candidate["fake_nodes"] = 40;
  candidate["verified"] = false;
  CompareReport report;
  compareDocuments(baseline, candidate, CompareOptions{}, &report);
  EXPECT_FALSE(report.pass());
  EXPECT_TRUE(hasKind(report, CompareFinding::Kind::kDrift));
  EXPECT_NE(report.text().find("fake_nodes"), std::string::npos);
  EXPECT_NE(report.text().find("verified"), std::string::npos);
}

// A document carrying the three places lp_* work counts live: the
// top-level totals, a row's per-scheme breakdown, and the failure
// kind's ruler block.
json::Value docWithLp(double pivots, double ecmp_pivots, double ruler_solved) {
  json::Value doc = benchDoc("s", 1.5, 1.0);
  doc["lp_pivots"] = pivots;
  doc["lp_solves"] = 64.0;
  json::Value row = json::Value::object();
  row["margin"] = 2.0;
  row["ecmp"] = 1.5;
  row["lp_scheme_pivots"] = json::Value::object();
  row["lp_scheme_pivots"]["ecmp"] = ecmp_pivots;
  row["lp_scheme_pivots"]["partial"] = 3877.0;
  json::Value rows = json::Value::array();
  rows.push_back(std::move(row));
  doc["rows"] = std::move(rows);
  json::Value failures = json::Value::object();
  failures["lp_ruler_solved"] = ruler_solved;
  failures["lp_ruler_skipped"] = 12.0;
  doc["failures"] = std::move(failures);
  return doc;
}

TEST(CompareDocuments, LpWorkCountsAreGatedAsDrift) {
  // Pivot and solve counts are deterministic for a binary and any thread
  // count, so a change of one count anywhere is drift that names the
  // field.
  const json::Value baseline = docWithLp(1000.0, 500.0, 30.0);
  CompareReport same;
  compareDocuments(baseline, baseline, CompareOptions{}, &same);
  EXPECT_TRUE(same.pass()) << same.text();

  const struct {
    json::Value candidate;
    const char* field;
  } cases[] = {
      {docWithLp(1001.0, 500.0, 30.0), "lp_pivots: 1000 -> 1001"},
      {docWithLp(1000.0, 501.0, 30.0), "rows[0].lp_scheme_pivots.ecmp"},
      {docWithLp(1000.0, 500.0, 31.0), "failures.lp_ruler_solved"},
  };
  for (const auto& c : cases) {
    CompareReport report;
    compareDocuments(baseline, c.candidate, CompareOptions{}, &report);
    EXPECT_FALSE(report.pass()) << c.field;
    ASSERT_EQ(report.findings.size(), 1u) << report.text();
    EXPECT_EQ(report.findings[0].kind, CompareFinding::Kind::kDrift);
    EXPECT_NE(report.findings[0].what.find(c.field), std::string::npos)
        << report.text();
  }
}

TEST(CompareDocuments, PeakRssChangeStaysInfo) {
  // mem_* probes are allocator- and machine-dependent: a doubled peak
  // RSS is reported, never gated.
  json::Value baseline = benchDoc("s", 1.5, 1.0);
  baseline["mem_peak_rss_mb"] = 80.0;
  json::Value candidate = benchDoc("s", 1.5, 1.0);
  candidate["mem_peak_rss_mb"] = 160.0;
  CompareReport report;
  compareDocuments(baseline, candidate, CompareOptions{}, &report);
  EXPECT_TRUE(report.pass()) << report.text();
  ASSERT_EQ(report.findings.size(), 1u) << report.text();
  EXPECT_EQ(report.findings[0].kind, CompareFinding::Kind::kInfo);
  EXPECT_NE(report.findings[0].what.find("mem_peak_rss_mb 80 -> 160"),
            std::string::npos)
      << report.text();
}

TEST(CompareDocuments, CandidateOnlySchemeRowsAreInfoNotDrift) {
  // Dynamic rows (coyote-bench/4): a candidate swept with extra --schemes
  // carries row fields the baseline never had. Those are surfaced as
  // [INFO] and never gate; a scheme the *baseline* recorded going missing
  // in the candidate stays hard drift.
  const json::Value baseline = benchDoc("s", 1.5, 1.0);
  json::Value candidate = benchDoc("s", 1.5, 1.0);
  {
    json::Value row = json::Value::object();
    row["margin"] = 2.0;
    row["ecmp"] = 1.5;
    row["partial"] = 1.1;
    row["semi-oblivious"] = 1.3;  // candidate-only scheme
    json::Value rows = json::Value::array();
    rows.push_back(std::move(row));
    candidate["rows"] = std::move(rows);
  }

  CompareReport report;
  compareDocuments(baseline, candidate, CompareOptions{}, &report);
  EXPECT_TRUE(report.pass()) << report.text();
  EXPECT_TRUE(hasKind(report, CompareFinding::Kind::kInfo));
  EXPECT_NE(report.text().find("semi-oblivious"), std::string::npos)
      << report.text();

  // The reverse direction -- baseline row field absent from the candidate
  // -- is result drift, not forward compatibility.
  json::Value pruned = benchDoc("s", 1.5, 1.0);
  json::Value row = json::Value::object();
  row["margin"] = 2.0;
  row["ecmp"] = 1.5;  // 'partial' dropped
  json::Value rows = json::Value::array();
  rows.push_back(std::move(row));
  pruned["rows"] = std::move(rows);
  CompareReport missing;
  compareDocuments(baseline, pruned, CompareOptions{}, &missing);
  EXPECT_FALSE(missing.pass());
  EXPECT_TRUE(hasKind(missing, CompareFinding::Kind::kDrift));
  EXPECT_NE(missing.text().find("partial"), std::string::npos);
}

TEST(CompareDocuments, SchemesSelectionListIsRunMetadata) {
  // The top-level "schemes" array names the sweep selection; like
  // full/exact it is run metadata, so a baseline regenerated at schema 4
  // diffs cleanly against a pre-schemes candidate and vice versa.
  json::Value baseline = benchDoc("s", 1.5, 1.0);
  json::Value schemes = json::Value::array();
  schemes.push_back(std::string("ecmp"));
  baseline["schemes"] = std::move(schemes);
  const json::Value candidate = benchDoc("s", 1.5, 1.0);
  CompareReport report;
  compareDocuments(baseline, candidate, CompareOptions{}, &report);
  EXPECT_TRUE(report.pass()) << report.text();
}

TEST(CompareDocuments, UnknownCandidateFieldsAreIgnoredForwardCompat) {
  // A candidate produced by a newer schema may add summary fields the
  // baseline lacks; the baseline-driven walk must not flag them.
  const json::Value baseline = benchDoc("s", 1.5, 1.0);
  json::Value candidate = benchDoc("s", 1.5, 1.0);
  candidate["schema"] = "coyote-bench/99";
  candidate["future_summary_field"] = 42.0;
  CompareReport report;
  compareDocuments(baseline, candidate, CompareOptions{}, &report);
  EXPECT_TRUE(report.pass()) << report.text();
}

TEST(CompareDocuments, RowCountChangeIsDrift) {
  json::Value baseline = benchDoc("s", 1.5, 1.0);
  json::Value candidate = benchDoc("s", 1.5, 1.0);
  candidate["rows"].push_back(json::Value::object());
  CompareReport report;
  compareDocuments(baseline, candidate, CompareOptions{}, &report);
  EXPECT_TRUE(hasKind(report, CompareFinding::Kind::kDrift));
}

TEST(CompareDocuments, MissingRowsAreMalformed) {
  const json::Value good = benchDoc("s", 1.5, 1.0);
  CompareReport report;
  compareDocuments(json::parse(R"({"scenario":"s"})"), good, CompareOptions{},
                   &report);
  EXPECT_TRUE(hasKind(report, CompareFinding::Kind::kMalformed));
}

class CompareBenchDirsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) / "coyote_compare" / info->name();
    baseline_ = root_ / "baseline";
    candidate_ = root_ / "candidate";
    fs::create_directories(baseline_);
    fs::create_directories(candidate_);
  }
  void TearDown() override { fs::remove_all(root_); }

  static void write(const fs::path& dir, const std::string& scenario,
                    const json::Value& doc) {
    std::ofstream out(dir / ("BENCH_" + scenario + ".json"));
    out << doc.dump(2);
  }

  fs::path root_, baseline_, candidate_;
};

TEST_F(CompareBenchDirsTest, MatchingDirectoriesPass) {
  write(baseline_, "a", benchDoc("a", 1.5, 1.0));
  write(baseline_, "b", benchDoc("b", 2.0, 0.5));
  write(candidate_, "a", benchDoc("a", 1.5, 1.1));
  write(candidate_, "b", benchDoc("b", 2.0, 0.55));
  const CompareReport report = compareBenchDirs(baseline_, candidate_);
  EXPECT_TRUE(report.pass()) << report.text();
  EXPECT_EQ(report.compared, 2);
  EXPECT_NE(report.text().find("OK"), std::string::npos);
}

TEST_F(CompareBenchDirsTest, MissingCandidateFile) {
  write(baseline_, "a", benchDoc("a", 1.5, 1.0));
  const CompareReport strict = compareBenchDirs(baseline_, candidate_);
  EXPECT_FALSE(strict.pass());
  EXPECT_TRUE(hasKind(strict, CompareFinding::Kind::kMissing));
}

TEST_F(CompareBenchDirsTest, DroppedScenarioIsHardEvenAmongPassingOnes) {
  // Tamper case: the candidate run quietly lost one gated scenario (a
  // deregistered serve replay, a filter typo) while everything it did
  // produce matches. That must stay a hard MISSING failure -- extra
  // candidate-only files must not mask it.
  write(baseline_, "a", benchDoc("a", 1.5, 1.0));
  write(baseline_, "serve", benchDoc("serve", 2.0, 1.0));
  write(candidate_, "a", benchDoc("a", 1.5, 1.0));
  write(candidate_, "new", benchDoc("new", 9.9, 9.9));
  const CompareReport report = compareBenchDirs(baseline_, candidate_);
  EXPECT_FALSE(report.pass());
  EXPECT_TRUE(hasKind(report, CompareFinding::Kind::kMissing));
  bool names_dropped = false;
  for (const CompareFinding& f : report.findings) {
    names_dropped |= f.kind == CompareFinding::Kind::kMissing &&
                     f.scenario == "BENCH_serve.json";
  }
  EXPECT_TRUE(names_dropped);
}

TEST_F(CompareBenchDirsTest, ExtraCandidateFilesAreInfoNotGated) {
  // New scenarios may land before their baseline is refreshed: they must
  // not fail the gate, but the walk surfaces them instead of silently
  // skipping (a scenario nobody gates should be visible in the report).
  write(baseline_, "a", benchDoc("a", 1.5, 1.0));
  write(candidate_, "a", benchDoc("a", 1.5, 1.0));
  write(candidate_, "new", benchDoc("new", 9.9, 9.9));
  const CompareReport report = compareBenchDirs(baseline_, candidate_);
  EXPECT_TRUE(report.pass());
  bool surfaced = false;
  for (const CompareFinding& f : report.findings) {
    surfaced |= f.kind == CompareFinding::Kind::kInfo &&
                f.scenario == "BENCH_new.json" &&
                f.what.find("candidate-only scenario") != std::string::npos;
  }
  EXPECT_TRUE(surfaced);
}

TEST_F(CompareBenchDirsTest, MalformedInputsAreFindingsNotCrashes) {
  write(baseline_, "a", benchDoc("a", 1.5, 1.0));
  std::ofstream(candidate_ / "BENCH_a.json") << "{not json";
  const CompareReport report = compareBenchDirs(baseline_, candidate_);
  EXPECT_FALSE(report.pass());
  EXPECT_TRUE(hasKind(report, CompareFinding::Kind::kMalformed));

  const CompareReport no_dir =
      compareBenchDirs(baseline_, (root_ / "absent").string());
  EXPECT_FALSE(no_dir.pass());

  const CompareReport empty_base =
      compareBenchDirs((root_ / "absent").string(), candidate_);
  EXPECT_FALSE(empty_base.pass());
}

}  // namespace
}  // namespace coyote::exp
