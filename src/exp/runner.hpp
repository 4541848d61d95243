// Executes scenarios from the ScenarioRegistry: streams each scenario's
// text rows, times repetitions, and emits one self-describing
// BENCH_<scenario>.json per scenario (the format bench_compare and the CI
// perf gate consume; schema documented in EXPERIMENTS.md).
//
// A scenario kind records each result once, as a BENCH row; the text
// table is rendered from those rows (every uncommented line is one row,
// titles and notes are "#" comments). The text is for people: nothing
// parses it. BENCH member order is not a contract either -- consumers
// look members up by key.
#pragma once

#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "util/json.hpp"

namespace coyote::exp {

struct RunOptions {
  bool full = false;     ///< full margin grids / network corpora
  bool exact = false;    ///< exact slave-LP cutting planes / evaluation
  /// Scheme keys (te::SchemeRegistry::builtin()) the scheme-comparison
  /// kinds (schemes/table/failure/serve/scaling) sweep; empty = the
  /// paper's four.
  /// Unknown keys are a hard error (the CLI validates before running).
  std::vector<std::string> schemes;
  int repeat = 1;        ///< timed repetitions per scenario (>= 1)
  /// Untimed repetitions before the timed ones. Rows print during the
  /// very first repetition only, so with warmup >= 1 the timed reps are
  /// free of stdout I/O — use `--warmup 1` whenever timings will be
  /// compared (CI and the baseline-refresh command both do).
  int warmup = 0;
  std::string json_dir;  ///< where BENCH_<id>.json files go; empty = none
  bool print = true;     ///< stream the text view of the rows to stdout
};

struct ScenarioResult {
  std::string id;
  bool ok = true;                ///< false e.g. when fig12's lie check fails
  util::json::Value document;    ///< the full BENCH JSON document
  std::vector<double> seconds;   ///< wall time of each timed repetition

  [[nodiscard]] double minSeconds() const;
  [[nodiscard]] double medianSeconds() const;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunOptions opt) : opt_(std::move(opt)) {}

  /// Runs one scenario (warmup + timed repetitions; rows are printed
  /// during the first execution only -- results are deterministic).
  /// Library errors propagate as exceptions.
  [[nodiscard]] ScenarioResult run(const Scenario& s) const;

  /// Runs every scenario in order, writing BENCH_<id>.json into json_dir
  /// when set. A scenario that throws is reported on stderr and counted
  /// as failed (no BENCH file); the rest still run. Returns the number of
  /// failed scenarios.
  int runAll(const std::vector<const Scenario*>& scenarios) const;

 private:
  RunOptions opt_;
};

/// `git describe --always --dirty`, or "unknown" outside a work tree.
[[nodiscard]] std::string gitDescribe();

}  // namespace coyote::exp
