// Executes scenarios from the ScenarioRegistry: streams each scenario's
// text rows, times the run, and emits one self-describing
// BENCH_<scenario>.json per scenario (the format bench_compare and the CI
// result gate consume; schema documented in EXPERIMENTS.md).
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
  std::string json_dir;  ///< where BENCH_<id>.json files go; empty = none
  bool print = true;     ///< stream the text view of the rows to stdout
};

struct ScenarioResult {
  std::string id;
  bool ok = true;                ///< false e.g. when fig12's lie check fails
  util::json::Value document;    ///< the full BENCH JSON document
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunOptions opt) : opt_(std::move(opt)) {}

  /// Runs one scenario once, timed, printing its rows as they are
  /// recorded. Library errors propagate as exceptions.
  [[nodiscard]] ScenarioResult run(const Scenario& s) const;

  /// Runs every scenario in order, writing BENCH_<id>.json into json_dir
  /// when set. A scenario that throws is reported on stderr and counted
  /// as failed (no BENCH file); the rest still run. Returns the number of
  /// failed scenarios.
  int runAll(const std::vector<const Scenario*>& scenarios) const;

 private:
  RunOptions opt_;
};

/// `git describe --always --dirty` of the source tree this library was
/// built from (whatever the working directory), or "unknown" when that
/// tree is not a git checkout.
[[nodiscard]] std::string gitDescribe();

}  // namespace coyote::exp
