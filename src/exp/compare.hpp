// Diffs two directories of BENCH_<scenario>.json files (see runner.hpp):
// the committed baseline snapshot vs a fresh run. One rule: every
// deterministic field the baseline recorded -- the rows, the kind-specific
// summary members and every `lp_*` work count -- must be reproduced within
// `ratio_tolerance` (relative); anything else is result drift. Rows and
// pivot counts are deterministic for a given binary and thread count, so
// drift means behavior changed, not noise.
//
// Machine-dependent data is never gated: run metadata (provenance, thread
// count, the `timing` block with its wall times, latencies and
// throughputs) is skipped, and `mem_*` peak-RSS probes are reported as
// [INFO]. Wall time is compared only between runs on one machine
// (`benchmark/run.py --ab`), never against a committed baseline.
//
// This is the library behind the bench_compare CLI that the CI bench-smoke
// job runs; it is pure (no exit()) so tests can exercise it directly.
#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

namespace coyote::exp {

struct CompareOptions {
  /// Relative tolerance for gated numeric fields; exceeding it is "drift".
  double ratio_tolerance = 1e-9;
};

struct CompareFinding {
  std::string scenario;
  std::string what;  ///< human-readable, one line
  /// kInfo findings (e.g. per-scenario mem_peak_rss_mb deltas) are printed
  /// but never fail the gate.
  enum class Kind { kDrift, kMissing, kMalformed, kInfo } kind;
};

struct CompareReport {
  int compared = 0;  ///< scenarios present on both sides
  std::vector<CompareFinding> findings;

  [[nodiscard]] bool pass() const {
    for (const CompareFinding& f : findings) {
      if (f.kind != CompareFinding::Kind::kInfo) return false;
    }
    return true;
  }
  /// Multi-line summary suitable for CI logs.
  [[nodiscard]] std::string text() const;
};

/// Compares two parsed BENCH documents for one scenario.
void compareDocuments(const util::json::Value& baseline,
                      const util::json::Value& candidate,
                      const CompareOptions& opt, CompareReport* report);

/// Compares every BENCH_*.json under `baseline_dir` against its
/// counterpart in `candidate_dir`; a baseline scenario the candidate
/// never produced is a hard kMissing failure.
[[nodiscard]] CompareReport compareBenchDirs(const std::string& baseline_dir,
                                             const std::string& candidate_dir,
                                             const CompareOptions& opt = {});

}  // namespace coyote::exp
