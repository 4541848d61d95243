// Result gate: diffs two directories of BENCH_<scenario>.json files (see
// exp/compare.hpp) and exits non-zero when a row field or an lp_* work
// count drifts beyond --ratio-tol or a baseline scenario is missing. Wall
// time is never gated. CI's bench-smoke job runs this against the
// committed bench/baselines*/ snapshots and across thread counts.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/compare.hpp"

namespace {

int usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(
      out,
      "usage: %s <baseline-dir> <candidate-dir> [options]\n"
      "\n"
      "  --ratio-tol <frac>   relative tolerance for row fields and lp_* work\n"
      "                       counts (default 1e-9; both are deterministic,\n"
      "                       so any larger difference is result drift)\n"
      "\n"
      "exit status: 0 = pass, 1 = drift or missing scenario, 2 = usage "
      "error\n",
      argv0);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coyote;

  exp::CompareOptions opt;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", arg.c_str());
        std::exit(usage(argv[0], 2));
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
    if (arg == "--ratio-tol") {
      const char* s = next();
      char* end = nullptr;
      opt.ratio_tolerance = std::strtod(s, &end);
      // NaN would pass every comparison and switch the gate off.
      if (end == s || *end != '\0' || !std::isfinite(opt.ratio_tolerance) ||
          opt.ratio_tolerance < 0.0) {
        std::fprintf(stderr, "--ratio-tol: not a finite number >= 0: %s\n",
                     s);
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0], 2);
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.size() != 2) return usage(argv[0], 2);

  const exp::CompareReport report =
      exp::compareBenchDirs(dirs[0], dirs[1], opt);
  std::fputs(report.text().c_str(), stdout);
  return report.pass() ? 0 : 1;
}
