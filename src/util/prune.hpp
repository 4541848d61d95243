// The one bound-and-prune visit rule (Theorem 5 / Appendix C of the
// technical report: prices pi >= 0 from one solved LP bound every other
// item's LP by weak duality). routing::WorstCaseOracle's pruned scan
// (items = edges) and failure::evaluateFailure's post-failure ruler
// (items = pool slots) both run on it with their own bounds and tests.
#pragma once

#include <cstddef>
#include <vector>

namespace coyote::util {

/// Relative slack against round-off: a bound is widened by this factor
/// toward keeping its item before it may prune it.
inline constexpr double kPruneSlack = 1e-9;

struct PruneCounts {
  int solved = 0;
  int skipped = 0;
};

/// Visits each item 0..m-1 once, next the unvisited one with the largest
/// priority(i) (lowest index on ties), and calls solve(i) if needed(i)
/// holds, else counts i skipped. Priorities are read at every pick and
/// needed() at the visit, so a solve that tightens bounds reorders and
/// prunes the items after it.
template <class Priority, class Needed, class Solve>
PruneCounts boundAndPrune(std::size_t m, Priority&& priority, Needed&& needed,
                          Solve&& solve) {
  PruneCounts counts;
  std::vector<char> visited(m, 0);
  for (std::size_t round = 0; round < m; ++round) {
    std::size_t next = m;
    for (std::size_t i = 0; i < m; ++i) {
      if (!visited[i] && (next == m || priority(i) > priority(next))) next = i;
    }
    visited[next] = 1;
    if (needed(next)) {
      solve(next);
      ++counts.solved;
    } else {
      ++counts.skipped;
    }
  }
  return counts;
}

}  // namespace coyote::util
