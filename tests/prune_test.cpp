// util::boundAndPrune, the visit rule the pruned worst-case scan and the
// post-failure ruler share: largest priority first with ties to the lowest
// index, priorities re-read after a solve, and the solved/skipped counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/prune.hpp"

namespace coyote::util {
namespace {

/// Runs the driver over fixed priorities, solving where `needed` holds;
/// returns the visit order (solved and skipped items alike).
std::vector<std::size_t> visitOrder(const std::vector<double>& priority,
                                    const std::vector<char>& needed,
                                    PruneCounts* counts) {
  std::vector<std::size_t> order;
  *counts = boundAndPrune(
      priority.size(), [&](std::size_t i) { return priority[i]; },
      [&](std::size_t i) {
        order.push_back(i);
        return needed[i] != 0;
      },
      [](std::size_t) {});
  return order;
}

TEST(BoundAndPrune, TiesGoToTheLowestIndex) {
  PruneCounts counts;
  const std::vector<std::size_t> order =
      visitOrder({1.0, 3.0, 3.0, 2.0, 3.0}, {1, 1, 1, 1, 1}, &counts);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 4, 3, 0}));
  EXPECT_EQ(counts.solved, 5);
  EXPECT_EQ(counts.skipped, 0);
}

TEST(BoundAndPrune, ASolveThatLowersALaterPriorityReordersTheRest) {
  std::vector<double> bound = {5.0, 4.0, 3.0, 2.0};
  std::vector<std::size_t> solved;
  const PruneCounts counts = boundAndPrune(
      bound.size(), [&](std::size_t i) { return bound[i]; },
      [](std::size_t) { return true; },
      [&](std::size_t i) {
        solved.push_back(i);
        if (i == 0) bound[1] = 1.0;  // item 0's prices tighten item 1
      });
  EXPECT_EQ(solved, (std::vector<std::size_t>{0, 2, 3, 1}));
  EXPECT_EQ(counts.solved, 4);
  EXPECT_EQ(counts.skipped, 0);
}

TEST(BoundAndPrune, CountsSolvedAndSkippedAndVisitsPastASkip) {
  PruneCounts counts;
  // Item 3 is skipped, yet the lower-priority items after it are still
  // visited and solved where needed.
  const std::vector<std::size_t> order =
      visitOrder({0.5, 2.0, 1.0, 4.0, 3.0}, {1, 1, 0, 0, 1}, &counts);
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 1, 2, 0}));
  EXPECT_EQ(counts.solved, 3);
  EXPECT_EQ(counts.skipped, 2);

  visitOrder({}, {}, &counts);
  EXPECT_EQ(counts.solved, 0);
  EXPECT_EQ(counts.skipped, 0);
}

TEST(BoundAndPrune, BoundAgainstBestStopsSolvingAtTheFirstSkip) {
  // The worst-case scan's rule: an item is solved while its bound, widened
  // by kPruneSlack, reaches the best value found. Here the first solve
  // finds 3.0, so bound 3.0 (within the slack) still runs and everything
  // below it is pruned.
  const std::vector<double> bound = {2.0, 4.0, 3.0 * (1.0 - 0.5e-9), 1.0};
  const std::vector<double> value = {2.0, 3.0, 2.5, 1.0};
  double best = -1.0;
  std::vector<std::size_t> solved;
  const PruneCounts counts = boundAndPrune(
      bound.size(), [&](std::size_t i) { return bound[i]; },
      [&](std::size_t i) { return bound[i] * (1.0 + kPruneSlack) >= best; },
      [&](std::size_t i) {
        solved.push_back(i);
        best = std::max(best, value[i]);
      });
  EXPECT_EQ(solved, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(counts.solved, 2);
  EXPECT_EQ(counts.skipped, 2);
}

}  // namespace
}  // namespace coyote::util
