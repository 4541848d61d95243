// Process-wide LP work accounting.
//
// Every lp::SimplexSolver::solve() (and therefore every lp::solve()) adds
// its LpResult::stats to one lp::StatsSnapshot total. Consumers snapshot
// the total around a unit of work and report the difference: the
// experiment runner's `lp_*` BENCH fields and its iteration-limit check
// (a Status::kIterLimit the routing layers would otherwise fold into a
// silent ratio-0 / non-optimal objective), and the benchmark's layer spans.
#pragma once

#include <mutex>

#include "lp/lp.hpp"

namespace coyote::lp {

/// The process-wide total since process start. Thread-safe; solver-internal.
class GlobalStats {
 public:
  static GlobalStats& instance();

  void record(const StatsSnapshot& delta);
  [[nodiscard]] StatsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  StatsSnapshot total_;
};

/// Shorthand for GlobalStats::instance().snapshot().
[[nodiscard]] StatsSnapshot statsSnapshot();

}  // namespace coyote::lp
