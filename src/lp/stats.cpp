#include "lp/stats.hpp"

namespace coyote::lp {

GlobalStats& GlobalStats::instance() {
  static GlobalStats stats;
  return stats;
}

void GlobalStats::record(const StatsSnapshot& delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  total_ += delta;
}

StatsSnapshot GlobalStats::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

StatsSnapshot statsSnapshot() { return GlobalStats::instance().snapshot(); }

}  // namespace coyote::lp
