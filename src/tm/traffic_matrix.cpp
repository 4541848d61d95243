#include "tm/traffic_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <random>

namespace coyote::tm {

void TrafficMatrix::set(NodeId s, NodeId t, double v) {
  checkIndex(s, t);
  require(std::isfinite(v), "non-finite demand");
  require(v >= 0.0, "negative demand");
  require(s != t, "diagonal demand must stay zero");
  if (off_[t] < 0) {
    if (v == 0.0) return;
    off_[t] = static_cast<std::ptrdiff_t>(vals_.size());
    vals_.resize(vals_.size() + static_cast<std::size_t>(n_), 0.0);
  }
  vals_[off_[t] + s] = v;
}

void TrafficMatrix::scale(double f) {
  require(std::isfinite(f), "non-finite scale");
  require(f >= 0.0, "negative scale");
  require(std::isfinite(maxEntry() * f), "scale overflows the demand");
  for (double& v : vals_) v *= f;
}

double TrafficMatrix::total() const {
  double sum = 0.0;
  for (NodeId s = 0; s < n_; ++s) {
    for (NodeId t = 0; t < n_; ++t) {
      if (off_[t] >= 0) sum += vals_[off_[t] + s];
    }
  }
  return sum;
}

double TrafficMatrix::maxEntry() const {
  double m = 0.0;
  for (const double v : vals_) m = std::max(m, v);
  return m;
}

bool TrafficMatrix::hasDemandTo(NodeId t) const {
  checkIndex(t, t);
  if (off_[t] < 0) return false;
  const auto col = vals_.begin() + off_[t];
  return std::any_of(col, col + n_, [](double v) { return v > 0.0; });
}

std::vector<std::pair<NodeId, NodeId>> TrafficMatrix::nonZeroPairs() const {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId s = 0; s < n_; ++s) {
    for (NodeId t = 0; t < n_; ++t) {
      if (s != t && at(s, t) > 0.0) pairs.emplace_back(s, t);
    }
  }
  return pairs;
}

bool operator==(const TrafficMatrix& a, const TrafficMatrix& b) {
  if (a.n_ != b.n_) return false;
  for (NodeId t = 0; t < a.n_; ++t) {
    if (a.off_[t] < 0 && b.off_[t] < 0) continue;
    for (NodeId s = 0; s < a.n_; ++s) {
      if (a.at(s, t) != b.at(s, t)) return false;
    }
  }
  return true;
}

TrafficMatrix gravityMatrix(const Graph& g, double total) {
  require(total >= 0.0, "negative total");
  const int n = g.numNodes();
  TrafficMatrix tm(n);
  std::vector<double> mass(n);
  for (NodeId v = 0; v < n; ++v) mass[v] = g.outCapacity(v);
  double sum = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      sum += mass[s] * mass[t];
    }
  }
  if (sum <= 0.0) return tm;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      tm.set(s, t, total * mass[s] * mass[t] / sum);
    }
  }
  return tm;
}

TrafficMatrix gravityMatrix(const Graph& g, double total,
                            const GravityOptions& opt) {
  require(total >= 0.0, "negative total");
  require(opt.top_k >= 0, "negative top_k");
  if (opt.top_k == 0 && opt.endpoint_prefix.empty()) {
    // The shaping knobs are off: take the exact historical code path so
    // existing matrices stay bit-identical.
    return gravityMatrix(g, total);
  }
  const int n = g.numNodes();
  TrafficMatrix tm(n);
  std::vector<double> mass(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    if (opt.endpoint_prefix.empty() ||
        g.nodeName(v).rfind(opt.endpoint_prefix, 0) == 0) {
      mass[v] = g.outCapacity(v);
    }
  }
  // Per-source sparsification before normalization: keep the top_k
  // heaviest destinations (ties toward the lower id -- partial_sort's
  // comparator makes the order total, so the selection is deterministic).
  std::vector<NodeId> dests;
  double sum = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    if (mass[s] <= 0.0) continue;
    dests.clear();
    for (NodeId t = 0; t < n; ++t) {
      if (t != s && mass[t] > 0.0) dests.push_back(t);
    }
    if (opt.top_k > 0 && static_cast<int>(dests.size()) > opt.top_k) {
      std::partial_sort(dests.begin(), dests.begin() + opt.top_k, dests.end(),
                        [&](NodeId a, NodeId b) {
                          if (mass[a] != mass[b]) return mass[a] > mass[b];
                          return a < b;
                        });
      dests.resize(static_cast<std::size_t>(opt.top_k));
    }
    for (const NodeId t : dests) {
      const double v = mass[s] * mass[t];
      tm.set(s, t, v);
      sum += v;
    }
  }
  if (sum > 0.0) tm.scale(total / sum);
  return tm;
}

TrafficMatrix bimodalMatrix(const Graph& g, const BimodalParams& params,
                            std::uint64_t seed, double total) {
  require(params.large_fraction >= 0.0 && params.large_fraction <= 1.0,
          "large_fraction out of [0,1]");
  require(total >= 0.0, "negative total");
  const int n = g.numNodes();
  TrafficMatrix tm(n);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::normal_distribution<double> small(params.small_mean,
                                         params.small_stddev);
  std::normal_distribution<double> large(params.large_mean,
                                         params.large_stddev);
  double sum = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      const bool is_large = u01(rng) < params.large_fraction;
      const double v = std::max(0.0, is_large ? large(rng) : small(rng));
      tm.set(s, t, v);
      sum += v;
    }
  }
  if (sum > 0.0) tm.scale(total / sum);
  return tm;
}

TrafficMatrix uniformMatrix(const Graph& g, double total) {
  require(total >= 0.0, "negative total");
  const int n = g.numNodes();
  TrafficMatrix tm(n);
  if (n < 2) return tm;
  const double per_pair = total / (static_cast<double>(n) * (n - 1));
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s != t) tm.set(s, t, per_pair);
    }
  }
  return tm;
}

}  // namespace coyote::tm
