#include "routing/evaluator.hpp"

#include <cmath>
#include <utility>

#include "routing/propagation.hpp"
#include "util/thread_pool.hpp"

namespace coyote::routing {
namespace {

// Entrywise comparison with a small relative tolerance: normalization is
// scale-invariant in exact arithmetic, so rescaled copies of a pooled
// matrix (or an oracle re-deriving one) differ only by LP round-off and
// must still count as duplicates.
bool nearlyEqual(const tm::TrafficMatrix& a, const tm::TrafficMatrix& b) {
  if (a.numNodes() != b.numNodes()) return false;
  for (NodeId s = 0; s < a.numNodes(); ++s) {
    for (NodeId t = 0; t < a.numNodes(); ++t) {
      if (s == t) continue;
      const double x = a.at(s, t);
      const double y = b.at(s, t);
      if (std::abs(x - y) > 1e-9 * (1.0 + std::abs(x) + std::abs(y))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

double PerformanceEvaluator::normalizationOf(const tm::TrafficMatrix& d) const {
  if (d.total() <= 0.0) return 0.0;
  // The shared engine retains the constraint matrix and basis between
  // calls, so successive normalizations (cutting-plane rounds, margin
  // sweeps) warm-start instead of rebuilding.
  return engine_->utilization(d);
}

int PerformanceEvaluator::insert(tm::TrafficMatrix scaled) {
  // Deduplicate: corner pools at margin 1 collapse to the base matrix, and
  // the cutting-plane loop must detect an oracle returning a known matrix.
  for (const auto& existing : pool_) {
    if (nearlyEqual(existing, scaled)) return -1;
  }
  pool_.push_back(std::move(scaled));
  return size() - 1;
}

int PerformanceEvaluator::addMatrix(const tm::TrafficMatrix& d) {
  require(d.numNodes() == g_.numNodes(), "matrix/graph size mismatch");
  const double optu = normalizationOf(d);
  if (!(optu > 0.0)) return -1;
  tm::TrafficMatrix scaled = d;
  scaled.scale(1.0 / optu);
  return insert(std::move(scaled));
}

void PerformanceEvaluator::addPool(std::vector<tm::TrafficMatrix> pool) {
  for (const auto& d : pool) {
    require(d.numNodes() == g_.numNodes(), "matrix/graph size mismatch");
  }
  // Solve the normalizations in warm-start chains (single-destination
  // matrices as min cuts): the engine groups matrices by LP structure and
  // cuts each group into fixed-size chunks that fan out over the thread
  // pool (results identical for any thread count). Insertion stays
  // sequential so ordering and deduplication are deterministic.
  std::vector<double> optu = engine_->utilizationBatch(pool, threadPool());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!(optu[i] > 0.0)) continue;
    pool[i].scale(1.0 / optu[i]);
    insert(std::move(pool[i]));
  }
}

void PerformanceEvaluator::addNormalized(std::vector<tm::TrafficMatrix> pool) {
  for (tm::TrafficMatrix& d : pool) {
    require(d.numNodes() == g_.numNodes(), "matrix/graph size mismatch");
    insert(std::move(d));
  }
}

double PerformanceEvaluator::ratioFor(const RoutingConfig& cfg) const {
  return worst(cfg).second;
}

std::pair<int, double> PerformanceEvaluator::worst(
    const RoutingConfig& cfg) const {
  // Each matrix's propagation is independent: compile cfg once, compute
  // utilizations into index-addressed slots in parallel, then reduce
  // serially in pool order so the argmax (ties included) is identical for
  // any thread count.
  std::vector<double> util(pool_.size(), 0.0);
  const CompiledRouting compiled(g_, cfg, pool_);
  threadPool().parallelFor(pool_.size(), [&](std::size_t i) {
    std::vector<double> scratch;
    util[i] = compiled.maxLinkUtilization(pool_[i], scratch);
  });
  int arg = -1;
  double best = 0.0;
  for (int i = 0; i < size(); ++i) {
    if (util[i] > best) {
      best = util[i];
      arg = i;
    }
  }
  return {arg, best};
}

}  // namespace coyote::routing
