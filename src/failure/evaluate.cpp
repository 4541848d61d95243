#include "failure/evaluate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "routing/evaluator.hpp"
#include "routing/optu.hpp"
#include "routing/propagation.hpp"
#include "util/require.hpp"

namespace coyote::failure {

namespace {

/// Nearest-rank percentile of an ascending-sorted sample (p in (0, 1]).
double nearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double medianOf(const std::vector<double>& sorted) {
  if (sorted.empty()) return 0.0;
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

}  // namespace

FailureEvaluator::FailureEvaluator(const Graph& g,
                                   std::shared_ptr<const DagSet> dags,
                                   const tm::TrafficMatrix& base_tm,
                                   FailureEvalOptions opt)
    : g_(g),
      dags_(std::move(dags)),
      base_(base_tm),
      opt_(std::move(opt)),
      schemes_(opt_.schemes.empty()
                   ? te::SchemeRegistry::builtin().defaults()
                   : opt_.schemes),
      pool_(tm::cornerPool(tm::marginBounds(base_tm, opt_.margin),
                           opt_.pool)) {
  require(dags_ != nullptr, "null dag set");
  require(opt_.margin >= 1.0, "margin must be >= 1");
  require(!schemes_.empty(), "empty scheme list");

  // The intact (offline) configuration of every kRepairDags scheme, in
  // list order, with the caller's optimizer options passed through
  // unmodified (including any oracle_rounds request). Margin-dependent
  // schemes are optimized against the operator's uncertainty box over the
  // same corner pool the sweep evaluates with. kReconverge schemes carry
  // no intact config here: their post-failure routing is recomputed from
  // the degraded graph alone (Scheme::reconverge), so computing one would
  // be pure startup waste (invcap-ecmp's would rebuild a whole augmented
  // DAG set).
  const tm::DemandBounds box = tm::marginBounds(base_tm, opt_.margin);
  intact_.reserve(schemes_.size());
  for (const te::Scheme* s : schemes_) {
    if (s->reaction() == te::FailureReaction::kReconverge) {
      intact_.emplace_back(std::nullopt);
    } else if (s->marginDependent()) {
      routing::PerformanceEvaluator eval(g_, dags_, opt_.coyote.lp);
      eval.addPool(pool_);
      const te::SchemeContext ctx{g_, dags_, base_, opt_.coyote, &box,
                                  &eval};
      intact_.emplace_back(s->compute(ctx));
    } else {
      const te::SchemeContext ctx{g_,      dags_,  base_, opt_.coyote,
                                  nullptr, nullptr};
      intact_.emplace_back(s->compute(ctx));
    }
  }
  if (opt_.threads != 0) {
    own_pool_ = std::make_unique<util::ThreadPool>(opt_.threads);
  }
}

const routing::RoutingConfig& FailureEvaluator::intactRouting(
    const std::string& key) const {
  for (std::size_t i = 0; i < schemes_.size(); ++i) {
    if (key != schemes_[i]->key()) continue;
    if (!intact_[i].has_value()) {
      throw std::invalid_argument("scheme '" + key +
                                  "' reconverges; it keeps no intact "
                                  "config here");
    }
    return *intact_[i];
  }
  throw std::invalid_argument("scheme '" + key +
                              "' is not in this evaluator's list");
}

FailureOutcome FailureEvaluator::evaluateOne(
    const FailureScenario& f, routing::OptuEngine& engine) const {
  const int n = static_cast<int>(schemes_.size());
  FailureOutcome out;
  out.label = f.label;
  out.ratio.assign(n, 0.0);
  out.routable.assign(n, 0);

  const Graph degraded = degradedGraph(g_, f);
  out.disconnected_pairs = disconnectedPairs(degraded, base_);
  if (out.disconnected_pairs > 0) return out;  // reported, not evaluated
  out.evaluated = true;

  // The surviving routings: each scheme reacts per its FailureReaction --
  // OSPF reconvergence, or DAG repair with split renormalization. The
  // repaired DAG set is shared by every kRepairDags scheme (and skipped
  // entirely when the selection is all-reconverge).
  bool any_repair = false;
  for (const te::Scheme* s : schemes_) {
    any_repair |= s->reaction() == te::FailureReaction::kRepairDags;
  }
  const std::shared_ptr<const DagSet> repaired =
      any_repair ? repairDags(g_, *dags_, failedEdgeMask(g_, f)) : nullptr;
  std::vector<routing::RoutingConfig> cfgs;
  cfgs.reserve(n);
  for (int s = 0; s < n; ++s) {
    if (schemes_[s]->reaction() == te::FailureReaction::kReconverge) {
      cfgs.push_back(schemes_[s]->reconverge(degraded));
    } else {
      cfgs.push_back(repairRouting(g_, *intact_[s], repaired));
    }
  }
  for (int s = 0; s < n; ++s) {
    out.routable[s] = routesAllDemands(cfgs[s], base_);
  }

  // The common post-failure ruler: unrestricted OPTU on the surviving
  // network (the failure entered the engine as a bounds mutation; see
  // OptuEngine::setFailedEdges), each pool matrix warm-started from the
  // basis it ended with under the chunk's previous failure.
  engine.setFailedEdges(directedEdges(g_, f));
  const std::vector<double> optu = engine.utilizationPool(pool_);

  for (std::size_t j = 0; j < pool_.size(); ++j) {
    if (optu[j] <= 0.0) continue;  // zero matrix
    for (int s = 0; s < n; ++s) {
      if (!out.routable[s]) continue;
      const double mxlu =
          routing::maxLinkUtilization(degraded, cfgs[s], pool_[j]);
      out.ratio[s] = std::max(out.ratio[s], mxlu / optu[j]);
    }
  }
  return out;
}

FailureSweepResult FailureEvaluator::evaluate(
    const std::vector<FailureScenario>& failures) const {
  const int n = static_cast<int>(schemes_.size());
  FailureSweepResult result;
  result.outcomes.resize(failures.size());
  result.schemes.reserve(n);
  for (const te::Scheme* s : schemes_) {
    result.schemes.emplace_back(s->key(), SchemeFailureStats{});
  }

  // Fixed-size chunks of the failure list: each chunk owns one OptuEngine
  // whose sessions stay warm across the chunk's failures x pool matrices.
  // Chunking is independent of the thread count, so results (and pivot
  // counts) are bit-identical for any COYOTE_THREADS.
  const std::size_t chunks =
      (failures.size() + kFailureChunk - 1) / kFailureChunk;
  util::ThreadPool& tp = own_pool_ ? *own_pool_ : util::ThreadPool::global();
  tp.parallelFor(chunks, [&](std::size_t c) {
    routing::OptuEngine engine(g_, opt_.coyote.lp);  // unrestricted OPTU
    const std::size_t begin = c * kFailureChunk;
    const std::size_t end =
        std::min(failures.size(), begin + kFailureChunk);
    for (std::size_t i = begin; i < end; ++i) {
      result.outcomes[i] = evaluateOne(failures[i], engine);
    }
  });

  // Serial reduction in scenario order.
  std::vector<std::vector<double>> ratios(n);
  for (const FailureOutcome& out : result.outcomes) {
    if (!out.evaluated) {
      ++result.disconnecting;
      result.disconnected_pairs += out.disconnected_pairs;
      continue;
    }
    ++result.evaluated;
    for (int s = 0; s < n; ++s) {
      if (out.routable[s]) {
        ratios[s].push_back(out.ratio[s]);
      } else {
        ++result.schemes[s].second.unroutable;
      }
    }
  }
  for (int s = 0; s < n; ++s) {
    std::vector<double>& r = ratios[s];
    std::sort(r.begin(), r.end());
    SchemeFailureStats& stats = result.schemes[s].second;
    stats.evaluated = static_cast<int>(r.size());
    if (!r.empty()) {
      stats.worst = r.back();
      stats.median = medianOf(r);
      stats.p95 = nearestRank(r, 0.95);
    }
  }
  return result;
}

}  // namespace coyote::failure
