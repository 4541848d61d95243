#include "failure/evaluate.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "routing/evaluator.hpp"
#include "routing/optu.hpp"
#include "routing/propagation.hpp"
#include "util/percentile.hpp"
#include "util/require.hpp"

namespace coyote::failure {

namespace {

/// Relative slack taken off every OPTU lower bound before pruning with it.
constexpr double kBoundSlack = 1e-9;

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
      if (opt_.threads != 0) eval.setThreads(opt_.threads);
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
  // Every failed set contains the empty one: the intact pool's OPTU is a
  // floor for every failure.
  routing::OptuEngine engine(g_, opt_.coyote.lp);  // unrestricted OPTU
  intact_optu_ = engine.utilizationBatch(
      pool_, own_pool_ ? *own_pool_ : util::ThreadPool::global());
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

double nodeCutBound(const Graph& g, const tm::TrafficMatrix& d) {
  const int n = g.numNodes();
  std::vector<double> cap_out(n, 0.0);
  std::vector<double> cap_in(n, 0.0);
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    cap_out[g.edge(e).src] += g.edge(e).capacity;
    cap_in[g.edge(e).dst] += g.edge(e).capacity;
  }
  std::vector<double> dem_in(n, 0.0);
  double bound = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    double dem_out = 0.0;
    for (NodeId t = 0; t < n; ++t) {
      if (t == u) continue;
      dem_out += d.at(u, t);
      dem_in[t] += d.at(u, t);
    }
    if (cap_out[u] > 0.0) bound = std::max(bound, dem_out / cap_out[u]);
  }
  for (NodeId u = 0; u < n; ++u) {
    if (cap_in[u] > 0.0) bound = std::max(bound, dem_in[u] / cap_in[u]);
  }
  return bound;
}

FailureOutcome evaluateFailure(const IntactState& state,
                               const FailureScenario& f,
                               const std::vector<double>& floor,
                               routing::OptuEngine& engine) {
  const int n = static_cast<int>(state.schemes.size());
  const std::size_t m = state.pool.size();
  require(floor.empty() || floor.size() == m, "floor/pool size mismatch");
  FailureOutcome out;
  out.label = f.label;
  out.ratio.assign(n, 0.0);
  out.routable.assign(n, 0);

  const Graph degraded = degradedGraph(state.g, f);
  out.disconnected_pairs = disconnectedPairs(degraded, state.base);
  if (out.disconnected_pairs > 0) return out;  // reported, not evaluated
  out.evaluated = true;

  // The surviving routings: each scheme reacts per its FailureReaction --
  // OSPF reconvergence, or DAG repair with split renormalization. The
  // repaired DAG set is shared by every kRepairDags scheme (and skipped
  // entirely when the selection is all-reconverge).
  bool any_repair = false;
  for (const te::Scheme* s : state.schemes) {
    any_repair |= s->reaction() == te::FailureReaction::kRepairDags;
  }
  const std::shared_ptr<const DagSet> repaired =
      any_repair ? repairDags(state.g, state.dags, failedEdgeMask(state.g, f))
                 : nullptr;
  std::vector<routing::RoutingConfig> cfgs;
  cfgs.reserve(n);
  for (int s = 0; s < n; ++s) {
    if (state.schemes[s]->reaction() == te::FailureReaction::kReconverge) {
      cfgs.push_back(state.schemes[s]->reconverge(degraded));
    } else {
      cfgs.push_back(repairRouting(state.g, *state.intact[s], repaired));
    }
  }
  for (int s = 0; s < n; ++s) {
    out.routable[s] = routesAllDemands(cfgs[s], state.base);
  }

  // MxLU of every (slot, routable scheme), each slot's OPTU_f lower bound,
  // and the resulting upper bound on the slot's worst ratio.
  std::vector<double> mxlu(m * n, 0.0);
  std::vector<double> lower(m, 0.0);
  std::vector<double> upper(m, 0.0);
  out.bound.assign(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    out.bound[j] = nodeCutBound(degraded, state.pool[j]);
    if (!floor.empty()) out.bound[j] = std::max(out.bound[j], floor[j]);
    lower[j] = out.bound[j] * (1.0 - kBoundSlack);
    for (int s = 0; s < n; ++s) {
      if (!out.routable[s]) continue;
      mxlu[j * n + s] =
          routing::maxLinkUtilization(degraded, cfgs[s], state.pool[j]);
      if (lower[j] > 0.0) {
        upper[j] = std::max(upper[j], mxlu[j * n + s] / lower[j]);
      }
    }
  }
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return upper[a] > upper[b];
                   });

  // The common post-failure ruler: unrestricted OPTU on the surviving
  // network (the failure enters the engine as a bounds mutation; see
  // OptuEngine::setFailedEdges), solved only where a slot can still raise
  // some scheme's worst ratio.
  engine.setFailedEdges(directedEdges(state.g, f));
  std::vector<char> solved(m, 0);
  std::vector<double> pi;
  for (const std::size_t j : order) {
    bool needed = false;
    if (lower[j] > 0.0) {  // else a zero matrix, whose MxLU is 0 too
      for (int s = 0; s < n; ++s) {
        needed |=
            out.routable[s] && mxlu[j * n + s] / lower[j] > out.ratio[s];
      }
    }
    if (!needed) {
      ++out.slots_skipped;
      continue;
    }
    const double optu = engine.utilizationAt(j, state.pool[j], &pi);
    ++out.slots_solved;
    solved[j] = 1;
    out.bound[j] = optu;
    for (int s = 0; s < n; ++s) {
      if (out.routable[s]) {
        out.ratio[s] = std::max(out.ratio[s], mxlu[j * n + s] / optu);
      }
    }
    if (pi.empty()) continue;  // solved as a min cut: no LP duals
    // The solve's capacity prices bound every unsolved slot's OPTU_f
    // (routing::OptuDualBound), raising the floors the later `needed`
    // tests and the caller's next evaluation prune with.
    const routing::OptuDualBound dual(degraded, pi);
    for (std::size_t k = 0; k < m; ++k) {
      if (solved[k]) continue;
      const double b = dual.of(state.pool[k]);
      out.bound[k] = std::max(out.bound[k], b);
      lower[k] = std::max(lower[k], b * (1.0 - kBoundSlack));
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
  const IntactState state{g_, *dags_, base_, schemes_, intact_, pool_};
  tp.parallelFor(chunks, [&](std::size_t c) {
    routing::OptuEngine engine(g_, opt_.coyote.lp);  // unrestricted OPTU
    const std::size_t begin = c * kFailureChunk;
    const std::size_t end =
        std::min(failures.size(), begin + kFailureChunk);
    for (std::size_t i = begin; i < end; ++i) {
      result.outcomes[i] =
          evaluateFailure(state, failures[i], intact_optu_, engine);
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
    result.slots_solved += out.slots_solved;
    result.slots_skipped += out.slots_skipped;
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
      stats.median = util::medianOf(r);
      stats.p95 = util::nearestRank(r, 0.95);
    }
  }
  return result;
}

}  // namespace coyote::failure
