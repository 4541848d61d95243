#include "failure/evaluate.hpp"

#include <algorithm>
#include <stdexcept>

#include "routing/evaluator.hpp"
#include "routing/optu.hpp"
#include "routing/propagation.hpp"
#include "util/percentile.hpp"
#include "util/prune.hpp"
#include "util/require.hpp"

namespace coyote::failure {

IntactSchemes::IntactSchemes(const Graph& g,
                             std::shared_ptr<const DagSet> dags,
                             tm::TrafficMatrix base, FailureEvalOptions opt)
    : g_(g),
      dags_(std::move(dags)),
      base_(std::move(base)),
      opt_(std::move(opt)),
      box_(tm::marginBounds(base_, opt_.margin)),
      pool_(tm::cornerPool(box_, opt_.pool)),
      own_pool_(opt_.threads == 0
                    ? nullptr
                    : std::make_unique<util::ThreadPool>(opt_.threads)) {
  require(dags_ != nullptr, "null dag set");
  require(base_.numNodes() == g_.numNodes(),
          "base matrix / graph node count mismatch");
  require(opt_.coyote.oracle_rounds == 0,
          "intact schemes run without oracle rounds");
  if (opt_.schemes.empty()) {
    opt_.schemes = te::SchemeRegistry::builtin().defaults();
  }
}

int IntactSchemes::compute(bool warm) {
  std::vector<std::optional<routing::RoutingConfig>> prev;
  prev.swap(configs_);
  configs_.reserve(opt_.schemes.size());
  int saved = 0;
  for (std::size_t i = 0; i < opt_.schemes.size(); ++i) {
    const te::Scheme* s = opt_.schemes[i];
    if (s->reaction() == te::FailureReaction::kReconverge) {
      configs_.emplace_back(std::nullopt);
      continue;
    }
    core::CoyoteOptions copt = opt_.coyote;
    if (warm && i < prev.size() && prev[i].has_value()) {
      copt.warm_init = &*prev[i];
    }
    te::SchemeContext ctx{g_,      dags_,   base_,  copt,
                          nullptr, nullptr, &saved, &oblivious_pool_};
    std::optional<routing::PerformanceEvaluator> eval;
    if (s->marginDependent()) {
      eval.emplace(g_, dags_, opt_.coyote.lp);
      eval->setThreadPool(threadPool());
      eval->addPool(pool_);
      ctx.box = &box_;
      ctx.pool = &*eval;
    }
    configs_.emplace_back(s->compute(ctx));
  }
  return saved;
}

void IntactSchemes::moveBox(tm::TrafficMatrix base, double margin) {
  // Build before committing: a box or pool that throws (say, a margin that
  // overflows the base) leaves base, box and pool as they were.
  tm::DemandBounds box = tm::marginBounds(base, margin);
  std::vector<tm::TrafficMatrix> pool = tm::cornerPool(box, opt_.pool);
  box_ = std::move(box);
  base_ = std::move(base);
  opt_.margin = margin;
  pool_ = std::move(pool);
}

const routing::RoutingConfig& IntactSchemes::intactRouting(
    const std::string& key) const {
  for (std::size_t i = 0; i < opt_.schemes.size(); ++i) {
    if (key != opt_.schemes[i]->key()) continue;
    if (!configs_[i].has_value()) {
      throw std::invalid_argument("scheme '" + key +
                                  "' reconverges; it keeps no intact "
                                  "config here");
    }
    return *configs_[i];
  }
  throw std::invalid_argument("scheme '" + key +
                              "' is not in this evaluator's list");
}

FailureEvaluator::FailureEvaluator(const Graph& g,
                                   std::shared_ptr<const DagSet> dags,
                                   const tm::TrafficMatrix& base_tm,
                                   FailureEvalOptions opt)
    : intact_(g, std::move(dags), base_tm, std::move(opt)) {
  intact_.compute(/*warm=*/false);
  // Every failed set contains the empty one: the intact pool's OPTU is a
  // floor for every failure.
  routing::OptuEngine engine(g, intact_.options().coyote.lp);
  intact_optu_ = engine.utilizationBatch(intact_.pool(), intact_.threadPool());
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

FailureOutcome evaluateFailure(const IntactSchemes& intact,
                               const FailureScenario& f,
                               const std::vector<double>& floor,
                               routing::OptuEngine& engine) {
  const Graph& g = intact.graph();
  const std::vector<const te::Scheme*>& schemes = intact.options().schemes;
  const int n = static_cast<int>(schemes.size());
  const std::size_t m = intact.pool().size();
  require(floor.empty() || floor.size() == m, "floor/pool size mismatch");
  FailureOutcome out;
  out.label = f.label;
  out.ratio.assign(n, 0.0);
  out.routable.assign(n, 0);

  const Graph degraded = degradedGraph(g, f);
  out.disconnected_pairs = disconnectedPairs(degraded, intact.base());
  if (out.disconnected_pairs > 0) return out;  // reported, not evaluated
  out.evaluated = true;

  // The surviving routings: each scheme reacts per its FailureReaction --
  // OSPF reconvergence, or DAG repair with split renormalization. The
  // repaired DAG set is shared by every kRepairDags scheme (and skipped
  // entirely when the selection is all-reconverge).
  bool any_repair = false;
  for (const te::Scheme* s : schemes) {
    any_repair |= s->reaction() == te::FailureReaction::kRepairDags;
  }
  const std::shared_ptr<const DagSet> repaired =
      any_repair ? repairDags(g, intact.dags(), failedEdgeMask(g, f))
                 : nullptr;
  std::vector<routing::RoutingConfig> cfgs;
  cfgs.reserve(n);
  for (int s = 0; s < n; ++s) {
    if (schemes[s]->reaction() == te::FailureReaction::kReconverge) {
      cfgs.push_back(schemes[s]->reconverge(degraded));
    } else {
      cfgs.push_back(repairRouting(g, *intact.configs()[s], repaired));
    }
  }
  for (int s = 0; s < n; ++s) {
    out.routable[s] = routesAllDemands(cfgs[s], intact.base());
  }

  // MxLU of every (slot, routable scheme) and each slot's initial upper
  // bound on its worst ratio, from its OPTU_f lower bound out.bound[j]
  // shrunk by the prune slack.
  std::vector<double> mxlu(m * n, 0.0);
  std::vector<double> upper(m, 0.0);
  out.bound.assign(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    out.bound[j] = nodeCutBound(degraded, intact.pool()[j]);
    if (!floor.empty()) out.bound[j] = std::max(out.bound[j], floor[j]);
    const double lower = out.bound[j] * (1.0 - util::kPruneSlack);
    for (int s = 0; s < n; ++s) {
      if (!out.routable[s]) continue;
      mxlu[j * n + s] =
          routing::maxLinkUtilization(degraded, cfgs[s], intact.pool()[j]);
      if (lower > 0.0) upper[j] = std::max(upper[j], mxlu[j * n + s] / lower);
    }
  }

  // The common post-failure ruler: unrestricted OPTU on the surviving
  // network (the failure enters the engine as a bounds mutation; see
  // OptuEngine::setFailedEdges), solved in the initial `upper` order only
  // where a slot can still raise some scheme's worst ratio.
  engine.setFailedEdges(directedEdges(g, f));
  std::vector<char> solved(m, 0);
  std::vector<double> pi;
  const util::PruneCounts counts = util::boundAndPrune(
      m, [&](std::size_t j) { return upper[j]; },
      [&](std::size_t j) {
        const double lower = out.bound[j] * (1.0 - util::kPruneSlack);
        if (lower <= 0.0) return false;  // a zero matrix, whose MxLU is 0 too
        for (int s = 0; s < n; ++s) {
          if (out.routable[s] && mxlu[j * n + s] / lower > out.ratio[s]) {
            return true;
          }
        }
        return false;
      },
      [&](std::size_t j) {
        const double optu = engine.utilizationAt(j, intact.pool()[j], &pi);
        solved[j] = 1;
        out.bound[j] = optu;
        for (int s = 0; s < n; ++s) {
          if (out.routable[s]) {
            out.ratio[s] = std::max(out.ratio[s], mxlu[j * n + s] / optu);
          }
        }
        if (pi.empty()) return;  // solved as a min cut: no LP duals
        // The solve's capacity prices bound every unsolved slot's OPTU_f
        // (routing::OptuDualBound), raising the floors the later `needed`
        // tests and the caller's next evaluation prune with.
        const routing::OptuDualBound dual(degraded, pi);
        for (std::size_t k = 0; k < m; ++k) {
          if (!solved[k]) {
            out.bound[k] = std::max(out.bound[k], dual.of(intact.pool()[k]));
          }
        }
      });
  out.slots_solved = counts.solved;
  out.slots_skipped = counts.skipped;
  return out;
}

FailureSweepResult FailureEvaluator::evaluate(
    const std::vector<FailureScenario>& failures) const {
  const std::vector<const te::Scheme*>& schemes = intact_.options().schemes;
  const int n = static_cast<int>(schemes.size());
  FailureSweepResult result;
  result.outcomes.resize(failures.size());
  result.schemes.reserve(n);
  for (const te::Scheme* s : schemes) {
    result.schemes.emplace_back(s->key(), SchemeFailureStats{});
  }

  // Fixed-size chunks of the failure list: each chunk owns one OptuEngine
  // whose sessions stay warm across the chunk's failures x pool matrices.
  // Chunking is independent of the thread count, so results (and pivot
  // counts) are bit-identical for any COYOTE_THREADS.
  const std::size_t chunks =
      (failures.size() + kFailureChunk - 1) / kFailureChunk;
  intact_.threadPool().parallelFor(chunks, [&](std::size_t c) {
    routing::OptuEngine engine(intact_.graph(), intact_.options().coyote.lp);
    const std::size_t begin = c * kFailureChunk;
    const std::size_t end =
        std::min(failures.size(), begin + kFailureChunk);
    for (std::size_t i = begin; i < end; ++i) {
      result.outcomes[i] =
          evaluateFailure(intact_, failures[i], intact_optu_, engine);
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
