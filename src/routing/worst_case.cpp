#include "routing/worst_case.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "routing/flow_block.hpp"
#include "routing/propagation.hpp"
#include "util/prune.hpp"
#include "util/thread_pool.hpp"

namespace coyote::routing {
namespace {

/// l[t][s][e-slot] coefficients: fraction of the (s,t) demand placed on each
/// DAG edge of t by cfg. Slots follow dags()[t].edges() ordering.
struct LoadCoefficients {
  // load[t*n+s] maps slot -> l_st(edge).
  std::vector<std::vector<double>> per_pair;

  LoadCoefficients(const Graph& g, const RoutingConfig& cfg) {
    const int n = g.numNodes();
    per_pair.assign(static_cast<std::size_t>(n) * n, {});
    for (NodeId t = 0; t < n; ++t) {
      const Dag& dag = cfg.dags()[t];
      const auto& edges = dag.edges();
      for (NodeId s = 0; s < n; ++s) {
        if (s == t) continue;
        const std::vector<double> f = sourceFractions(g, cfg, s, t);
        auto& l = per_pair[static_cast<std::size_t>(t) * n + s];
        l.assign(edges.size(), 0.0);
        for (std::size_t k = 0; k < edges.size(); ++k) {
          const EdgeId e = edges[k];
          l[k] = f[g.edge(e).src] * cfg.ratio(t, e);
        }
      }
    }
  }
};

/// A pair the slave LP carries a demand variable for: the DAG of t routes
/// s, and (box case) the box lets the pair send.
bool routablePair(const DagSet& dags, const tm::DemandBounds* box, NodeId s,
                  NodeId t) {
  const Dag& dag = dags[t];
  return s != t && !dag.edges().empty() && dag.reachesDest(s) &&
         (box == nullptr || box->hi.at(s, t) > 0.0);
}

/// Theorem-5 bounds (Appendix C of the technical report). Under edge
/// weights pi >= 0, every unit of (s,t) demand pays at least
/// dist_pi(s,t), its pi-shortest path inside t's DAG, so any demand the
/// DAGs route within capacity has  sum d*dist <= budget = sum_a c(a)*pi(a).
/// Edge e's utilization sum w*d (w = l_st(e)/c(e)) is then at most
/// budget * theta_e, with theta_e the largest sum w*x / sum dist*x over the
/// demand cone: max w/dist over all matrices, and a linear-fractional
/// maximum over the box [lo, hi], found greedily.
class DualBounds {
 public:
  DualBounds(const Graph& g, const DagSet& dags, const tm::DemandBounds* box,
             const LoadCoefficients& coef)
      : g_(g), dags_(dags), box_(box), n_(g.numNodes()) {
    terms_.assign(static_cast<std::size_t>(g.numEdges()), {});
    for (NodeId t = 0; t < n_; ++t) {
      const auto& edges = dags[t].edges();
      bool active = false;
      for (NodeId s = 0; s < n_; ++s) {
        if (!routablePair(dags, box, s, t)) continue;
        active = true;
        const int pair = t * n_ + s;
        pairs_.push_back(pair);
        const auto& l = coef.per_pair[static_cast<std::size_t>(pair)];
        for (std::size_t k = 0; k < edges.size(); ++k) {
          if (l[k] <= 0.0) continue;
          terms_[edges[k]].push_back(
              {pair, l[k] / g.edge(edges[k]).capacity});
        }
      }
      if (active) dests_.push_back(t);
    }
    dist_.assign(static_cast<std::size_t>(n_) * n_, lp::kInfinity);
  }

  /// True if some routable pair loads e (its LP objective is nonzero).
  [[nodiscard]] bool loads(EdgeId e) const { return !terms_[e].empty(); }

  /// Installs edge weights pi (by edge id, 0 on an edge without a
  /// capacity row): one distance DP per destination DAG, in reverse
  /// topological order.
  void setWeights(const std::vector<double>& pi) {
    budget_ = 0.0;
    for (std::size_t a = 0; a < pi.size(); ++a) {
      budget_ += g_.edge(static_cast<EdgeId>(a)).capacity * pi[a];
    }
    std::vector<double> node(static_cast<std::size_t>(n_));
    for (const NodeId t : dests_) {
      const Dag& dag = dags_[t];
      std::fill(node.begin(), node.end(), lp::kInfinity);
      node[t] = 0.0;
      const auto& topo = dag.topoOrder();
      for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const NodeId u = *it;
        if (u == t) continue;
        for (const EdgeId a : dag.outEdges(u)) {
          node[u] = std::min(node[u], pi[a] + node[g_.edge(a).dst]);
        }
      }
      for (NodeId s = 0; s < n_; ++s) dist_[t * n_ + s] = node[s];
    }
    base_den_ = 0.0;
    if (box_ != nullptr) {
      for (const int pair : pairs_) base_den_ += dist_[pair] * lo(pair);
    }
  }

  /// theta_e for the installed weights; 0 if nothing loads e. Over all
  /// matrices, a pair loading e at distance 0 makes it +infinity; over the
  /// box, only if no demand at positive distance remains to divide by.
  [[nodiscard]] double theta(EdgeId e) {
    const auto& terms = terms_[e];
    if (box_ == nullptr) {
      double theta = 0.0;
      for (const Term& term : terms) {
        const double d = dist_[term.pair];
        if (d <= 0.0) return lp::kInfinity;
        theta = std::max(theta, term.w / d);
      }
      return theta;
    }
    // Every pair starts at lo; loading pairs rise to hi in descending
    // w/dist order (+infinity at distance 0) while their ratio beats the
    // running one.
    double num = 0.0;
    double den = base_den_;
    order_.clear();
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const double d = dist_[terms[i].pair];
      num += terms[i].w * lo(terms[i].pair);
      order_.push_back({d > 0.0 ? terms[i].w / d : lp::kInfinity,
                        static_cast<int>(i)});
    }
    std::sort(order_.begin(), order_.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    for (const auto& [r, i] : order_) {
      if (den > 0.0 && r * den <= num) break;
      const Term& term = terms[i];
      const double span = hi(term.pair) - lo(term.pair);
      num += term.w * span;
      den += dist_[term.pair] * span;
    }
    if (den > 0.0) return num / den;
    return num > 0.0 ? lp::kInfinity : 0.0;
  }

  /// B_e(pi) = budget * theta_e for the installed weights.
  [[nodiscard]] double bound(EdgeId e) {
    const double th = theta(e);
    return th == lp::kInfinity ? th : budget_ * th;
  }

  /// dist_pi(s,t) for the installed weights; +infinity if s does not
  /// reach t or t has no routable pair.
  [[nodiscard]] double distance(NodeId s, NodeId t) const {
    return dist_[t * n_ + s];
  }

 private:
  struct Term {
    int pair;  ///< t*n + s
    double w;  ///< l_st(e) / c(e)
  };
  [[nodiscard]] double lo(int pair) const {
    return box_->lo.at(pair % n_, pair / n_);
  }
  [[nodiscard]] double hi(int pair) const {
    return box_->hi.at(pair % n_, pair / n_);
  }

  const Graph& g_;
  const DagSet& dags_;
  const tm::DemandBounds* box_;
  int n_;
  std::vector<std::vector<Term>> terms_;  ///< [e] pairs loading e, t-major
  std::vector<int> pairs_;                ///< routable pairs
  std::vector<NodeId> dests_;             ///< destinations with a pair
  std::vector<double> dist_;              ///< [t*n+s] dist_pi(s,t)
  double budget_ = 0.0;                   ///< sum_a c(a) * pi(a)
  double base_den_ = 0.0;                 ///< sum over pairs dist * lo
  std::vector<std::pair<double, int>> order_;  ///< bound() scratch
};

/// Slave LPs are never infeasible (zero demand is feasible) nor unbounded
/// (capacities cap every flow), so any other verdict is a solver failure
/// that must not pass as a small ratio.
void requireOptimal(const lp::LpResult& res, EdgeId edge) {
  if (res.status != lp::Status::kOptimal) {
    throw std::runtime_error("worst-case LP not optimal: " +
                             lp::toString(res.status) + " (edge " +
                             std::to_string(edge) + ")");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// WorstCaseOracle::Impl
//
// The constraint matrix (conservation, capacity, box scaling) depends only
// on (graph, DAGs, box): demand variables exist for every pair the DAGs can
// route (restricted to hi > 0 in the box case; pairs the box pins to zero
// or the DAGs cannot carry are omitted -- conservation fixed them at zero
// in the per-edge formulation, which is equivalent, except that a pair
// with a positive box *lower* bound the DAGs cannot route pins lambda to
// zero, detected up front as `pinned_`). The target edge and the
// routing phi enter through the objective alone, so an edge scan is a
// sequence of setObjective + warm solve on a retained session. Every
// session is a copy of the never-solved prototype `proto_`.
// ---------------------------------------------------------------------------
class WorstCaseOracle::Impl {
 public:
  Impl(const Graph& g, std::shared_ptr<const DagSet> dags,
       const tm::DemandBounds* box, const lp::SimplexOptions& opt)
      : g_(g), dags_(std::move(dags)), box_(box), proto_(build(), opt) {}

  WorstCaseResult find(const RoutingConfig& cfg) {
    requireSameDags(cfg);
    const int n = g_.numNodes();
    const int m = g_.numEdges();
    if (num_dvars_ == 0 || pinned_ >= 0) {
      return {tm::TrafficMatrix(n), 0.0, m > 0 ? 0 : kInvalidEdge};
    }
    const LoadCoefficients coef(g_, cfg);

    // The chunked chain below solves every edge; the dual-bound pruning
    // of findPruned() is kept out of here on purpose. COYOTE-pk's cutting
    // planes consume the witness vertex, and pruning changes which of the
    // alternate optima wins, which moves the optimizer's results. find()
    // moves to the pruned scan once slave-LP optima are canonical.
    //
    // One independent LP per edge, scanned in fixed-size chunks (chunk k
    // handles edges [k*kEdgeChunk, ...)); the chunk -> session mapping is
    // stable across calls, and each edge warm-starts from its own basis
    // of the previous cutting-plane round (see solveEdge). Only the
    // per-edge ratio is kept (a full result per edge would be
    // O(|E| |V|^2) memory); the winner -- reduced in edge order so ties
    // resolve to the lowest edge id -- is re-solved from its stored
    // basis for its demand matrix.
    const std::size_t chunks =
        (static_cast<std::size_t>(m) + kEdgeChunk - 1) / kEdgeChunk;
    if (sessions_.size() != chunks) {
      sessions_.clear();
      for (std::size_t c = 0; c < chunks; ++c) {
        sessions_.push_back(std::make_unique<Session>(Session{proto_, {}}));
      }
    }
    if (edge_basis_.size() != static_cast<std::size_t>(m)) {
      edge_basis_.assign(static_cast<std::size_t>(m), {});
    }
    std::vector<double> ratio(static_cast<std::size_t>(m), 0.0);
    util::ThreadPool::global().parallelFor(chunks, [&](std::size_t c) {
      Session& session = *sessions_[c];
      const EdgeId begin = static_cast<EdgeId>(c * kEdgeChunk);
      const EdgeId end = std::min<EdgeId>(m, begin + kEdgeChunk);
      for (EdgeId e = begin; e < end; ++e) {
        ratio[e] = solveEdge(session, coef, e);
      }
    });

    EdgeId arg = kInvalidEdge;
    double best = -1.0;
    for (EdgeId e = 0; e < m; ++e) {
      if (ratio[e] > best) {
        best = ratio[e];
        arg = e;
      }
    }
    if (arg == kInvalidEdge) {
      return {tm::TrafficMatrix(n), -1.0, kInvalidEdge};
    }
    return resolveEdge(coef, arg);
  }

  /// The one-shot bound-and-prune scan on util::boundAndPrune: one serial
  /// session solves the unsolved edge with the largest Theorem-5 bound
  /// (lowest id on ties), folds its capacity-row duals into every unsolved
  /// edge's bound, and skips every edge whose bound cannot beat the best
  /// ratio (after the first skip, all of them). Every solve warm-starts
  /// from the first solved edge's optimal basis -- fewer pivots than
  /// chaining through the previously solved edge, whose objective was
  /// picked for being different. The winner's demand comes from its own
  /// optimal solve (its stored basis's vertex), without a re-solve.
  ///
  /// With `cert` set, the same scan also keeps the weights it collects
  /// and turns them into `cert` (see certificate()).
  WorstCaseResult findPruned(const RoutingConfig& cfg, BoxCertificate* cert) {
    requireSameDags(cfg);
    const int n = g_.numNodes();
    const int m = g_.numEdges();
    if (num_dvars_ == 0 || pinned_ >= 0) {
      if (cert != nullptr) *cert = pinnedCertificate(LoadCoefficients(g_, cfg));
      return {tm::TrafficMatrix(n), 0.0, m > 0 ? 0 : kInvalidEdge};
    }
    const LoadCoefficients coef(g_, cfg);
    DualBounds bounds(g_, *dags_, box_, coef);
    // bound[e] < 0 marks an edge outside the scan: solved, or loaded by
    // nothing (ratio 0 without an LP).
    std::vector<double> bound(static_cast<std::size_t>(m), -1.0);
    for (EdgeId e = 0; e < m; ++e) {
      if (bounds.loads(e)) bound[e] = lp::kInfinity;
    }
    std::vector<double> ratio(static_cast<std::size_t>(m), 0.0);
    // For `cert`: every solved edge's weights, and per edge the index of
    // those giving its current bound (its own once solved).
    std::vector<std::vector<double>> weights;
    std::vector<int> bound_by(static_cast<std::size_t>(m), -1);
    Session session{proto_, {}};
    lp::Basis first;
    EdgeId best_edge = kInvalidEdge;
    lp::LpResult best;
    util::boundAndPrune(
        static_cast<std::size_t>(m), [&](std::size_t e) { return bound[e]; },
        [&](std::size_t e) {
          return bound[e] >= 0.0 &&
                 (best_edge == kInvalidEdge ||
                  bound[e] * (1.0 + util::kPruneSlack) >= ratio[best_edge]);
        },
        [&](std::size_t i) {
          const auto next = static_cast<EdgeId>(i);
          bound[next] = -1.0;
          setEdgeObjective(session, coef, next);
          if (!first.empty()) session.solver.setBasis(first);
          lp::LpResult res = session.solver.solve();
          requireOptimal(res, next);
          if (first.empty()) first = res.basis;
          ratio[next] = res.objective;
          std::vector<double> pi = capacityWeights(res);
          bounds.setWeights(pi);
          const int k = static_cast<int>(weights.size());
          bound_by[next] = k;
          if (cert != nullptr) weights.push_back(std::move(pi));
          if (best_edge == kInvalidEdge || ratio[next] > ratio[best_edge] ||
              (ratio[next] == ratio[best_edge] && next < best_edge)) {
            best_edge = next;
            best = std::move(res);
          }
          for (EdgeId e = 0; e < m; ++e) {
            const double b = bound[e] >= 0.0 ? bounds.bound(e) : bound[e];
            if (b < bound[e]) {
              bound[e] = b;
              bound_by[e] = k;
            }
          }
        });

    // Argmax in edge order, as find() reduces. An unsolved edge can only
    // win at ratio 0 (pruned edges sit strictly below the best), where
    // the zero matrix is its witness.
    EdgeId arg = 0;
    for (EdgeId e = 1; e < m; ++e) {
      if (ratio[e] > ratio[arg]) arg = e;
    }
    if (cert != nullptr) {
      *cert = certificate(coef, bounds, weights, bound_by);
      cert->ratio = ratio[arg];
    }
    if (arg != best_edge) return {tm::TrafficMatrix(n), 0.0, arg};
    return {demandOf(best.x), ratio[arg], arg};
  }

  WorstCaseResult findForEdge(const RoutingConfig& cfg, EdgeId edge) {
    requireSameDags(cfg);
    require(edge >= 0 && edge < g_.numEdges(), "edge out of range");
    if (num_dvars_ == 0 || pinned_ >= 0) {
      return {tm::TrafficMatrix(g_.numNodes()), 0.0, edge};
    }
    return resolveEdge(LoadCoefficients(g_, cfg), edge);
  }

 private:
  /// Solve of one edge's LP with the demand matrix extracted
  /// (`coef` is reused from the caller's scan -- it costs O(|V|^2) flow
  /// propagations to build).
  WorstCaseResult resolveEdge(const LoadCoefficients& coef, EdgeId edge) {
    Session session{proto_, {}};
    // The scan (if any) just solved this edge and stored its optimal
    // basis; re-solving from it recovers the full demand vector in a
    // handful of pivots instead of a cold phase-1 solve.
    if (static_cast<std::size_t>(edge) < edge_basis_.size() &&
        !edge_basis_[edge].empty()) {
      session.solver.setBasis(edge_basis_[edge]);
    }
    setEdgeObjective(session, coef, edge);
    const lp::LpResult res = session.solver.solve();
    requireOptimal(res, edge);
    return {demandOf(res.x), res.objective, edge};
  }

  /// Theorem-5 certificate of every edge from the pruned scan. Edge e,
  /// bounded by pi = weights[bound_by[e]], gets the dual point theta_e*pi
  /// of its slave LP, whose objective is B_e(pi); edges nothing loads keep
  /// empty weights. cert.ratio is left to the caller.
  [[nodiscard]] BoxCertificate certificate(
      const LoadCoefficients& coef, DualBounds& bounds,
      const std::vector<std::vector<double>>& weights,
      const std::vector<int>& bound_by) const {
    const int m = g_.numEdges();
    BoxCertificate cert;
    cert.edges.resize(static_cast<std::size_t>(m));
    for (EdgeId e = 0; e < m; ++e) cert.edges[e].edge = e;
    for (std::size_t k = 0; k < weights.size(); ++k) {
      bounds.setWeights(weights[k]);
      for (EdgeId e = 0; e < m; ++e) {
        if (bound_by[e] != static_cast<int>(k)) continue;
        const double theta = bounds.theta(e);
        std::vector<double> pi;
        for (const double x : weights[k]) pi.push_back(theta * x);
        cert.edges[e] = edgeCertificate(coef, e, bounds.bound(e),
                                        std::move(pi), theta, &bounds);
      }
    }
    return cert;
  }

  /// Certificate when no LP runs. Without a routable pair nothing loads
  /// any edge. With lambda pinned to 0, each loaded edge gets pi = 0 and
  /// s+ = w, and the pinned pair's lower bound pays for them in the lambda
  /// column: s- = sum hi*s+ / lo there, balanced in its demand column by
  /// p_t(s) = -s- (no flow column constrains it). Every bound is 0.
  [[nodiscard]] BoxCertificate pinnedCertificate(
      const LoadCoefficients& coef) const {
    const int n = g_.numNodes();
    const int m = g_.numEdges();
    BoxCertificate cert;
    cert.edges.resize(static_cast<std::size_t>(m));
    for (EdgeId e = 0; e < m; ++e) {
      cert.edges[e].edge = e;
      if (pinned_ < 0) continue;
      BoxEdgeCertificate ec = edgeCertificate(
          coef, e, 0.0, std::vector<double>(static_cast<std::size_t>(m)), 0.0,
          nullptr);
      bool loaded = false;
      double paid = 0.0;
      for (NodeId s = 0; s < n; ++s) {
        for (NodeId t = 0; t < n; ++t) {
          const double w = ec.s_plus[s * n + t];
          loaded = loaded || (dvar_[s][t] >= 0 && w > 0.0);
          paid += box_->hi.at(s, t) * w;
        }
      }
      if (!loaded) continue;
      ec.s_minus[pinned_] = paid / box_->lo.at(pinned_ / n, pinned_ % n);
      ec.p[pinned_ % n][pinned_ / n] = -ec.s_minus[pinned_];
      cert.edges[e] = std::move(ec);
    }
    return cert;
  }

  /// Edge e's dual point from (scaled) weights `pi`, with
  /// q_st = theta * dist(s,t) under `bounds`' weights, or 0 where no flow
  /// column constrains p_t(s) (off the distance DP, or `bounds` null):
  /// potentials p_t(s) = -q_st and box slacks s+ = max(0, w - q) and,
  /// where lo > 0, s- = max(0, q - w), for w_st = l_st(e)/c(e).
  [[nodiscard]] BoxEdgeCertificate edgeCertificate(
      const LoadCoefficients& coef, EdgeId e, double ratio,
      std::vector<double> pi, double theta, const DualBounds* bounds) const {
    BoxEdgeCertificate ec{e, ratio, std::move(pi), {}, {}, {}};
    if (box_ == nullptr) return ec;  // the oblivious certificate is pi
    const int n = g_.numNodes();
    const std::size_t pairs = static_cast<std::size_t>(n) * n;
    std::vector<double> w(pairs, 0.0);
    for (const DestSlot& ds : edge_dests_[e]) {
      for (NodeId s = 0; s < n; ++s) {
        if (s == ds.dest) continue;
        w[s * n + ds.dest] = coef.per_pair[ds.dest * n + s][ds.slot] /
                             g_.edge(e).capacity;
      }
    }
    ec.p.assign(n, std::vector<double>(n, 0.0));
    ec.s_plus.assign(pairs, 0.0);
    ec.s_minus.assign(pairs, 0.0);
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        const double dist =
            bounds == nullptr ? lp::kInfinity : bounds->distance(s, t);
        const double q = dist < lp::kInfinity ? theta * dist : 0.0;
        const int st = s * n + t;
        ec.p[t][s] = -q;
        ec.s_plus[st] = std::max(0.0, w[st] - q);
        if (box_->lo.at(s, t) > 0.0) ec.s_minus[st] = std::max(0.0, q - w[st]);
      }
    }
    return ec;
  }

 private:
  /// Demand matrix of an optimal slave-LP vertex.
  [[nodiscard]] tm::TrafficMatrix demandOf(const std::vector<double>& x) const {
    const int n = g_.numNodes();
    tm::TrafficMatrix d(n);
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (dvar_[s][t] >= 0 && x[dvar_[s][t]] > 1e-12) {
          d.set(s, t, x[dvar_[s][t]]);
        }
      }
    }
    return d;
  }

  /// Capacity-row duals of an optimal solve, clamped at 0, by edge id:
  /// the Theorem-5 weights pi it contributes.
  [[nodiscard]] std::vector<double> capacityWeights(
      const lp::LpResult& res) const {
    std::vector<double> pi(cap_row_.size(), 0.0);
    for (std::size_t a = 0; a < cap_row_.size(); ++a) {
      if (cap_row_[a] >= 0) pi[a] = std::max(0.0, res.row_duals[cap_row_[a]]);
    }
    return pi;
  }

  struct Session {
    lp::SimplexSolver solver;
    std::vector<int> objective_vars;  ///< vars with nonzero obj installed
  };

  /// The template's var/slot maps are indexed by the oracle's DAG set; a
  /// routing over a different set would read them out of bounds.
  void requireSameDags(const RoutingConfig& cfg) const {
    require(cfg.dagsPtr().get() == dags_.get(),
            "routing uses a different DAG set than the oracle");
  }

  /// Builds the slave LP, filling every map below that proto_ is
  /// declared after.
  lp::LpProblem build() {
    require(dags_ != nullptr, "null dag set");
    require(static_cast<int>(dags_->size()) == g_.numNodes(), "bad dag set");
    const int n = g_.numNodes();
    dvar_.assign(n, std::vector<int>(n, -1));
    lp::LpProblem p(lp::Sense::kMaximize);

    // Demand variables: every pair the DAGs can route (and, in the box
    // case, the box does not pin to zero). Pairs that cannot cross the
    // target edge keep objective coefficient 0 for that edge; their
    // optimal value does not affect the objective.
    //
    // A box pair with a *positive lower bound* the DAGs cannot route at
    // all pins lambda to 0 (no scaled copy of the box is routable): the
    // whole oracle is degenerate and every ratio is 0. Detect it here
    // instead of carrying the pinned variable through every solve.
    if (box_ != nullptr) {
      for (NodeId t = 0; t < n && pinned_ < 0; ++t) {
        const Dag& dag = (*dags_)[t];
        for (NodeId s = 0; s < n && pinned_ < 0; ++s) {
          if (s != t && box_->lo.at(s, t) > 0.0 &&
              (dag.edges().empty() || !dag.reachesDest(s))) {
            pinned_ = s * n + t;
          }
        }
      }
      lambda_ = p.addVar(0.0, 0.0, lp::kInfinity);
    }
    for (NodeId t = 0; t < n; ++t) {
      for (NodeId s = 0; s < n; ++s) {
        if (!routablePair(*dags_, box_, s, t)) continue;
        dvar_[s][t] = p.addVar(0.0, 0.0, lp::kInfinity);
        ++num_dvars_;
        if (box_ != nullptr) {
          // d <= lambda*dmax ; d >= lambda*dmin.
          p.addConstraint({{dvar_[s][t], 1.0}, {lambda_, -box_->hi.at(s, t)}},
                          lp::Rel::kLe, 0.0);
          if (box_->lo.at(s, t) > 0.0) {
            p.addConstraint({{dvar_[s][t], 1.0}, {lambda_, -box_->lo.at(s, t)}},
                            lp::Rel::kGe, 0.0);
          }
        }
      }
    }

    // Witness flows g_t(e) on DAG edges for destinations with any demand
    // variable: t's flow block, with d(u,t) as node u's supply column.
    // Capacity-row terms are bucketed per edge in destination order.
    std::vector<std::vector<lp::Term>> cap_terms(
        static_cast<std::size_t>(g_.numEdges()));
    std::vector<int> supply(static_cast<std::size_t>(n));
    for (NodeId t = 0; t < n; ++t) {
      bool any = false;
      for (NodeId u = 0; u < n; ++u) {
        supply[u] = dvar_[u][t];
        any = any || supply[u] >= 0;
      }
      if (!any) continue;
      const auto& edges = (*dags_)[t].edges();
      const FlowBlock block = appendFlowBlock(p, g_, t, edges, supply);
      for (std::size_t j = 0; j < edges.size(); ++j) {
        cap_terms[edges[j]].push_back({block.vars[j], 1.0});
      }
    }

    // Capacity of every edge (row index kept for the pruned scan's duals).
    cap_row_.assign(g_.numEdges(), -1);
    for (EdgeId e = 0; e < g_.numEdges(); ++e) {
      if (cap_terms[e].empty()) continue;
      cap_row_[e] = p.numRows();
      p.addConstraint(std::move(cap_terms[e]), lp::Rel::kLe,
                      g_.edge(e).capacity);
    }

    // Objective postings: for each edge, the destinations whose DAG uses
    // it plus the edge's slot within dags[t].edges(). Replaces the dense
    // [t][e] slot map; setEdgeObjective then touches only destinations
    // that can actually load the target edge.
    edge_dests_.assign(static_cast<std::size_t>(g_.numEdges()), {});
    for (NodeId t = 0; t < n; ++t) {
      const auto& edges = (*dags_)[t].edges();
      for (std::size_t k = 0; k < edges.size(); ++k) {
        edge_dests_[edges[k]].push_back({t, static_cast<int>(k)});
      }
    }
    return p;
  }

  void setEdgeObjective(Session& session, const LoadCoefficients& coef,
                        EdgeId target) const {
    for (const int var : session.objective_vars) {
      session.solver.setObjective(var, 0.0);
    }
    session.objective_vars.clear();
    const int n = g_.numNodes();
    const double cap = g_.edge(target).capacity;
    // Postings are dest-ascending, so the objective_vars order matches
    // the historical dense [t][e] scan.
    for (const DestSlot& ds : edge_dests_[target]) {
      const NodeId t = ds.dest;
      for (NodeId s = 0; s < n; ++s) {
        if (s == t || dvar_[s][t] < 0) continue;
        const double l =
            coef.per_pair[static_cast<std::size_t>(t) * n + s][ds.slot];
        if (l <= 0.0) continue;
        session.solver.setObjective(dvar_[s][t], l / cap);
        session.objective_vars.push_back(dvar_[s][t]);
      }
    }
  }

  double solveEdge(Session& session, const LoadCoefficients& coef,
                   EdgeId target) {
    setEdgeObjective(session, coef, target);
    if (session.objective_vars.empty()) return 0.0;  // nothing loads it
    // Each edge re-solves from its *own* previous optimal basis (stored
    // across cutting-plane rounds) rather than from whatever edge the
    // chunk chain solved last: the routing moves only a little between
    // rounds, so the same-edge basis is usually optimal or one pivot
    // away, while the neighboring edge's basis prices a fully different
    // objective. Each edge belongs to exactly one chunk, so the slot is
    // touched by a single pool worker and the scan stays bit-identical
    // for any thread count.
    lp::Basis& memo = edge_basis_[target];
    if (!memo.empty()) session.solver.setBasis(memo);
    const lp::LpResult res = session.solver.solve();
    requireOptimal(res, target);
    memo = session.solver.basis();
    return res.objective;
  }

  const Graph& g_;
  std::shared_ptr<const DagSet> dags_;
  const tm::DemandBounds* box_;
  int lambda_ = -1;
  int num_dvars_ = 0;
  /// s*n+t of a box pair with lo > 0 the DAGs cannot route, which pins
  /// lambda to 0; -1 if none.
  int pinned_ = -1;
  struct DestSlot {
    NodeId dest;  ///< destination whose DAG uses the edge
    int slot;     ///< edge's index within dags[dest].edges()
  };
  std::vector<std::vector<int>> dvar_;  ///< [s][t]
  /// [e] -> postings of the dests whose DAG uses e, dest-ascending.
  std::vector<std::vector<DestSlot>> edge_dests_;
  std::vector<int> cap_row_;            ///< [e] capacity row or -1
  /// The never-solved session every scan copies; built by build(), so it
  /// is declared after every member build() fills.
  lp::SimplexSolver proto_;
  std::vector<std::unique_ptr<Session>> sessions_;  ///< one per edge chunk
  /// Per-edge optimal basis from the previous scan; slot e is only ever
  /// touched by the chunk that owns edge e (see solveEdge).
  std::vector<lp::Basis> edge_basis_;
};

WorstCaseOracle::WorstCaseOracle(const Graph& g,
                                 std::shared_ptr<const DagSet> dags,
                                 const tm::DemandBounds* box,
                                 const lp::SimplexOptions& opt)
    : impl_(std::make_unique<Impl>(g, std::move(dags), box, opt)) {}
WorstCaseOracle::~WorstCaseOracle() = default;

WorstCaseResult WorstCaseOracle::find(const RoutingConfig& cfg) {
  return impl_->find(cfg);
}

WorstCaseResult WorstCaseOracle::findForEdge(const RoutingConfig& cfg,
                                             EdgeId edge) {
  return impl_->findForEdge(cfg, edge);
}

WorstCaseResult findWorstCaseDemandForEdge(const Graph& g,
                                           const RoutingConfig& cfg,
                                           EdgeId edge,
                                           const tm::DemandBounds* box,
                                           const lp::SimplexOptions& opt) {
  require(edge >= 0 && edge < g.numEdges(), "edge out of range");
  WorstCaseOracle oracle(g, cfg.dagsPtr(), box, opt);
  return oracle.findForEdge(cfg, edge);
}

/// The one-shot scan on a fresh oracle, for the entry points below.
struct PrunedScan {
  static WorstCaseResult run(const Graph& g, const RoutingConfig& cfg,
                             const tm::DemandBounds* box,
                             const lp::SimplexOptions& opt,
                             BoxCertificate* cert) {
    WorstCaseOracle oracle(g, cfg.dagsPtr(), box, opt);
    return oracle.impl_->findPruned(cfg, cert);
  }
};

WorstCaseResult findWorstCaseDemand(const Graph& g, const RoutingConfig& cfg,
                                    const tm::DemandBounds* box,
                                    const lp::SimplexOptions& opt) {
  return PrunedScan::run(g, cfg, box, opt, nullptr);
}

BoxCertificate certifyBoxRatio(const Graph& g, const RoutingConfig& cfg,
                               const tm::DemandBounds& box,
                               const lp::SimplexOptions& opt) {
  BoxCertificate cert;
  (void)PrunedScan::run(g, cfg, &box, opt, &cert);
  return cert;
}

ObliviousCertificate certifyObliviousRatio(const Graph& g,
                                           const RoutingConfig& cfg,
                                           const lp::SimplexOptions& opt) {
  BoxCertificate full;
  (void)PrunedScan::run(g, cfg, nullptr, opt, &full);
  ObliviousCertificate cert{full.ratio, {}};
  for (BoxEdgeCertificate& ec : full.edges) {
    cert.edges.push_back({ec.edge, ec.ratio, std::move(ec.pi)});
  }
  return cert;
}

}  // namespace coyote::routing
