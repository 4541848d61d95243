#include "core/splitting_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/thread_pool.hpp"

namespace coyote::core {
namespace {

using routing::RoutingConfig;

/// Flat phi array indexed [t * numEdges + e]; mirrors RoutingConfig.
struct Phi {
  int n, m;
  std::vector<double> v;

  Phi(int nodes, int edges)
      : n(nodes), m(edges), v(static_cast<std::size_t>(nodes) * edges, 0.0) {}

  double& at(NodeId t, EdgeId e) { return v[static_cast<std::size_t>(t) * m + e]; }
  double at(NodeId t, EdgeId e) const {
    return v[static_cast<std::size_t>(t) * m + e];
  }
};

Phi fromConfig(const Graph& g, const RoutingConfig& cfg) {
  Phi phi(g.numNodes(), g.numEdges());
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    for (const EdgeId e : cfg.dags()[t].edges()) phi.at(t, e) = cfg.ratio(t, e);
  }
  return phi;
}

RoutingConfig toConfig(const Graph& g, const RoutingConfig& like,
                       const Phi& phi, double prune_below) {
  RoutingConfig cfg(g, like.dagsPtr());
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    const Dag& dag = cfg.dags()[t];
    for (NodeId u = 0; u < g.numNodes(); ++u) {
      if (u == t) continue;
      const auto& out = dag.outEdges(u);
      if (out.empty()) continue;
      // Prune negligible ratios but always keep the largest one.
      EdgeId best = out.front();
      for (const EdgeId e : out) {
        if (phi.at(t, e) > phi.at(t, best)) best = e;
      }
      for (const EdgeId e : out) {
        const double r = phi.at(t, e);
        cfg.setRatio(t, e, (e == best || r >= prune_below) ? r : 0.0);
      }
    }
  }
  cfg.normalize(g);
  return cfg;
}

/// Demand columns with any positive entry, per pool matrix.
struct ActiveDemand {
  NodeId dest;
  std::vector<double> column;  // column[s] = d(s,dest)
};

std::vector<std::vector<ActiveDemand>> activeColumns(
    const routing::PerformanceEvaluator& pool) {
  std::vector<std::vector<ActiveDemand>> act(pool.size());
  const int n = pool.graph().numNodes();
  for (int i = 0; i < pool.size(); ++i) {
    const tm::TrafficMatrix& d = pool.matrix(i);
    for (NodeId t = 0; t < n; ++t) {
      if (!d.hasDemandTo(t)) continue;
      ActiveDemand a{t, std::vector<double>(n, 0.0)};
      for (NodeId s = 0; s < n; ++s) {
        if (s != t) a.column[s] = d.at(s, t);
      }
      act[i].push_back(std::move(a));
    }
  }
  return act;
}

/// One DAG edge as the kernel walks it. Destination t's ratio and gradient
/// for it sit at the flat index t * m + e.
struct Arc {
  EdgeId e;
  NodeId head;
};

/// Every destination's DAG flattened once per call. Destination t owns the
/// nodes node[node_off[t] .. node_off[t+1]): its nodes with out-arcs, in
/// topological order. Node slot k owns arc[arc_off[k] .. arc_off[k+1]), in
/// Dag::outEdges order, so every walk below visits arcs in the same order
/// as the Dag it was compiled from.
struct CompiledDags {
  std::vector<std::size_t> node_off;
  std::vector<NodeId> node;
  std::vector<std::size_t> arc_off;
  std::vector<Arc> arc;

  CompiledDags(const Graph& g, const DagSet& dags) {
    node_off.push_back(0);
    arc_off.push_back(0);
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      const Dag& dag = dags[t];
      for (const NodeId u : dag.topoOrder()) {
        const auto& out = dag.outEdges(u);
        if (out.empty()) continue;  // includes t: no edge leaves the dest
        node.push_back(u);
        for (const EdgeId e : out) arc.push_back({e, g.edge(e).dst});
        arc_off.push_back(arc.size());
      }
      node_off.push_back(node.size());
    }
  }
};

}  // namespace

routing::RoutingConfig optimizeSplitting(
    const Graph& g, const routing::PerformanceEvaluator& pool,
    const routing::RoutingConfig& init, const SplittingOptions& opt,
    int* iterations_used) {
  require(opt.iterations >= 1, "need >= 1 iteration");
  require(pool.size() > 0, "empty demand pool");
  const int n = g.numNodes();
  const int m = g.numEdges();
  const std::size_t P = static_cast<std::size_t>(pool.size());

  const auto active = activeColumns(pool);
  const CompiledDags dags(g, init.dags());
  std::vector<double> cap(m);
  for (EdgeId e = 0; e < m; ++e) cap[e] = g.edge(e).capacity;
  Phi phi = fromConfig(g, init);

  // Forward state per (pool matrix, destination): inflow at every node,
  // one n-block per active destination, matrix i's blocks from inflow_off[i].
  std::vector<std::size_t> inflow_off(P + 1, 0);
  for (std::size_t i = 0; i < P; ++i) {
    inflow_off[i + 1] = inflow_off[i] + active[i].size() * n;
  }
  std::vector<double> inflow(inflow_off[P], 0.0);
  // Row i holds matrix i's link utilizations, then its softmax weights,
  // then its per-edge gradient weights G.
  std::vector<double> util(P * m, 0.0);
  std::vector<char> live(P, 0);
  std::vector<double> grad(static_cast<std::size_t>(n) * m, 0.0);
  std::vector<double> mu(n, 0.0);

  Phi best = phi;
  double best_util = std::numeric_limits<double>::infinity();
  int executed = 0;
  int since_best = 0;

  for (int iter = 0; iter < opt.iterations; ++iter) {
    ++executed;
    // ---- Forward: per-matrix link loads. Matrices are independent, so
    // they propagate on the evaluator's thread pool; umax reduces serially
    // afterwards (max is order-insensitive, so this is bit-deterministic).
    pool.threadPool().parallelFor(P, [&](std::size_t i) {
      double* load = util.data() + i * m;
      std::fill(load, load + m, 0.0);
      for (std::size_t k = 0; k < active[i].size(); ++k) {
        const ActiveDemand& a = active[i][k];
        double* F = inflow.data() + inflow_off[i] + k * n;
        std::copy(a.column.begin(), a.column.end(), F);
        const NodeId t = a.dest;
        const double* phi_t = &phi.at(t, 0);
        for (std::size_t v = dags.node_off[t]; v < dags.node_off[t + 1]; ++v) {
          const double f = F[dags.node[v]];
          if (f <= 0.0) continue;
          for (std::size_t j = dags.arc_off[v]; j < dags.arc_off[v + 1]; ++j) {
            const Arc& arc = dags.arc[j];
            const double flow = f * phi_t[arc.e];
            load[arc.e] += flow;
            F[arc.head] += flow;
          }
        }
      }
      for (EdgeId e = 0; e < m; ++e) load[e] /= cap[e];
    });
    double umax = 0.0;
    for (const double u : util) umax = std::max(umax, u);
    // A meaningful (relative) improvement resets the patience clock; the
    // `best` snapshot itself still tracks any strict improvement.
    if (umax < best_util - 1e-9 * std::max(1.0, best_util)) {
      since_best = 0;
    } else {
      ++since_best;
    }
    if (umax < best_util) {
      best_util = umax;
      best = phi;
    }
    if (umax <= 0.0) break;
    if (opt.patience > 0 && since_best >= opt.patience) break;

    // ---- Softmax constraint weights (annealed temperature).
    const double anneal = static_cast<double>(iter) / std::max(1, opt.iterations - 1);
    const double tau =
        umax * (kTemperatureStart +
                (kTemperatureEnd - kTemperatureStart) * anneal);
    const double temp = std::max(tau, 1e-9);
    double wsum = 0.0;
    for (std::size_t i = 0; i < P; ++i) {
      double* w = util.data() + i * m;
      bool any = false;
      for (EdgeId e = 0; e < m; ++e) {
        const double x = std::exp((w[e] - umax) / temp);
        w[e] = (x > 1e-12) ? x : 0.0;
        wsum += w[e];
        any = any || w[e] > 0.0;
      }
      live[i] = any;
    }
    // Gradient weight of edge e under matrix i: dObj/dload_e.
    for (std::size_t i = 0; i < P; ++i) {
      if (!live[i]) continue;
      double* G = util.data() + i * m;
      for (EdgeId e = 0; e < m; ++e) G[e] /= wsum * cap[e];
    }

    // ---- Backward: adjoint gradient of the weighted utilization. One
    // reverse sweep per (matrix, destination) settles mu at every node and
    // adds each arc's gradient term as it goes: a head's mu is final before
    // any of its tails is visited.
    std::fill(grad.begin(), grad.end(), 0.0);
    for (std::size_t i = 0; i < P; ++i) {
      if (!live[i]) continue;
      const double* G = util.data() + i * m;
      for (std::size_t k = 0; k < active[i].size(); ++k) {
        const NodeId t = active[i][k].dest;
        const double* phi_t = &phi.at(t, 0);
        double* grad_t = grad.data() + static_cast<std::size_t>(t) * m;
        const double* F = inflow.data() + inflow_off[i] + k * n;
        std::fill(mu.begin(), mu.end(), 0.0);
        for (std::size_t v = dags.node_off[t + 1]; v-- > dags.node_off[t];) {
          const NodeId u = dags.node[v];
          const double fu = F[u];
          double acc = 0.0;
          for (std::size_t j = dags.arc_off[v]; j < dags.arc_off[v + 1]; ++j) {
            const Arc& arc = dags.arc[j];
            const double tail = G[arc.e] + mu[arc.head];
            acc += phi_t[arc.e] * tail;
            grad_t[arc.e] += fu * tail;
          }
          mu[u] = acc;
        }
      }
    }

    // ---- Multiplicative update per (destination, node) simplex.
    // Step size decays over the run so late iterations settle onto the
    // (annealed, nearly hard-max) optimum instead of oscillating.
    const double lr = kLearningRate * (1.0 - 0.9 * anneal);
    const bool condense = opt.method == SplitMethod::kGpCondensation;
    for (NodeId t = 0; t < n; ++t) {
      double* phi_t = &phi.at(t, 0);
      const double* grad_t = grad.data() + static_cast<std::size_t>(t) * m;
      for (std::size_t v = dags.node_off[t]; v < dags.node_off[t + 1]; ++v) {
        const Arc* first = dags.arc.data() + dags.arc_off[v];
        const Arc* last = dags.arc.data() + dags.arc_off[v + 1];
        if (last - first < 2) continue;  // single next-hop: ratio pinned to 1
        double scale = 0.0;
        for (const Arc* a = first; a != last; ++a) {
          const double gphi = grad_t[a->e];
          const double eff = condense ? gphi * phi_t[a->e] : gphi;
          scale = std::max(scale, std::abs(eff));
        }
        if (scale <= 0.0) continue;
        double sum = 0.0;
        for (const Arc* a = first; a != last; ++a) {
          const double gphi = grad_t[a->e];
          const double eff = condense ? gphi * phi_t[a->e] : gphi;
          double& p = phi_t[a->e];
          p = std::max(1e-12, p * std::exp(-lr * eff / scale));
          sum += p;
        }
        for (const Arc* a = first; a != last; ++a) phi_t[a->e] /= sum;
      }
    }
  }

  if (iterations_used != nullptr) *iterations_used = executed;
  RoutingConfig cfg = toConfig(g, init, best, opt.prune_below);
  cfg.validate(g);
  return cfg;
}

}  // namespace coyote::core
