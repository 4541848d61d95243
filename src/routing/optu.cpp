#include "routing/optu.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/maxflow.hpp"
#include "lp/stats.hpp"
#include "routing/flow_block.hpp"

namespace coyote::routing {

/// Constraint matrix, variable map and row map for one active-destination
/// signature. `proto` is the never-solved session holding the matrix
/// (conservation rhs 0, failed-edge bounds applied); `serial`, the
/// retained warm-start session of the serial entry points, and every batch
/// chunk session are copies of it.
///
/// Per-destination maps are sparse (one entry per flow edge), so a
/// destination's block costs O(|DAG_t|) instead of O(|E|) -- on a
/// fat-tree rung dense [t][e] maps alone would dwarf the LP itself.
struct OptuEngine::Template {
  std::optional<lp::SimplexSolver> proto;
  int num_vars = 0;
  int num_rows = 0;
  int alpha = -1;
  std::vector<char> active;               ///< [t] 1 if destination modeled
  std::vector<std::vector<EdgeId>> edges;  ///< [t] flowEdges(t) if active
  std::vector<FlowBlock> block;           ///< [t] flow vars and rows
  std::vector<int> cap_row;               ///< [e] capacity row or -1
  std::unique_ptr<lp::SimplexSolver> serial;
  /// Decomposition crossover basis (empty when not built/worthwhile).
  /// Computed at most once per template; batch chunk clones and the first
  /// serial solve warm-start from it instead of an all-logical cold basis.
  lp::Basis seed;
  bool tried_seed = false;
  /// [j] the basis pool slot j ended with in utilizationAt; empty until
  /// that slot first solves on this template.
  std::vector<lp::Basis> slot_basis;
};

OptuEngine::OptuEngine(const Graph& g, std::shared_ptr<const DagSet> dags,
                       lp::SimplexOptions opt)
    : g_(g), dags_(std::move(dags)), opt_(opt) {
  require(dags_ != nullptr, "null dag set");
  require(static_cast<int>(dags_->size()) == g.numNodes(), "bad dag set");
}

OptuEngine::OptuEngine(const Graph& g, lp::SimplexOptions opt)
    : g_(g), dags_(nullptr), opt_(opt) {}

OptuEngine::~OptuEngine() = default;

std::vector<char> OptuEngine::activeSignature(
    const tm::TrafficMatrix& d) const {
  require(d.numNodes() == g_.numNodes(), "matrix/graph size mismatch");
  const int n = g_.numNodes();
  std::vector<char> active(n, 0);
  for (NodeId t = 0; t < n; ++t) active[t] = d.hasDemandTo(t) ? 1 : 0;
  return active;
}

std::vector<EdgeId> OptuEngine::flowEdges(NodeId dest) const {
  if (dags_ != nullptr) return (*dags_)[dest].edges();  // sorted by Dag
  std::vector<EdgeId> edges;
  for (EdgeId e = 0; e < g_.numEdges(); ++e) {
    if (g_.edge(e).src != dest) edges.push_back(e);
  }
  return edges;
}

OptuEngine::Template& OptuEngine::templateFor(const std::vector<char>& active) {
  std::string key(active.begin(), active.end());
  const auto it = cache_.find(key);
  if (it != cache_.end()) return *it->second;

  auto tpl = std::make_unique<Template>();
  Template& t = *tpl;
  t.active = active;
  const int n = g_.numNodes();
  lp::LpProblem p(lp::Sense::kMinimize);
  t.alpha = p.addVar(1.0, 0.0, lp::kInfinity);
  t.edges.assign(n, {});
  t.block.assign(n, {});
  // One flow block per active destination; the capacity-row terms
  // accumulate in per-edge buckets in ascending destination order.
  std::vector<std::vector<lp::Term>> cap_terms(
      static_cast<std::size_t>(g_.numEdges()));
  for (NodeId dest = 0; dest < n; ++dest) {
    if (!active[dest]) continue;
    t.edges[dest] = flowEdges(dest);
    t.block[dest] = appendFlowBlock(p, g_, dest, t.edges[dest]);
    for (std::size_t j = 0; j < t.edges[dest].size(); ++j) {
      cap_terms[t.edges[dest][j]].push_back({t.block[dest].vars[j], 1.0});
    }
  }
  // Capacity: sum_t g_t(e) - alpha*c(e) <= 0.
  t.cap_row.assign(g_.numEdges(), -1);
  for (EdgeId e = 0; e < g_.numEdges(); ++e) {
    if (cap_terms[e].empty()) continue;
    std::vector<lp::Term> terms = std::move(cap_terms[e]);
    terms.push_back({t.alpha, -g_.edge(e).capacity});
    t.cap_row[e] = p.numRows();
    p.addConstraint(std::move(terms), lp::Rel::kLe, 0.0);
  }
  t.num_vars = p.numVars();
  t.num_rows = p.numRows();
  t.proto.emplace(p, opt_);
  applyFailures(t, {});  // templates built mid-failure inherit the failed set
  return *cache_.emplace(std::move(key), std::move(tpl)).first->second;
}

void OptuEngine::applyDemand(lp::SimplexSolver& solver, const Template& t,
                             const tm::TrafficMatrix& d) const {
  const int n = g_.numNodes();
  for (NodeId dest = 0; dest < n; ++dest) {
    if (!t.active[dest]) continue;
    for (NodeId u = 0; u < n; ++u) {
      if (u == dest) continue;
      const double dem = d.at(u, dest);
      const int row = t.block[dest].rows[u];
      if (row < 0) {
        require(dem <= 0.0, "demand from " + g_.nodeName(u) + " to " +
                                g_.nodeName(dest) +
                                " cannot be routed (no usable edges)");
        continue;
      }
      solver.setRhs(row, dem);
    }
  }
}

double OptuEngine::solveAlpha(lp::SimplexSolver& solver, const Template& t,
                              std::vector<double>* weights) {
  const lp::LpResult res = solver.solve();
  if (res.status != lp::Status::kOptimal) {
    throw std::runtime_error("OPTU LP not optimal: " +
                             lp::toString(res.status));
  }
  if (weights != nullptr) {
    // A minimization's <= row has dual y <= 0: the price is -y.
    weights->assign(t.cap_row.size(), 0.0);
    for (std::size_t e = 0; e < t.cap_row.size(); ++e) {
      if (t.cap_row[e] >= 0) {
        (*weights)[e] = std::max(0.0, -res.row_duals[t.cap_row[e]]);
      }
    }
  }
  return res.x[t.alpha];
}

void OptuEngine::applyFailures(Template& t,
                               const std::vector<char>& previous) const {
  for (NodeId dest = 0; dest < g_.numNodes(); ++dest) {
    if (!t.active[dest]) continue;
    for (std::size_t j = 0; j < t.edges[dest].size(); ++j) {
      const EdgeId e = t.edges[dest][j];
      const bool was = !previous.empty() && previous[e];
      const bool now = !failed_.empty() && failed_[e];
      if (was == now) continue;
      const int var = t.block[dest].vars[j];
      const double ub = now ? 0.0 : lp::kInfinity;
      t.proto->setBounds(var, 0.0, ub);
      if (t.serial) t.serial->setBounds(var, 0.0, ub);
    }
  }
}

void OptuEngine::setFailedEdges(const std::vector<EdgeId>& edges) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<char> mask;
  if (!edges.empty()) {
    mask.assign(g_.numEdges(), 0);
    for (const EdgeId e : edges) {
      require(e >= 0 && e < g_.numEdges(), "failed edge out of range");
      mask[e] = 1;
    }
  }
  if (mask == failed_) return;
  // Mutate every cached template (prototype + retained session): clones
  // made by utilizationBatch and future solves all see the new network,
  // and the retained bases stay valid warm starts (phase 1 repairs
  // feasibility).
  const std::vector<char> previous = std::move(failed_);
  failed_ = std::move(mask);
  for (auto& [key, tpl] : cache_) applyFailures(*tpl, previous);
}

// ---------------------------------------------------------------------------
// Block decomposition. The OPTU constraint matrix is block-angular: the
// per-destination conservation blocks share nothing but the capacity rows
// and alpha. Given per-edge prices, each destination's cheapest routing is
// an independent min-cost flow LP; iterating a deterministic multiplicative
// price update against the resulting bottlenecks yields a near-optimal flow
// whose block bases assemble ("cross over") into a full-problem basis:
//
//   * block variable/conservation-logical statuses map 1:1 onto the full
//     columns (the block basis matrices reappear unchanged on the full
//     basis diagonal);
//   * every capacity-row logical is basic except on the most-utilized edge
//     r*, where alpha enters the basis instead.
//
// The assembled matrix is block lower triangular with nonsingular diagonal
// blocks (det = prod(det B_block) * (-c_{r*})), and because alpha is basic
// on the max-utilization row, alpha = max_e load_e/c_e covers every other
// capacity row -- the basis is *primal feasible* for the decomposed flow,
// so the full monolithic solve that follows skips phase 1 entirely and
// merely prices out the remaining gap to the exact LP optimum.
// ---------------------------------------------------------------------------

lp::Basis OptuEngine::decomposeSeed(const Template& t,
                                    const tm::TrafficMatrix& d,
                                    util::ThreadPool* tp) const {
  if (t.num_rows < kDecompMinRows) return {};
  const int n = g_.numNodes();
  const int ne = g_.numEdges();

  // Per-destination min-cost-flow block: the template's flow block on its
  // own, from the same builder, so its vars and rows map onto the
  // template's by position.
  struct Block {
    NodeId dest = 0;
    FlowBlock local;            ///< the block LP's own var and row ids
    std::unique_ptr<lp::SimplexSolver> session;
    std::vector<double> flow;   ///< per block var, last optimal solution
    bool ok = true;
  };

  // Initial prices: inverse capacity (crossing a thin link is expensive),
  // the classic starting point for price-directed decomposition.
  std::vector<double> price(ne, 0.0);
  for (EdgeId e = 0; e < ne; ++e) {
    const double c = g_.edge(e).capacity;
    if (c > 0.0) price[e] = 1.0 / c;
  }

  std::vector<Block> blocks;
  for (NodeId dest = 0; dest < n; ++dest) {
    if (!t.active[dest] || t.edges[dest].empty()) continue;
    const std::vector<EdgeId>& edges = t.edges[dest];
    Block b;
    b.dest = dest;
    lp::LpProblem prob(lp::Sense::kMinimize);
    b.local = appendFlowBlock(prob, g_, dest, edges);
    for (std::size_t j = 0; j < edges.size(); ++j) {
      const EdgeId e = edges[j];
      prob.setObjective(b.local.vars[j], price[e]);
      // Pin what the full problem pins: failed edges (bounds) and
      // zero-capacity edges (whose capacity row forces zero flow).
      if ((!failed_.empty() && failed_[e]) || g_.edge(e).capacity <= 0.0) {
        prob.setVarBounds(b.local.vars[j], 0.0, 0.0);
      }
    }
    for (NodeId u = 0; u < n; ++u) {
      if (b.local.rows[u] >= 0) {
        prob.setConstraintRhs(b.local.rows[u], d.at(u, dest));
      }
    }
    b.session = std::make_unique<lp::SimplexSolver>(prob, opt_);
    blocks.push_back(std::move(b));
  }
  if (blocks.empty()) return {};

  std::vector<double> load(ne, 0.0);
  for (int round = 0; round < kDecompRounds; ++round) {
    const auto solveBlock = [&](std::size_t bi) {
      Block& b = blocks[bi];
      if (!b.ok) return;
      const lp::LpResult res = b.session->solve();
      if (res.status != lp::Status::kOptimal) {
        b.ok = false;  // unroutable under pins: let the full solve report
        return;
      }
      b.flow = res.x;
    };
    // Fixed-size chunks on the pool (or serial): each block is an
    // independent LP warm-chained only against its own previous round, so
    // the fan-out is bit-identical for any thread count.
    if (tp != nullptr && blocks.size() > 1) {
      const std::size_t nchunks =
          (blocks.size() + kBlockChunk - 1) / kBlockChunk;
      tp->parallelFor(nchunks, [&](std::size_t ci) {
        const std::size_t lo = ci * kBlockChunk;
        const std::size_t hi = std::min(blocks.size(), lo + kBlockChunk);
        for (std::size_t bi = lo; bi < hi; ++bi) solveBlock(bi);
      });
    } else {
      for (std::size_t bi = 0; bi < blocks.size(); ++bi) solveBlock(bi);
    }
    for (const Block& b : blocks) {
      if (!b.ok) return {};
    }

    // Deterministic serial reduction in destination order.
    std::fill(load.begin(), load.end(), 0.0);
    for (const Block& b : blocks) {
      const std::vector<EdgeId>& edges = t.edges[b.dest];
      for (std::size_t j = 0; j < edges.size(); ++j) {
        load[edges[j]] += std::max(0.0, b.flow[j]);
      }
    }
    double umax = 0.0;
    for (EdgeId e = 0; e < ne; ++e) {
      const double c = g_.edge(e).capacity;
      if (c > 0.0) umax = std::max(umax, load[e] / c);
    }
    if (round + 1 == kDecompRounds || umax <= 0.0) break;

    // Multiplicative-weights price update: bottlenecked edges get
    // exponentially dearer (normalized so sum price*c = 1 for scale
    // stability); objective-only mutations keep the block bases warm.
    double scale = 0.0;
    for (EdgeId e = 0; e < ne; ++e) {
      const double c = g_.edge(e).capacity;
      if (c <= 0.0) continue;
      price[e] *= std::exp(load[e] / (c * umax));
      scale += price[e] * c;
    }
    if (scale > 0.0) {
      for (EdgeId e = 0; e < ne; ++e) price[e] /= scale;
    }
    for (Block& b : blocks) {
      const std::vector<EdgeId>& edges = t.edges[b.dest];
      for (std::size_t j = 0; j < edges.size(); ++j) {
        b.session->setObjective(b.local.vars[j], price[edges[j]]);
      }
    }
  }

  lp::StatsSnapshot delta;
  delta.decomp_rounds = kDecompRounds;
  lp::GlobalStats::instance().record(delta);

  // Crossover: assemble the full-problem basis from the block bases.
  lp::Basis seed;
  const int nv = t.num_vars;
  seed.status.assign(static_cast<std::size_t>(nv) + t.num_rows,
                     lp::Basis::kAtLower);
  for (const Block& b : blocks) {
    const lp::Basis& bb = b.session->basis();
    const FlowBlock& full = t.block[b.dest];
    const int bn = static_cast<int>(b.local.vars.size());
    for (int j = 0; j < bn; ++j) {
      seed.status[full.vars[j]] = bb.status[b.local.vars[j]];
    }
    for (NodeId u = 0; u < n; ++u) {
      if (full.rows[u] >= 0) {
        seed.status[nv + full.rows[u]] = bb.status[bn + b.local.rows[u]];
      }
    }
  }
  int rstar = -1;
  double ustar = 0.0;
  for (EdgeId e = 0; e < ne; ++e) {
    if (t.cap_row[e] < 0) continue;
    seed.status[nv + t.cap_row[e]] = lp::Basis::kBasic;
    const double c = g_.edge(e).capacity;
    if (c > 0.0 && load[e] / c > ustar) {  // strict: ties keep lowest e
      ustar = load[e] / c;
      rstar = e;
    }
  }
  if (rstar >= 0) {
    // alpha enters the basis on the most-utilized capacity row; its
    // logical leaves. alpha = ustar then satisfies every capacity row.
    seed.status[nv + t.cap_row[rstar]] = lp::Basis::kAtLower;
    seed.status[t.alpha] = lp::Basis::kBasic;
  }
  return seed;
}

const lp::Basis& OptuEngine::ensureSeed(Template& t,
                                        const tm::TrafficMatrix& d,
                                        util::ThreadPool* tp) {
  if (!t.tried_seed) {
    t.tried_seed = true;
    t.seed = decomposeSeed(t, d, tp);
  }
  return t.seed;
}

// ---------------------------------------------------------------------------
// Single-destination matrices. When every demand goes to one node t, OPTU is
// a single-sink flow problem and equals the densest cut:
//
//     OPTU = max over X subset of V\{t} of d(X) / c(delta+(X)),
//
// where d(X) is the demand from X and delta+(X) the usable edges leaving X
// (failed and zero-capacity edges count as capacity 0). Newton's
// (Dinkelbach's) iteration finds it with a few max flows: with
// lambda = c(delta+(X)) / d(X) for the current cut X, route the supplies
// lambda * d(s, t) from a super-source. If every supply arc saturates, the
// demand routes at utilization 1 / lambda, which X matches from below, so
// X is optimal. Otherwise the residual source side Y is strictly denser
// (c(delta+(Y)) < lambda * d(Y)) and becomes the next cut.
// ---------------------------------------------------------------------------

namespace {

/// The only active destination, or -1 when zero or several are active.
NodeId soleDestination(const std::vector<char>& active) {
  NodeId sole = -1;
  for (NodeId t = 0; t < static_cast<NodeId>(active.size()); ++t) {
    if (!active[t]) continue;
    if (sole >= 0) return -1;
    sole = t;
  }
  return sole;
}

/// Matrices whose largest entry is below this are solved on a rescaled
/// copy: the simplex's feasibility tolerance is absolute,
/// kFeasTol * (1 + max|b|), so a tiny demand's rows pass as satisfied by
/// zero flow and OPTU comes out low, or 0.
constexpr double kRescaleBelow = 0x1p-10;

/// The k with 2^k * d.maxEntry() in [1, 2) when d needs rescaling, else 0.
int rescaleExponent(const tm::TrafficMatrix& d) {
  const double max = d.maxEntry();
  if (!(max > 0.0) || max >= kRescaleBelow) return 0;
  int exp = 0;
  (void)std::frexp(max, &exp);  // max = f * 2^exp, f in [0.5, 1)
  return 1 - exp;
}

/// d * 2^k, exactly. Two steps: 2^k alone overflows a double for k > 1023.
tm::TrafficMatrix rescaled(const tm::TrafficMatrix& d, int k) {
  tm::TrafficMatrix out = d;
  out.scale(std::ldexp(1.0, k / 2));
  out.scale(std::ldexp(1.0, k - k / 2));
  return out;
}

}  // namespace

double OptuEngine::singleSinkUtilization(NodeId dest,
                                         const tm::TrafficMatrix& d) const {
  const int n = g_.numNodes();
  // The edges an LP template gives flow variables toward dest, in id order.
  const std::vector<EdgeId> edges = flowEdges(dest);
  std::vector<char> touched(n, 0);
  std::vector<double> cap(edges.size(), 0.0);
  for (std::size_t j = 0; j < edges.size(); ++j) {
    const Edge& ed = g_.edge(edges[j]);
    touched[ed.src] = touched[ed.dst] = 1;
    const bool down = !failed_.empty() && failed_[edges[j]];
    if (!down && ed.capacity > 0.0) cap[j] = ed.capacity;
  }
  std::vector<NodeId> sources;
  for (NodeId u = 0; u < n; ++u) {
    if (u == dest || d.at(u, dest) <= 0.0) continue;
    // Same check and message as the LP path (a source without a
    // conservation row).
    require(touched[u] != 0, "demand from " + g_.nodeName(u) + " to " +
                                 g_.nodeName(dest) +
                                 " cannot be routed (no usable edges)");
    sources.push_back(u);
  }

  // d(X) over sources and c(delta+(X)) over edges, both in id order.
  const auto density = [&](const std::vector<char>& side) {
    double dem = 0.0;
    for (const NodeId s : sources) {
      if (side[s]) dem += d.at(s, dest);
    }
    double c = 0.0;
    for (std::size_t j = 0; j < edges.size(); ++j) {
      const Edge& ed = g_.edge(edges[j]);
      if (side[ed.src] && !side[ed.dst]) c += cap[j];
    }
    return std::make_pair(dem, c);
  };

  std::vector<char> side(n, 1);
  side[dest] = 0;
  auto [dem, c] = density(side);
  for (;;) {
    if (c <= 0.0) {
      // Demand inside X but no capacity out: the LP is infeasible.
      throw std::runtime_error("OPTU LP not optimal: " +
                               lp::toString(lp::Status::kInfeasible));
    }
    const double lambda = c / dem;
    Dinic net(n + 1);  // node n = super-source
    for (std::size_t j = 0; j < edges.size(); ++j) {
      if (cap[j] > 0.0) {
        net.addArc(g_.edge(edges[j]).src, g_.edge(edges[j]).dst, cap[j]);
      }
    }
    for (const NodeId s : sources) net.addArc(n, s, lambda * d.at(s, dest));
    net.run(n, dest);
    std::vector<char> next = net.sourceSide(n);
    next.resize(n);  // drop the super-source
    const auto [next_dem, next_c] = density(next);
    // No supply arc left unsaturated (next_dem == 0), or rounding left one
    // open without a denser cut behind it: X is optimal.
    if (next_dem <= 0.0 || (next_c > 0.0 && next_dem / next_c <= dem / c)) {
      return dem / c;
    }
    side = std::move(next);
    dem = next_dem;
    c = next_c;
  }
}

double OptuEngine::utilization(const tm::TrafficMatrix& d) {
  if (const int k = rescaleExponent(d); k != 0) {
    return std::ldexp(utilization(rescaled(d, k)), -k);
  }
  const std::vector<char> active = activeSignature(d);
  const std::lock_guard<std::mutex> lock(mutex_);
  const NodeId sole = soleDestination(active);
  if (sole >= 0) return singleSinkUtilization(sole, d);
  Template& t = serialFor(active, d);
  return solveAlpha(*t.serial, t);
}

OptuEngine::Template& OptuEngine::serialFor(const std::vector<char>& active,
                                            const tm::TrafficMatrix& d) {
  Template& t = templateFor(active);
  if (!t.serial) {
    // First serial solve on this template: the session copies the
    // prototype, failed-edge bounds included, and starts from the
    // decomposition crossover basis instead of an all-logical cold start.
    // (Serial entries may run inside pool workers, so blocks solve
    // serially here; utilizationBatch passes the pool.)
    t.serial = std::make_unique<lp::SimplexSolver>(*t.proto);
    const lp::Basis& seed = ensureSeed(t, d, nullptr);
    if (!seed.empty()) t.serial->setBasis(seed);
  }
  applyDemand(*t.serial, t, d);
  return t;
}

std::vector<double> OptuEngine::utilizationBatch(
    const std::vector<tm::TrafficMatrix>& pool, util::ThreadPool& tp) {
  // Group matrices by signature, then cut every group into fixed-size
  // chunks; each chunk is one warm-start chain on its own session clone.
  // The chunking is independent of the thread count, so results (and
  // pivot counts) are identical no matter how the chunks are scheduled.
  std::vector<double> out(pool.size(), 0.0);
  // mats[i] is pool[i], or its copy scaled by 2^shift[i] (rescaleExponent).
  std::vector<int> shift(pool.size(), 0);
  std::deque<tm::TrafficMatrix> copies;
  std::vector<const tm::TrafficMatrix*> mats(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    shift[i] = rescaleExponent(pool[i]);
    mats[i] = shift[i] == 0 ? &pool[i]
                            : &copies.emplace_back(rescaled(pool[i], shift[i]));
  }
  std::unordered_map<std::string, std::vector<std::size_t>> groups;
  std::vector<std::string> group_order;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::vector<char> active = activeSignature(*mats[i]);
    std::string key(active.begin(), active.end());
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) group_order.push_back(it->first);
    it->second.push_back(i);
  }

  // A chunk without a template holds single-destination matrices, each
  // solved on its own by the min cut.
  struct Chunk {
    const Template* tpl = nullptr;
    const lp::Basis* seed = nullptr;  ///< decomposition crossover basis
    NodeId sole = -1;                 ///< the destination when tpl is null
    std::vector<std::size_t> indices;
  };
  std::vector<Chunk> chunks;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& key : group_order) {
      const std::vector<std::size_t>& members = groups[key];
      const std::vector<char> active(key.begin(), key.end());
      Chunk proto;
      proto.sole = soleDestination(active);
      if (proto.sole < 0) {
        Template& t = templateFor(active);
        // Phase A: one decomposition per template (blocks fanned out on
        // the pool) builds the crossover basis every chunk clone starts
        // from -- chunk clones otherwise pay a cold all-logical solve each
        // batch.
        const lp::Basis& seed = ensureSeed(t, *mats[members.front()], &tp);
        proto.tpl = &t;
        proto.seed = seed.empty() ? nullptr : &t.seed;
      }
      for (std::size_t at = 0; at < members.size(); at += kBatchChunk) {
        Chunk c = proto;
        const std::size_t end =
            std::min<std::size_t>(members.size(), at + kBatchChunk);
        c.indices.assign(members.begin() + at, members.begin() + end);
        chunks.push_back(std::move(c));
      }
    }
  }

  tp.parallelFor(chunks.size(), [&](std::size_t ci) {
    const Chunk& c = chunks[ci];
    if (c.tpl == nullptr) {
      for (const std::size_t i : c.indices) {
        out[i] = singleSinkUtilization(c.sole, *mats[i]);
      }
      return;
    }
    lp::SimplexSolver solver(*c.tpl->proto);
    if (c.seed != nullptr) solver.setBasis(*c.seed);
    for (const std::size_t i : c.indices) {
      applyDemand(solver, *c.tpl, *mats[i]);
      out[i] = solveAlpha(solver, *c.tpl);
    }
  });
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (shift[i] != 0) out[i] = std::ldexp(out[i], -shift[i]);
  }
  return out;
}

double OptuEngine::utilizationAt(std::size_t slot,
                                 const tm::TrafficMatrix& d,
                                 std::vector<double>* weights) {
  // The capacity prices are scale-free.
  if (const int k = rescaleExponent(d); k != 0) {
    return std::ldexp(utilizationAt(slot, rescaled(d, k), weights), -k);
  }
  const std::vector<char> active = activeSignature(d);
  const std::lock_guard<std::mutex> lock(mutex_);
  const NodeId sole = soleDestination(active);
  if (sole >= 0) {
    if (weights != nullptr) weights->clear();
    return singleSinkUtilization(sole, d);
  }
  Template& t = serialFor(active, d);
  // Installed after the rhs edits, so the dual simplex judges the slot's
  // basis by how many of its basics the new matrix violates: after a
  // link flap or a demand step usually few, and the dual repairs them
  // where the previous slot's basis would need a long phase 1.
  if (slot < t.slot_basis.size() && !t.slot_basis[slot].empty()) {
    t.serial->setBasis(t.slot_basis[slot]);
  }
  const double u = solveAlpha(*t.serial, t, weights);
  if (t.slot_basis.size() <= slot) t.slot_basis.resize(slot + 1);
  t.slot_basis[slot] = t.serial->basis();
  return u;
}

std::pair<double, std::vector<std::vector<double>>>
OptuEngine::utilizationWithFlows(const tm::TrafficMatrix& d) {
  if (const int k = rescaleExponent(d); k != 0) {
    auto [alpha, flows] = utilizationWithFlows(rescaled(d, k));
    for (auto& row : flows) {
      for (double& f : row) f = std::ldexp(f, -k);
    }
    return {std::ldexp(alpha, -k), std::move(flows)};
  }
  const std::vector<char> active = activeSignature(d);
  const std::lock_guard<std::mutex> lock(mutex_);
  Template& t = serialFor(active, d);
  const lp::LpResult res = t.serial->solve();
  if (res.status != lp::Status::kOptimal) {
    throw std::runtime_error("OPTU LP not optimal: " +
                             lp::toString(res.status));
  }
  const int n = g_.numNodes();
  std::vector<std::vector<double>> flows(n);
  for (NodeId dest = 0; dest < n; ++dest) {
    if (!t.active[dest]) continue;
    flows[dest].assign(g_.numEdges(), 0.0);
    for (std::size_t j = 0; j < t.edges[dest].size(); ++j) {
      flows[dest][t.edges[dest][j]] =
          std::max(0.0, res.x[t.block[dest].vars[j]]);
    }
  }
  return {res.x[t.alpha], std::move(flows)};
}

OptuDualBound::OptuDualBound(const Graph& g, const std::vector<double>& pi)
    : n_(g.numNodes()) {
  require(static_cast<int>(pi.size()) == g.numEdges(),
          "weights/graph size mismatch");
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    require(pi[e] >= 0.0, "negative edge weight");
    if (g.edge(e).capacity > 0.0) budget_ += pi[e] * g.edge(e).capacity;
  }
  dist_.reserve(static_cast<std::size_t>(n_) * n_);
  for (NodeId t = 0; t < n_; ++t) {
    const ShortestPathsToDest sp = shortestPathsTo(g, t, pi);
    dist_.insert(dist_.end(), sp.dist.begin(), sp.dist.end());
  }
}

double OptuDualBound::of(const tm::TrafficMatrix& d) const {
  require(d.numNodes() == n_, "matrix/graph size mismatch");
  if (budget_ <= 0.0) return 0.0;
  double paid = 0.0;
  for (NodeId t = 0; t < n_; ++t) {
    for (NodeId s = 0; s < n_; ++s) {
      const double dist = dist_[static_cast<std::size_t>(t) * n_ + s];
      if (s != t && d.at(s, t) > 0.0 && dist < lp::kInfinity) {
        paid += d.at(s, t) * dist;
      }
    }
  }
  return paid / budget_;
}

namespace {

/// Non-owning shared_ptr view for the by-reference entry points.
std::shared_ptr<const DagSet> borrow(const DagSet& dags) {
  return {std::shared_ptr<void>(), &dags};
}

}  // namespace

double optimalUtilization(const Graph& g, const DagSet& dags,
                          const tm::TrafficMatrix& d,
                          const lp::SimplexOptions& opt) {
  OptuEngine engine(g, borrow(dags), opt);
  return engine.utilization(d);
}

double optimalUtilizationUnrestricted(const Graph& g,
                                      const tm::TrafficMatrix& d,
                                      const lp::SimplexOptions& opt) {
  OptuEngine engine(g, opt);
  return engine.utilization(d);
}

OptimalRouting optimalRoutingForDemand(const Graph& g,
                                       std::shared_ptr<const DagSet> dags,
                                       const tm::TrafficMatrix& d,
                                       const lp::SimplexOptions& opt) {
  require(dags != nullptr, "null dag set");
  OptuEngine engine(g, dags, opt);
  auto [alpha, flows] = engine.utilizationWithFlows(d);

  RoutingConfig cfg(g, dags);
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    if (flows[t].empty()) continue;
    const Dag& dag = (*dags)[t];
    for (NodeId u = 0; u < g.numNodes(); ++u) {
      if (u == t) continue;
      const auto& out = dag.outEdges(u);
      double sum = 0.0;
      for (const EdgeId e : out) sum += flows[t][e];
      if (!(sum > 0.0)) continue;  // normalize() fills in uniform defaults
      for (const EdgeId e : out) cfg.setRatio(t, e, flows[t][e] / sum);
    }
  }
  cfg.normalize(g);
  cfg.validate(g);
  return {alpha, std::move(cfg)};
}

}  // namespace coyote::routing
