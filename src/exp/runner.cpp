#include "exp/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "core/local_search.hpp"
#include "core/splitting_optimizer.hpp"
#include "failure/evaluate.hpp"
#include "failure/scenario.hpp"
#include "fibbing/lie_synthesis.hpp"
#include "fibbing/ospf_model.hpp"
#include "hardness/gadgets.hpp"
#include "lp/stats.hpp"
#include "routing/ecmp.hpp"
#include "routing/propagation.hpp"
#include "routing/stretch.hpp"
#include "scheme/registry.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"
#include "sim/fluid.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "util/mem.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace coyote::exp {

namespace json = util::json;

namespace {

// Output of one scenario execution: JSON rows plus kind-specific summary
// members merged into the document, and the pass/fail verdict.
struct KindOutput {
  json::Value rows = json::Value::array();
  json::Value extra = json::Value::object();
  /// Members merged into the machine-dependent "timing" block (exempt
  /// from the bench_compare drift gate; kServe puts throughput and
  /// latency percentiles here, where they are regression-gated instead).
  json::Value timing_extra = json::Value::object();
  bool ok = true;
};

/// The scheme list a scheme-comparison scenario sweeps: the --schemes
/// selection, or the registry defaults (the paper's four). The CLI
/// validated the keys already; re-resolving here keeps library callers
/// honest (unknown keys throw, naming the key).
std::vector<const te::Scheme*> selectedSchemes(const RunOptions& opt) {
  return te::SchemeRegistry::builtin().resolve(opt.schemes);
}

std::string formatMargin(double margin) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", margin);
  return buf;
}

json::Value schemeRowJson(const std::vector<const te::Scheme*>& schemes,
                          const SchemeRow& r) {
  json::Value row = json::Value::object();
  row["margin"] = r.margin;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    row[schemes[i]->key()] = r.ratio[i];
  }
  // Solver-work telemetry; `lp_`-prefixed fields (the per-margin totals
  // and the per-scheme breakdown objects) are exempt from the
  // bench_compare drift gate (pivot counts are toolchain-sensitive).
  row["lp_solves"] = static_cast<double>(r.lp_solves);
  row["lp_pivots"] = static_cast<double>(r.lp_pivots);
  json::Value solves = json::Value::object();
  json::Value pivots = json::Value::object();
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    solves[schemes[i]->key()] = static_cast<double>(r.scheme_lp_solves[i]);
    pivots[schemes[i]->key()] = static_cast<double>(r.scheme_lp_pivots[i]);
  }
  row["lp_scheme_solves"] = std::move(solves);
  row["lp_scheme_pivots"] = std::move(pivots);
  return row;
}

// --- kSchemes (Figs. 6-8 and the zoo/synthetic extension grid) --------

KindOutput runSchemes(const Scenario& s, const RunOptions& opt, bool print) {
  KindOutput out;
  const Graph g = s.topology.build();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = s.demand.build(g);
  const std::vector<const te::Scheme*> schemes = selectedSchemes(opt);

  SweepOptions sopt = s.sweep;
  sopt.exact_oracle = sopt.exact_oracle || opt.exact;
  if (opt.exact && s.exact_env_upgrades_eval) sopt.exact_eval = true;

  const SchemeTable table(schemes, {{"margin", 8}});
  if (print) {
    printSweepPreamble(s.topology.label().c_str(), s.demand.name());
    table.printHeader();
  }
  const NetworkSweep sweep(g, dags, base, sopt, schemes);
  for (const double margin : s.grid(opt.full)) {
    const SchemeRow r = sweep.run(margin);
    if (print) {
      table.printRow({formatMargin(r.margin)}, r.ratio);
      std::fflush(stdout);
    }
    out.rows.push_back(schemeRowJson(schemes, r));
  }
  return out;
}

// --- kTable (Table I) -------------------------------------------------

KindOutput runTable(const Scenario& s, const RunOptions& opt, bool print) {
  KindOutput out;
  const std::vector<double>& margins = s.grid(opt.full);
  const std::vector<const te::Scheme*> schemes = selectedSchemes(opt);
  const SchemeTable table(schemes, {{"network", 14}, {"margin", 8}});
  if (print) {
    std::printf("# Table I: gravity base model, margins");
    for (const double m : margins) std::printf(" %.1f", m);
    std::printf("\n# networks with <= %d nodes use the exact slave-LP "
                "adversary ('+'); larger ones the corner pool\n",
                s.exact_node_limit);
    table.printHeader();
  }

  for (const std::string& name : s.networkList(opt.full)) {
    const Graph g = topo::makeZoo(name);
    const auto dags = core::augmentedDagsShared(g);
    const tm::TrafficMatrix base = s.demand.build(g);

    SweepOptions sopt = s.sweep;
    sopt.exact_eval =
        (s.exact_node_limit > 0 && g.numNodes() <= s.exact_node_limit) ||
        (opt.exact && s.exact_env_upgrades_eval);
    sopt.exact_oracle = sopt.exact_eval || opt.exact;

    const NetworkSweep sweep(g, dags, base, sopt, schemes);
    const std::string label = name + (sopt.exact_eval ? "+" : "");
    for (const double margin : margins) {
      const SchemeRow r = sweep.run(margin);
      if (print) {
        table.printRow({label, formatMargin(r.margin)}, r.ratio);
        std::fflush(stdout);
      }
      json::Value row = schemeRowJson(schemes, r);
      row["network"] = name;
      row["exact"] = sopt.exact_eval;
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

// --- kLocalSearch (Fig. 9) --------------------------------------------

KindOutput runLocalSearch(const Scenario& s, const RunOptions& opt,
                          bool print) {
  KindOutput out;
  const Graph base_graph = s.topology.build();
  const tm::TrafficMatrix base = s.demand.build(base_graph);

  if (print) {
    std::printf("# %s, %s base matrix, local-search weights\n",
                s.topology.label().c_str(), s.demand.name());
    std::printf("%-8s %-8s %-12s %-8s %-10s\n", "margin", "ECMP", "COYOTE-pk",
                "moves", "ECMP/pk");
  }

  double gap_sum = 0.0;
  int gap_rows = 0;
  for (const double margin : s.grid(opt.full)) {
    const tm::DemandBounds box = tm::marginBounds(base, margin);

    core::LocalSearchOptions ls = s.local_search;
    if (opt.full) ls.max_moves_per_round = s.ls_full_moves;
    const core::LocalSearchResult found =
        core::localSearchWeights(base_graph, box, ls);

    Graph g = base_graph;
    for (EdgeId e = 0; e < g.numEdges(); ++e) g.setWeight(e, found.weights[e]);
    const auto dags = core::augmentedDagsShared(g);

    routing::PerformanceEvaluator pool(g, dags);
    tm::PoolOptions popt;
    popt.source_hotspots = false;
    popt.random_corners = 6;
    pool.addPool(tm::cornerPool(box, popt));

    core::CoyoteOptions copt;
    copt.splitting.iterations = 300;
    copt.oracle_rounds = 2;  // Abilene-scale: exact cutting planes are cheap
    const core::CoyoteResult pk_res =
        core::optimizeAgainstPool(g, pool, &box, copt);
    // Exact within-box worst case for both schemes (one slave LP per edge).
    const double ecmp =
        routing::findWorstCaseDemand(g, routing::ecmpConfig(g, dags), &box)
            .ratio;
    const double pk =
        routing::findWorstCaseDemand(g, pk_res.routing, &box).ratio;

    if (print) {
      std::printf("%-8.1f %-8.2f %-12.2f %-8d %-10.2f\n", margin, ecmp, pk,
                  found.accepted_moves, ecmp / pk);
      std::fflush(stdout);
    }
    // Distance-from-optimum comparison; margin 1 rows are excluded (both
    // schemes sit at the optimum and the quotient degenerates).
    if (pk > 1.02) {
      gap_sum += (ecmp - 1.0) / (pk - 1.0);
      ++gap_rows;
    }

    json::Value row = json::Value::object();
    row["margin"] = margin;
    row["ecmp"] = ecmp;
    row["partial"] = pk;
    row["moves"] = found.accepted_moves;
    row["ecmp_over_partial"] = ecmp / pk;
    out.rows.push_back(std::move(row));
  }
  if (gap_rows > 0) {
    const double avg_gap = 100.0 * gap_sum / gap_rows;
    if (print) {
      std::printf(
          "# ECMP's average distance-from-optimum is %.0f%% of COYOTE's "
          "(paper: ~180%%)\n",
          avg_gap);
    }
    out.extra["ecmp_gap_percent"] = avg_gap;
  }
  return out;
}

// --- kQuantization (Fig. 10) ------------------------------------------

KindOutput runQuantization(const Scenario& s, const RunOptions& opt,
                           bool print) {
  KindOutput out;
  const Graph g = s.topology.build();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = s.demand.build(g);

  if (print) {
    std::printf("# %s, %s base matrix: ECMP vs quantized COYOTE\n",
                s.topology.label().c_str(), s.demand.name());
    std::printf("%-8s %-8s", "margin", "ECMP");
    for (const int k : s.quantize_multiplicities) {
      std::printf(" %-12s", ("COYOTE-" + std::to_string(k) + "NH").c_str());
    }
    std::printf(" %-12s\n", "COYOTE-ideal");
  }

  for (const double margin : s.grid(opt.full)) {
    const tm::DemandBounds box = tm::marginBounds(base, margin);
    routing::PerformanceEvaluator pool(g, dags);
    pool.addPool(tm::cornerPool(box, s.sweep.pool));

    const double ecmp = pool.ratioFor(routing::ecmpConfig(g, dags));
    const core::CoyoteResult ideal =
        core::optimizeAgainstPool(g, pool, &box, s.sweep.coyote);

    json::Value row = json::Value::object();
    row["margin"] = margin;
    row["ecmp"] = ecmp;
    if (print) std::printf("%-8.1f %-8.2f", margin, ecmp);
    json::Value quantized = json::Value::object();
    // k virtual links per interface allow multiplicity k+1 per next-hop.
    for (const int k : s.quantize_multiplicities) {
      const double rk =
          pool.ratioFor(fib::quantizeConfig(g, ideal.routing, k + 1));
      if (print) std::printf(" %-12.2f", rk);
      quantized[std::to_string(k)] = rk;
    }
    if (print) {
      std::printf(" %-12.2f\n", ideal.pool_ratio);
      std::fflush(stdout);
    }
    row["quantized"] = std::move(quantized);
    row["ideal"] = ideal.pool_ratio;
    out.rows.push_back(std::move(row));
  }
  return out;
}

// --- kStretch (Fig. 11) -----------------------------------------------

KindOutput runStretch(const Scenario& s, const RunOptions& opt, bool print) {
  KindOutput out;
  if (print) {
    std::printf("# average path stretch vs ECMP, margin %.1f\n",
                s.fixed_margin);
    std::printf("%-14s %-16s %-18s\n", "network", "COYOTE-obl", "COYOTE-pk");
  }

  for (const std::string& name : s.networkList(opt.full)) {
    const Graph g = topo::makeZoo(name);
    const auto dags = core::augmentedDagsShared(g);
    const tm::TrafficMatrix base = s.demand.build(g);
    const tm::DemandBounds box = tm::marginBounds(base, s.fixed_margin);

    const routing::RoutingConfig ecmp = routing::ecmpConfig(g, dags);
    const core::CoyoteOptions& copt = s.sweep.coyote;
    const core::CoyoteResult obl = core::coyoteOblivious(g, dags, copt);
    const core::CoyoteResult pk = core::coyoteWithBounds(g, dags, box, copt);

    const double obl_stretch = routing::averageStretch(g, obl.routing, ecmp);
    const double pk_stretch = routing::averageStretch(g, pk.routing, ecmp);
    if (print) {
      std::printf("%-14s %-16.3f %-18.3f\n", name.c_str(), obl_stretch,
                  pk_stretch);
      std::fflush(stdout);
    }
    json::Value row = json::Value::object();
    row["network"] = name;
    row["oblivious"] = obl_stretch;
    row["partial"] = pk_stretch;
    out.rows.push_back(std::move(row));
  }
  return out;
}

// --- kPrototype (Fig. 12) ---------------------------------------------

struct PrototypeSchedule {
  NodeId s1, s2;
  void install(sim::FluidNetwork& net) const {
    net.addFlow({s2, 1, 2.0, 0.0, 15.0});   // scenario 1: (0, 2)
    net.addFlow({s1, 0, 1.0, 15.0, 30.0});  // scenario 2: (1, 1)
    net.addFlow({s2, 1, 1.0, 15.0, 30.0});
    net.addFlow({s1, 0, 2.0, 30.0, 45.0});  // scenario 3: (2, 0)
  }
};

json::Value prototypeReport(const char* scheme,
                            const std::vector<sim::StepStats>& stats,
                            bool print) {
  if (print) std::printf("%-8s drop%%/s:", scheme);
  json::Value drops = json::Value::array();
  double sent = 0.0, del = 0.0;
  for (const auto& st : stats) {
    if (print) std::printf(" %3.0f", 100.0 * st.dropRate());
    drops.push_back(100.0 * st.dropRate());
    sent += st.sent;
    del += st.delivered;
  }
  const double dropped_percent = 100.0 * (1.0 - del / sent);
  if (print) {
    std::printf("  | total sent %.0f Mb, dropped %.0f%%\n", sent,
                dropped_percent);
  }
  json::Value row = json::Value::object();
  row["scheme"] = scheme;
  row["drop_percent_per_second"] = std::move(drops);
  row["sent_mb"] = sent;
  row["dropped_percent"] = dropped_percent;
  return row;
}

KindOutput runPrototype(const Scenario&, const RunOptions&, bool print) {
  KindOutput out;
  const Graph g = topo::prototypeTriangle();
  const NodeId s1 = *g.findNode("s1");
  const NodeId s2 = *g.findNode("s2");
  const NodeId t = *g.findNode("t");
  const EdgeId s1t = *g.findEdge(s1, t);
  const EdgeId s2t = *g.findEdge(s2, t);
  const EdgeId s1s2 = *g.findEdge(s1, s2);
  const EdgeId s2s1 = *g.findEdge(s2, s1);
  const PrototypeSchedule sched{s1, s2};

  if (print) {
    std::printf("# Fig. 12: 1 Mbps links; 3 x 15 s scenarios "
                "(0,2) -> (1,1) -> (2,0) Mbps; 1 s bins\n");
  }

  {  // TE1: both sources route directly (single shared DAG).
    sim::FluidNetwork net(g);
    for (const sim::PrefixId p : {0, 1}) {
      net.setPrefixOwner(p, t);
      net.setForwarding(p, s1, {{s1t, 1.0}});
      net.setForwarding(p, s2, {{s2t, 1.0}});
    }
    sched.install(net);
    out.rows.push_back(prototypeReport("TE1", net.run(45.0, 1.0), print));
  }
  {  // TE2: s1 splits via s2; s2 direct (still one DAG for both prefixes).
    sim::FluidNetwork net(g);
    for (const sim::PrefixId p : {0, 1}) {
      net.setPrefixOwner(p, t);
      net.setForwarding(p, s1, {{s1t, 0.5}, {s1s2, 0.5}});
      net.setForwarding(p, s2, {{s2t, 1.0}});
    }
    sched.install(net);
    out.rows.push_back(prototypeReport("TE2", net.run(45.0, 1.0), print));
  }
  {  // COYOTE: per-prefix DAGs (t1 split at s1, t2 split at s2).
    sim::FluidNetwork net(g);
    net.setPrefixOwner(0, t);
    net.setPrefixOwner(1, t);
    net.setForwarding(0, s1, {{s1t, 0.5}, {s1s2, 0.5}});
    net.setForwarding(0, s2, {{s2t, 1.0}});
    net.setForwarding(1, s2, {{s2t, 0.5}, {s2s1, 0.5}});
    net.setForwarding(1, s1, {{s1t, 1.0}});
    sched.install(net);
    out.rows.push_back(prototypeReport("COYOTE", net.run(45.0, 1.0), print));
  }

  // The COYOTE forwarding above is exactly what the lie-synthesis layer
  // realizes on unmodified OSPF/ECMP routers: verify it.
  fib::OspfModel model(g);
  model.advertisePrefix(0, t);
  model.advertisePrefix(1, t);
  const auto mkDags = [&](bool split_at_s1) {
    DagSet ds;
    for (NodeId d = 0; d < g.numNodes(); ++d) {
      std::vector<EdgeId> edges;
      if (d == t) {
        edges = split_at_s1 ? std::vector<EdgeId>{s1t, s2t, s1s2}
                            : std::vector<EdgeId>{s1t, s2t, s2s1};
      }
      ds.emplace_back(g, d, std::move(edges));
    }
    return std::make_shared<const DagSet>(std::move(ds));
  };
  auto cfg1 = routing::RoutingConfig(g, mkDags(true));
  cfg1.setRatio(t, s1t, 0.5);
  cfg1.setRatio(t, s1s2, 0.5);
  cfg1.setRatio(t, s2t, 1.0);
  auto cfg2 = routing::RoutingConfig(g, mkDags(false));
  cfg2.setRatio(t, s2t, 0.5);
  cfg2.setRatio(t, s2s1, 0.5);
  cfg2.setRatio(t, s1t, 1.0);
  const fib::LiePlan plan1 = fib::synthesizeLies(g, cfg1, t, 0, 4);
  const fib::LiePlan plan2 = fib::synthesizeLies(g, cfg2, t, 1, 4);
  fib::applyPlan(model, plan1);
  fib::applyPlan(model, plan2);
  const bool ok = fib::verifyRealization(model, cfg1, t, 0, 4) &&
                  fib::verifyRealization(model, cfg2, t, 1, 4) &&
                  model.forwardingIsLoopFree(0) &&
                  model.forwardingIsLoopFree(1);
  if (print) {
    std::printf("# OSPF lies realizing COYOTE's per-prefix DAGs: %d fake "
                "nodes, verified: %s\n",
                model.fakeNodeCount(), ok ? "yes" : "NO");
  }
  out.extra["fake_nodes"] = model.fakeNodeCount();
  out.extra["verified"] = ok;
  out.ok = ok;
  return out;
}

// --- kDagAug ----------------------------------------------------------

KindOutput runDagAug(const Scenario& s, const RunOptions& opt, bool print) {
  KindOutput out;
  if (print) {
    std::printf("# COYOTE-pk ratio, margin %.1f: shortest-path DAGs vs "
                "augmented DAGs\n",
                s.fixed_margin);
    std::printf("%-14s %-10s %-10s %-10s\n", "network", "SP-DAGs",
                "augmented", "ECMP");
  }

  for (const std::string& name : s.networkList(opt.full)) {
    const Graph g = topo::makeZoo(name);
    const auto aug = core::augmentedDagsShared(g);
    const auto sp =
        std::make_shared<const DagSet>(routing::shortestPathDags(g));
    const tm::TrafficMatrix base = s.demand.build(g);
    const tm::DemandBounds box = tm::marginBounds(base, s.fixed_margin);

    const tm::PoolOptions& popt = s.sweep.pool;
    const core::CoyoteOptions& copt = s.sweep.coyote;

    // Shared evaluation pool (normalized within the augmented DAGs).
    routing::PerformanceEvaluator eval(g, aug);
    eval.addPool(tm::cornerPool(box, popt));

    // COYOTE over shortest-path DAGs only.
    routing::PerformanceEvaluator sp_pool(g, sp);
    sp_pool.addPool(tm::cornerPool(box, popt));
    const auto sp_cfg = core::optimizeAgainstPool(g, sp_pool, &box, copt);

    // COYOTE over augmented DAGs.
    routing::PerformanceEvaluator aug_pool(g, aug);
    aug_pool.addPool(tm::cornerPool(box, popt));
    const auto aug_cfg = core::optimizeAgainstPool(g, aug_pool, &box, copt);

    // Evaluate all on the shared pool. The SP-DAG config is valid over the
    // augmented DAGs too (SP edges are a subset).
    routing::RoutingConfig sp_on_aug(g, aug);
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      for (const EdgeId e : (*sp)[t].edges()) {
        sp_on_aug.setRatio(t, e, sp_cfg.routing.ratio(t, e));
      }
    }
    sp_on_aug.normalize(g);

    const double sp_ratio = eval.ratioFor(sp_on_aug);
    const double aug_ratio = eval.ratioFor(aug_cfg.routing);
    const double ecmp_ratio = eval.ratioFor(routing::ecmpConfig(g, aug));
    if (print) {
      std::printf("%-14s %-10.2f %-10.2f %-10.2f\n", name.c_str(), sp_ratio,
                  aug_ratio, ecmp_ratio);
      std::fflush(stdout);
    }
    json::Value row = json::Value::object();
    row["network"] = name;
    row["sp_dags"] = sp_ratio;
    row["augmented"] = aug_ratio;
    row["ecmp"] = ecmp_ratio;
    out.rows.push_back(std::move(row));
  }
  return out;
}

// --- kOptimizer -------------------------------------------------------

double optimizerRunOnce(const Graph& g,
                        const routing::PerformanceEvaluator& eval,
                        core::SplitMethod method, int iterations) {
  core::SplittingOptions opt;
  opt.method = method;
  opt.iterations = iterations;
  const auto cfg = core::optimizeSplitting(
      g, eval, routing::RoutingConfig::uniform(g, eval.dagsPtr()), opt);
  return eval.ratioFor(cfg);
}

KindOutput runOptimizer(const Scenario&, const RunOptions&, bool print) {
  KindOutput out;
  if (print) {
    std::printf("# inner-optimizer ablation: pool ratio vs iterations\n");
    std::printf("%-16s %-8s %-14s %-14s\n", "instance", "iters",
                "GP-condens.", "mirror-desc.");
  }

  const auto record = [&](const char* instance, int iters, double gp,
                          double mirror) {
    if (print) {
      std::printf("%-16s %-8d %-14.4f %-14.4f\n", instance, iters, gp,
                  mirror);
      std::fflush(stdout);
    }
    json::Value row = json::Value::object();
    row["instance"] = instance;
    row["iterations"] = iters;
    row["gp_condensation"] = gp;
    row["mirror_descent"] = mirror;
    out.rows.push_back(std::move(row));
  };

  {  // Running example: optimum is sqrt(5)-1 ~ 1.2361.
    const Graph g = topo::runningExample();
    const auto dags = core::augmentedDagsShared(g);
    routing::PerformanceEvaluator eval(g, dags);
    tm::TrafficMatrix d1(g.numNodes()), d2(g.numNodes());
    d1.set(*g.findNode("s1"), *g.findNode("t"), 2.0);
    d2.set(*g.findNode("s2"), *g.findNode("t"), 2.0);
    eval.addMatrix(d1);
    eval.addMatrix(d2);
    for (const int iters : {50, 200, 800, 2000}) {
      record("running-example", iters,
             optimizerRunOnce(g, eval, core::SplitMethod::kGpCondensation,
                              iters),
             optimizerRunOnce(g, eval, core::SplitMethod::kMirrorDescent,
                              iters));
    }
    if (print) {
      std::printf("%-16s %-8s %-14.4f (closed form)\n", "running-example",
                  "optimal", std::sqrt(5.0) - 1.0);
    }
    out.extra["closed_form_optimum"] = std::sqrt(5.0) - 1.0;
  }
  {  // Abilene, margin-2 corner pool.
    const Graph g = topo::makeZoo("Abilene");
    const auto dags = core::augmentedDagsShared(g);
    routing::PerformanceEvaluator eval(g, dags);
    tm::PoolOptions popt;
    popt.source_hotspots = false;
    popt.random_corners = 4;
    eval.addPool(tm::cornerPool(
        tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0), popt));
    for (const int iters : {50, 200, 800}) {
      record("abilene-m2", iters,
             optimizerRunOnce(g, eval, core::SplitMethod::kGpCondensation,
                              iters),
             optimizerRunOnce(g, eval, core::SplitMethod::kMirrorDescent,
                              iters));
    }
  }
  return out;
}

// --- kHardness --------------------------------------------------------

KindOutput runHardness(const Scenario&, const RunOptions&, bool print) {
  KindOutput out;
  if (print) {
    std::printf("# BIPARTITION reduction (Theorem 1 / Lemmas 2-3)\n");
    std::printf("%-16s %-12s %-22s\n", "integer set", "positive?",
                "best oblivious ratio");
  }
  struct Case {
    std::vector<double> w;
    bool positive;
  };
  const std::vector<Case> cases = {
      {{1, 1}, true},   {{1, 1, 2}, true},  {{2, 3, 5}, true},
      {{1, 3}, false},  {{1, 1, 3}, false}, {{2, 3, 6}, false},
  };
  for (const auto& c : cases) {
    const hardness::BipartitionInstance inst =
        hardness::makeBipartitionInstance(c.w);
    const auto [d1, d2] = hardness::extremeDemands(inst);
    double best = std::numeric_limits<double>::infinity();
    const int k = static_cast<int>(c.w.size());
    for (int mask = 0; mask < (1 << k); ++mask) {
      std::vector<bool> orient(k);
      for (int i = 0; i < k; ++i) orient[i] = (mask >> i) & 1;
      const auto dags = hardness::bipartitionDags(inst, orient);
      routing::PerformanceEvaluator eval(
          inst.graph, dags, {}, routing::Normalization::kUnrestricted);
      eval.addMatrix(d1);
      eval.addMatrix(d2);
      core::SplittingOptions sopt;
      sopt.iterations = 600;
      const auto cfg = core::optimizeSplitting(
          inst.graph, eval,
          routing::RoutingConfig::uniform(inst.graph, dags), sopt);
      best = std::min(best, eval.ratioFor(cfg));
    }
    std::string wstr;
    for (const double wi : c.w) {
      wstr += std::to_string(static_cast<int>(wi)) + " ";
    }
    if (print) {
      std::printf("%-16s %-12s %.4f  (4/3 = 1.3333)\n", wstr.c_str(),
                  c.positive ? "yes" : "no", best);
      std::fflush(stdout);
    }
    json::Value row = json::Value::object();
    row["kind"] = "bipartition";
    row["integer_set"] = wstr;
    row["positive"] = c.positive;
    row["best_oblivious_ratio"] = best;
    out.rows.push_back(std::move(row));
  }

  if (print) {
    std::printf("\n# Omega(|V|) gap (Theorem 4): path instance\n");
    std::printf("%-6s %-24s\n", "n", "oblivious ratio (= n)");
  }
  for (const int n : {2, 4, 8, 16, 32}) {
    const hardness::PathInstance inst = hardness::makePathInstance(n);
    const auto direct = hardness::allDirectRouting(inst);
    double worst = 0.0;
    for (const auto& d : hardness::pathDemands(inst)) {
      const double mxlu = routing::maxLinkUtilization(inst.graph, direct, d);
      const double optu =
          routing::optimalUtilizationUnrestricted(inst.graph, d);
      worst = std::max(worst, mxlu / optu);
    }
    if (print) {
      std::printf("%-6d %.2f\n", n, worst);
      std::fflush(stdout);
    }
    json::Value row = json::Value::object();
    row["kind"] = "path-gap";
    row["n"] = n;
    row["oblivious_ratio"] = worst;
    out.rows.push_back(std::move(row));
  }
  return out;
}

// --- kFailure (src/failure/: post-failure four-scheme sweep) ----------

KindOutput runFailure(const Scenario& s, const RunOptions& opt, bool print) {
  KindOutput out;
  const Graph g = s.topology.build();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = s.demand.build(g);
  const std::vector<const te::Scheme*> schemes = selectedSchemes(opt);

  std::vector<failure::FailureScenario> fails;
  switch (s.failure.model) {
    case FailureSpec::Model::kSingleLink:
      fails = failure::singleLinkFailures(g);
      break;
    case FailureSpec::Model::kDoubleLink:
      fails = failure::sampledDoubleLinkFailures(g, s.failure.double_samples,
                                                 s.failure.seed);
      break;
    case FailureSpec::Model::kSrlg:
      fails = failure::srlgFailures(g, failure::derivedSrlgs(g));
      break;
  }

  failure::FailureEvalOptions fopt;
  fopt.margin = s.fixed_margin;
  fopt.coyote = s.sweep.coyote;
  fopt.schemes = schemes;
  const failure::FailureEvaluator eval(g, dags, base, fopt);
  const failure::FailureSweepResult res = eval.evaluate(fails);

  const int n = static_cast<int>(schemes.size());
  const SchemeTable table(schemes, {{"failed", 24}});
  if (print) {
    std::printf("# %s, %s base matrix -- %s failure sweep, margin %.1f\n",
                s.topology.label().c_str(), s.demand.name(),
                s.failure.name(), s.fixed_margin);
    std::printf("# post-failure ratios: worst over the corner pool, "
                "normalized by the unrestricted optimum on the surviving "
                "network\n");
    table.printHeader();
  }

  for (const failure::FailureOutcome& o : res.outcomes) {
    json::Value row = json::Value::object();
    row["label"] = o.label;
    row["evaluated"] = o.evaluated;
    row["disconnected_pairs"] = o.disconnected_pairs;
    if (!o.evaluated) {
      if (print) {
        std::printf("%-24s (disconnects %d demand pair(s))\n",
                    o.label.c_str(), o.disconnected_pairs);
      }
    } else {
      json::Value unroutable = json::Value::array();
      for (int i = 0; i < n; ++i) {
        const char* key = schemes[i]->key();
        if (o.routable[i]) {
          row[key] = o.ratio[i];
        } else {
          unroutable.push_back(key);
        }
      }
      row["unroutable"] = std::move(unroutable);
      if (print) table.printRow({o.label}, o.ratio, &o.routable);
    }
    if (print) std::fflush(stdout);
    out.rows.push_back(std::move(row));
  }

  json::Value block = json::Value::object();
  block["model"] = s.failure.name();
  block["margin"] = s.fixed_margin;
  block["scenarios"] = static_cast<int>(res.outcomes.size());
  block["evaluated"] = res.evaluated;
  block["disconnecting"] = res.disconnecting;
  block["disconnected_pairs"] = res.disconnected_pairs;
  block["pool_size"] = eval.poolSize();
  json::Value per_scheme = json::Value::object();
  for (const auto& [key, st] : res.schemes) {
    json::Value v = json::Value::object();
    v["worst"] = st.worst;
    v["median"] = st.median;
    v["p95"] = st.p95;
    v["evaluated"] = st.evaluated;
    v["unroutable"] = st.unroutable;
    per_scheme[key] = std::move(v);
  }
  block["schemes"] = std::move(per_scheme);
  out.extra["failures"] = std::move(block);

  if (print) {
    std::printf("# failures: %zu total, %d evaluated, %d disconnecting "
                "(%d demand pair(s) cut)\n",
                res.outcomes.size(), res.evaluated, res.disconnecting,
                res.disconnected_pairs);
    std::printf("# worst/median/p95:");
    for (const auto& [key, st] : res.schemes) {
      std::printf("  %s %.2f/%.2f/%.2f", key.c_str(), st.worst, st.median,
                  st.p95);
    }
    std::printf("\n");
  }
  return out;
}

// --- kServe (online TE daemon trace replay, src/serve/) ---------------

/// Nearest-rank percentile of an unsorted sample (q in [0,1]).
double percentileMs(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(n - 1, static_cast<std::size_t>(rank) - 1);
  return sample[idx];
}

KindOutput runServe(const Scenario& s, const RunOptions& opt, bool print) {
  KindOutput out;
  const Graph g = s.topology.build();
  const tm::TrafficMatrix base = s.demand.build(g);

  serve::TraceOptions topt;
  topt.events = s.serve_events;
  topt.seed = s.serve_seed;
  const std::vector<std::string> trace = serve::generateTrace(g, base, topt);

  serve::ServeOptions sopt;
  sopt.margin = s.fixed_margin;
  sopt.pool = s.sweep.pool;
  // Adopt the scenario's sweep options but keep the service's own
  // early-stop default: sweeps leave patience off (fixed budgets keep
  // their outputs comparable), while the daemon's warm reoptimize relies
  // on it to bank the saved iterations.
  const int serve_patience = sopt.coyote.splitting.patience;
  sopt.coyote = s.sweep.coyote;
  if (sopt.coyote.splitting.patience == 0) {
    sopt.coyote.splitting.patience = serve_patience;
  }
  sopt.schemes = selectedSchemes(opt);
  serve::TeService service(g, base, sopt);

  if (print) {
    std::printf("# %s, %s base matrix -- online TE daemon replay: %zu "
                "events, margin %.1f, pool %d\n",
                s.topology.label().c_str(), s.demand.name(), trace.size(),
                s.fixed_margin, service.poolSize());
  }

  const auto opOf = [](const std::string& line) -> std::string {
    try {
      return json::parse(line).stringOr("op", "");
    } catch (const std::exception&) {
      return "";
    }
  };

  // Replay in handleScript-shaped groups: maximal runs of consecutive
  // what-if queries batch over the thread pool, every other event is its
  // own serial group. Each event in a group is attributed the group's
  // mean latency (the batch answers them together).
  std::vector<double> latency_ms;
  latency_ms.reserve(trace.size());
  std::vector<std::string> responses;
  responses.reserve(trace.size());
  const util::Timer replay_timer;
  std::size_t i = 0;
  while (i < trace.size()) {
    std::size_t j = i + 1;
    if (opOf(trace[i]) == "what-if") {
      while (j < trace.size() && opOf(trace[j]) == "what-if") ++j;
    }
    const std::vector<std::string> group(trace.begin() + i, trace.begin() + j);
    const util::Timer timer;
    std::vector<std::string> resp = service.handleScript(group);
    const double per_event_ms =
        1000.0 * timer.elapsedSeconds() / static_cast<double>(group.size());
    for (std::string& r : resp) {
      latency_ms.push_back(per_event_ms);
      responses.push_back(std::move(r));
    }
    i = j;
  }
  const double replay_seconds = replay_timer.elapsedSeconds();

  // Per-op event counts (deterministic for a trace seed, so the rows are
  // drift-gated) and the error total (any ok:false response fails the
  // scenario: the generator only emits well-formed requests).
  static constexpr const char* kOps[] = {"state",  "demand",  "link",
                                         "margin", "what-if", "reoptimize"};
  constexpr int kNumOps = static_cast<int>(std::size(kOps));
  int counts[kNumOps] = {};
  for (const std::string& line : trace) {
    const std::string op = opOf(line);
    for (int k = 0; k < kNumOps; ++k) {
      if (op == kOps[k]) ++counts[k];
    }
  }
  int errors = 0;
  for (const std::string& r : responses) {
    try {
      const json::Value resp = json::parse(r);
      const json::Value* ok = resp.find("ok");
      if (ok == nullptr || !ok->isBool() || !ok->asBool()) ++errors;
    } catch (const std::exception&) {
      ++errors;
    }
  }
  out.ok = errors == 0;

  for (int k = 0; k < kNumOps; ++k) {
    json::Value row = json::Value::object();
    row["op"] = kOps[k];
    row["events"] = counts[k];
    out.rows.push_back(std::move(row));
  }

  // Post-replay ground truth: a no-failure what-if snapshots the final
  // service state (deterministic; drift-gated like any scheme ratio).
  json::Value probe = json::Value::object();
  probe["op"] = "what-if";
  probe["links"] = json::Value::array();
  const json::Value final_state = service.handle(probe);

  json::Value block = json::Value::object();
  block["events"] = static_cast<int>(trace.size());
  block["trace_seed"] = static_cast<double>(s.serve_seed);
  block["pool_size"] = service.poolSize();
  block["errors"] = errors;
  block["final_margin"] = service.margin();
  block["final_failed_links"] =
      static_cast<int>(service.failedLinks().size());
  // Splitting-optimizer budget the warm-seeded reoptimize events never
  // spent (previous-ratio seed + patience early stop; 0 when the trace
  // has no reoptimize events).
  block["reoptimize_saved_iters"] =
      static_cast<double>(service.reoptimizeSavedIters());
  for (const char* key : {"disconnected_pairs", "evaluated", "ratios",
                          "unroutable", "failed"}) {
    if (const json::Value* v = final_state.find(key)) {
      block[std::string("final_") + key] = *v;
    }
  }
  out.extra["serve"] = std::move(block);

  const double events_per_second =
      replay_seconds > 0.0 ? static_cast<double>(trace.size()) / replay_seconds
                           : 0.0;
  out.timing_extra["replay_seconds"] = replay_seconds;
  out.timing_extra["events_per_second"] = events_per_second;
  out.timing_extra["event_p50_ms"] = percentileMs(latency_ms, 0.50);
  out.timing_extra["event_p99_ms"] = percentileMs(latency_ms, 0.99);

  if (print) {
    std::printf("# events:");
    for (int k = 0; k < kNumOps; ++k) {
      std::printf(" %s %d", kOps[k], counts[k]);
    }
    std::printf("  (errors %d)\n", errors);
    std::printf("# throughput: %.1f events/s, latency p50 %.2f ms, "
                "p99 %.2f ms\n",
                events_per_second, percentileMs(latency_ms, 0.50),
                percentileMs(latency_ms, 0.99));
    std::printf("# reoptimize: %lld splitting iterations saved by warm "
                "starts\n",
                service.reoptimizeSavedIters());
    if (const json::Value* ratios = final_state.find("ratios")) {
      std::printf("# final ratios:");
      for (const auto& [key, v] : ratios->asObject()) {
        std::printf("  %s %.2f", key.c_str(), v.asNumber());
      }
      std::printf("\n");
    }
    std::fflush(stdout);
  }
  return out;
}

// --- kScaling (structured-generator size ladders) ---------------------

KindOutput runScaling(const Scenario& s, const RunOptions& opt, bool print) {
  KindOutput out;
  const std::vector<const te::Scheme*> schemes = selectedSchemes(opt);
  const SchemeTable table(schemes,
                          {{"rung", 18}, {"nodes", 7}, {"edges", 7}});
  if (print) {
    std::printf("# scaling curve: %zu rung(s), %s base model, margin %.1f\n",
                s.ladder.size(), s.demand.name(), s.fixed_margin);
    table.printHeader();
  }

  // Per-rung wall-clock goes under "timing" (machine-dependent, exempt
  // from the drift gate); the rows keep only deterministic fields plus
  // the lp_* / mem_* telemetry the gate already exempts.
  json::Value rung_seconds = json::Value::array();
  for (const TopologySpec& spec : s.ladder) {
    const util::Timer rung_timer;
    const Graph g = spec.build();
    const auto dags = core::augmentedDagsShared(g);
    const tm::TrafficMatrix base = s.demand.build(g);
    const NetworkSweep sweep(g, dags, base, s.sweep, schemes);
    const SchemeRow r = sweep.run(s.fixed_margin);
    const double seconds = rung_timer.elapsedSeconds();

    if (print) {
      table.printRow({spec.label(), std::to_string(g.numNodes()),
                      std::to_string(g.numEdges())},
                     r.ratio);
      std::printf("#   %s: %.2fs, peak RSS %.1f MiB\n", spec.label().c_str(),
                  seconds, util::peakRssMb());
      std::fflush(stdout);
    }
    json::Value row = schemeRowJson(schemes, r);
    row["rung"] = spec.label();
    row["nodes"] = g.numNodes();
    row["edges"] = g.numEdges();
    row["mem_peak_rss_mb"] = util::peakRssMb();
    out.rows.push_back(std::move(row));

    json::Value t = json::Value::object();
    t["rung"] = spec.label();
    t["seconds"] = seconds;
    rung_seconds.push_back(std::move(t));
  }
  out.timing_extra["rungs"] = std::move(rung_seconds);
  return out;
}

KindOutput runKind(const Scenario& s, const RunOptions& opt, bool print) {
  switch (s.kind) {
    case ScenarioKind::kSchemes:
      return runSchemes(s, opt, print);
    case ScenarioKind::kTable:
      return runTable(s, opt, print);
    case ScenarioKind::kLocalSearch:
      return runLocalSearch(s, opt, print);
    case ScenarioKind::kQuantization:
      return runQuantization(s, opt, print);
    case ScenarioKind::kStretch:
      return runStretch(s, opt, print);
    case ScenarioKind::kPrototype:
      return runPrototype(s, opt, print);
    case ScenarioKind::kDagAug:
      return runDagAug(s, opt, print);
    case ScenarioKind::kOptimizer:
      return runOptimizer(s, opt, print);
    case ScenarioKind::kHardness:
      return runHardness(s, opt, print);
    case ScenarioKind::kFailure:
      return runFailure(s, opt, print);
    case ScenarioKind::kServe:
      return runServe(s, opt, print);
    case ScenarioKind::kScaling:
      return runScaling(s, opt, print);
  }
  require(false, "unknown scenario kind");
  return {};  // unreachable
}

}  // namespace

double ScenarioResult::minSeconds() const {
  double m = std::numeric_limits<double>::infinity();
  for (const double s : seconds) m = std::min(m, s);
  return seconds.empty() ? 0.0 : m;
}

double ScenarioResult::medianSeconds() const {
  if (seconds.empty()) return 0.0;
  std::vector<double> sorted = seconds;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

std::string gitDescribe() {
  std::string out;
#if !defined(_WIN32)
  if (FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    ::pclose(pipe);
  }
#endif
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

ScenarioResult ExperimentRunner::run(const Scenario& s) const {
  ScenarioResult result;
  result.id = s.id;

  KindOutput output;
  const int total = std::max(1, opt_.repeat) + std::max(0, opt_.warmup);
  const int warmup = std::max(0, opt_.warmup);
  const lp::StatsSnapshot lp_start = lp::statsSnapshot();
  lp::StatsSnapshot lp_delta;   // last repetition (all reps do equal work)
  double last_elapsed = 0.0;
  for (int rep = 0; rep < total; ++rep) {
    // Deterministic results: print during the first execution only.
    const bool print = opt_.print && rep == 0;
    const lp::StatsSnapshot lp_before = lp::statsSnapshot();
    const util::Timer timer;
    output = runKind(s, opt_, print);
    const double elapsed = timer.elapsedSeconds();
    lp_delta = lp::statsSnapshot() - lp_before;
    last_elapsed = elapsed;
    if (print) std::printf("# elapsed: %.1fs\n", elapsed);
    if (rep >= warmup) result.seconds.push_back(elapsed);
  }
  result.ok = output.ok;

  // An LP hitting its iteration limit means some reported objective is not
  // the optimum -- a silent correctness failure, surfaced here as a hard
  // per-scenario error rather than a quietly-wrong BENCH row.
  const lp::StatsSnapshot lp_total = lp::statsSnapshot() - lp_start;
  if (lp_total.iter_limit_solves > 0) {
    std::fprintf(stderr,
                 "scenario %s: %lld LP solve(s) hit the iteration limit "
                 "(objectives are not optimal); failing the scenario\n",
                 s.id.c_str(),
                 static_cast<long long>(lp_total.iter_limit_solves));
    result.ok = false;
  }

  json::Value doc = json::Value::object();
  doc["schema"] = "coyote-bench/6";
  doc["scenario"] = s.id;
  doc["kind"] = kindName(s.kind);
  doc["description"] = s.description;
  json::Value tags = json::Value::array();
  for (const std::string& t : s.tags) tags.push_back(t);
  doc["tags"] = std::move(tags);
  doc["git"] = gitDescribe();
  doc["threads"] = static_cast<int>(util::ThreadPool::defaultThreads());
  doc["full"] = opt_.full;
  doc["exact"] = opt_.exact;
  // The scheme list the scheme-comparison kinds swept (run metadata, like
  // full/exact: it names the selection, the rows carry the values).
  switch (s.kind) {
    case ScenarioKind::kSchemes:
    case ScenarioKind::kTable:
    case ScenarioKind::kFailure:
    case ScenarioKind::kServe:
    case ScenarioKind::kScaling: {
      json::Value keys = json::Value::array();
      for (const te::Scheme* sch : selectedSchemes(opt_)) {
        keys.push_back(std::string(sch->key()));
      }
      doc["schemes"] = std::move(keys);
      break;
    }
    default:
      break;
  }
  switch (s.kind) {
    case ScenarioKind::kSchemes:
    case ScenarioKind::kLocalSearch:
    case ScenarioKind::kQuantization:
    case ScenarioKind::kServe:
      doc["network"] = s.topology.label();
      doc["demand_model"] = s.demand.name();
      break;
    case ScenarioKind::kFailure:
      doc["network"] = s.topology.label();
      doc["demand_model"] = s.demand.name();
      doc["failure_model"] = s.failure.name();
      break;
    case ScenarioKind::kTable:
    case ScenarioKind::kStretch:
    case ScenarioKind::kDagAug: {
      json::Value nets = json::Value::array();
      for (const std::string& n : s.networkList(opt_.full)) nets.push_back(n);
      doc["networks"] = std::move(nets);
      doc["demand_model"] = s.demand.name();
      break;
    }
    case ScenarioKind::kScaling: {
      json::Value rungs = json::Value::array();
      for (const TopologySpec& spec : s.ladder) {
        rungs.push_back(spec.label());
      }
      doc["ladder"] = std::move(rungs);
      doc["demand_model"] = s.demand.name();
      doc["margin"] = s.fixed_margin;
      break;
    }
    default:
      break;
  }
  doc["ok"] = result.ok;
  // Per-scenario LP work (one repetition's worth). The counts are
  // deterministic for a binary (and for any thread count); all lp_*
  // fields are exempt from the bench_compare drift gate. The wall-clock
  // share of the solver lands under "timing" with the other
  // machine-dependent data.
  doc["lp_solves"] = static_cast<double>(lp_delta.solves);
  doc["lp_pivots"] = static_cast<double>(lp_delta.iterations);
  doc["lp_phase1_pivots"] = static_cast<double>(lp_delta.phase1_iters);
  doc["lp_refactorizations"] =
      static_cast<double>(lp_delta.refactorizations);
  doc["lp_pricing_hits"] = static_cast<double>(lp_delta.pricing_hits);
  doc["lp_degen_rescues"] = static_cast<double>(lp_delta.degen_rescues);
  doc["lp_lu_updates"] = static_cast<double>(lp_delta.lu_updates);
  doc["lp_lu_fill"] = static_cast<double>(lp_delta.lu_fill);
  doc["lp_dual_pivots"] = static_cast<double>(lp_delta.dual_pivots);
  doc["lp_decomp_rounds"] = static_cast<double>(lp_delta.decomp_rounds);
  // Process peak RSS after the scenario ran (schema coyote-bench/6).
  // Monotonic over the process, so in a multi-scenario run each value
  // upper-bounds the scenario's own footprint; `mem_`-prefixed fields are
  // exempt from the drift gate and surfaced as [INFO] deltas instead.
  doc["mem_peak_rss_mb"] = util::peakRssMb();
  doc["rows"] = std::move(output.rows);
  for (auto& [key, value] : output.extra.asObject()) {
    doc[key] = value;
  }
  json::Value timing = json::Value::object();
  timing["repeat"] = std::max(1, opt_.repeat);
  timing["warmup"] = warmup;
  json::Value secs = json::Value::array();
  for (const double sec : result.seconds) secs.push_back(sec);
  timing["seconds"] = std::move(secs);
  timing["min_seconds"] = result.minSeconds();
  timing["median_seconds"] = result.medianSeconds();
  // Solver seconds (summed across worker threads) per wall-clock second:
  // can exceed 1.0 when COYOTE_THREADS > 1 and the LP chunks run
  // concurrently -- it is a utilization measure, not a percentage.
  timing["lp_time_frac"] =
      last_elapsed > 0.0 ? std::max(0.0, lp_delta.seconds / last_elapsed)
                         : 0.0;
  // Kind-specific timing (kServe: events/sec and latency percentiles);
  // lives here with the other machine-dependent data so the drift gate
  // skips it, while bench_compare applies explicit regression gates.
  for (const auto& [key, value] : output.timing_extra.asObject()) {
    timing[key] = value;
  }
  doc["timing"] = std::move(timing);
  result.document = std::move(doc);
  return result;
}

int ExperimentRunner::runAll(
    const std::vector<const Scenario*>& scenarios) const {
  int failures = 0;
  if (!opt_.json_dir.empty()) {
    std::filesystem::create_directories(opt_.json_dir);
  }
  for (const Scenario* s : scenarios) {
    const ScenarioResult result = run(*s);
    if (!result.ok) ++failures;
    if (!opt_.json_dir.empty()) {
      const std::filesystem::path path =
          std::filesystem::path(opt_.json_dir) / ("BENCH_" + s->id + ".json");
      std::ofstream file(path);
      file << result.document.dump(2);
      file.close();  // surface buffered write errors before the check
      if (!file.good()) {
        std::fprintf(stderr, "failed to write %s\n", path.string().c_str());
        ++failures;
      }
    }
  }
  return failures;
}

}  // namespace coyote::exp
