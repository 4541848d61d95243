#include "exp/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
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
#include "util/percentile.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace coyote::exp {

namespace json = util::json;

namespace {

/// One text-table column, rendered from the row member `key` ("a.b"
/// reads member `b` of the object member `a`). Numbers print at
/// `precision` decimals, arrays element-wise, bools as yes/no; a missing
/// member prints "n/a".
struct Column {
  std::string key;
  std::string title;
  int width = 8;
  int precision = 2;
};

std::string formatCell(const json::Value& v, int precision) {
  if (v.isString()) return v.asString();
  if (v.isBool()) return v.asBool() ? "yes" : "no";
  if (v.isArray()) {
    std::string out;
    for (const json::Value& e : v.asArray()) {
      if (!out.empty()) out += ' ';
      out += formatCell(e, precision);
    }
    return out;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v.asNumber());
  return buf;
}

const json::Value* member(const json::Value& row, const std::string& key) {
  const std::size_t dot = key.find('.');
  if (dot == std::string::npos) return row.find(key);
  const json::Value* outer = row.find(key.substr(0, dot));
  return outer == nullptr ? nullptr : outer->find(key.substr(dot + 1));
}

// Output of one scenario execution, and the one place a kind records a
// result: add() appends a BENCH row and, when printing, renders the
// current table's columns from that row, so the text is a view of the
// JSON rows. Kind-specific members (run metadata included) go to `extra`,
// which is merged into the document.
class KindOutput {
 public:
  explicit KindOutput(bool print) : print_(print) {}

  /// Starts a table: later rows render `columns`. The title line is a
  /// comment too, so every uncommented line of the text is a row.
  void table(std::vector<Column> columns) {
    columns_ = std::move(columns);
    if (!print_) return;
    std::printf("# ");  // takes its two characters from the first column
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      const int width = columns_[i].width - (i == 0 ? 2 : 0);
      std::printf("%-*s ", width, columns_[i].title.c_str());
    }
    std::printf("\n");
  }

  void add(json::Value row) {
    if (print_) {
      for (const Column& c : columns_) {
        const json::Value* v = member(row, c.key);
        const std::string cell =
            v == nullptr || v->isNull() ? "n/a" : formatCell(*v, c.precision);
        std::printf("%-*s ", c.width, cell.c_str());
      }
      std::printf("\n");
      std::fflush(stdout);
    }
    rows.push_back(std::move(row));
  }

  /// Prints a "# ..." line (printf-style).
  [[gnu::format(printf, 2, 3)]] void comment(const char* fmt, ...) const {
    if (!print_) return;
    std::va_list args;
    va_start(args, fmt);
    std::printf("# ");
    std::vprintf(fmt, args);
    std::printf("\n");
    va_end(args);
    std::fflush(stdout);
  }

  json::Value rows = json::Value::array();
  json::Value extra = json::Value::object();
  /// Members merged into the machine-dependent "timing" block (exempt
  /// from the bench_compare drift gate; kServe puts throughput and
  /// latency percentiles here, where they are regression-gated instead).
  json::Value timing_extra = json::Value::object();
  bool ok = true;

 private:
  bool print_;
  std::vector<Column> columns_;
};

/// The scheme list a scheme-comparison scenario sweeps: the --schemes
/// selection, or the registry defaults (the paper's four). The CLI
/// validated the keys already; re-resolving here keeps library callers
/// honest (unknown keys throw, naming the key). Recorded as the
/// "schemes" run metadata: it names the selection, the rows carry the
/// values.
std::vector<const te::Scheme*> selectedSchemes(const RunOptions& opt,
                                               KindOutput& out) {
  std::vector<const te::Scheme*> schemes =
      te::SchemeRegistry::builtin().resolve(opt.schemes);
  json::Array keys;
  for (const te::Scheme* sch : schemes) keys.emplace_back(sch->key());
  out.extra["schemes"] = std::move(keys);
  return schemes;
}

/// `leading` followed by one ratio column per scheme, keyed by scheme key
/// and titled by display name (never narrower than 8 characters).
std::vector<Column> withSchemes(std::vector<Column> leading,
                                const std::vector<const te::Scheme*>& schemes) {
  for (const te::Scheme* sch : schemes) {
    const std::string title = sch->display();
    leading.push_back(
        {sch->key(), title, std::max(8, static_cast<int>(title.size()) + 2)});
  }
  return leading;
}

/// Run metadata of the kinds that measure one network.
void networkMeta(const Scenario& s, KindOutput& out) {
  out.extra["network"] = s.topology.label();
  out.extra["demand_model"] = s.demand.name();
}

/// Run metadata of the kinds that sweep a network list.
void networksMeta(const Scenario& s, const RunOptions& opt, KindOutput& out) {
  json::Array nets(s.networkList(opt.full).begin(),
                   s.networkList(opt.full).end());
  out.extra["networks"] = std::move(nets);
  out.extra["demand_model"] = s.demand.name();
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

void runSchemes(const Scenario& s, const RunOptions& opt, KindOutput& out) {
  const Graph g = s.topology.build();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = s.demand.build(g);
  const std::vector<const te::Scheme*> schemes = selectedSchemes(opt, out);
  networkMeta(s, out);

  SweepOptions sopt = s.sweep;
  sopt.exact_oracle = sopt.exact_oracle || opt.exact;
  if (opt.exact && s.exact_env_upgrades_eval) sopt.exact_eval = true;

  out.comment("%s, %s base matrix", s.topology.label().c_str(),
              s.demand.name());
  out.comment("ratios are worst-case link utilization relative to the");
  out.comment("demands-aware optimum within the same augmented DAGs");
  out.table(withSchemes({{"margin", "margin", 8, 1}}, schemes));
  const NetworkSweep sweep(g, dags, base, sopt, schemes);
  for (const double margin : s.grid(opt.full)) {
    out.add(schemeRowJson(schemes, sweep.run(margin)));
  }
}

// --- kTable (Table I) -------------------------------------------------

void runTable(const Scenario& s, const RunOptions& opt, KindOutput& out) {
  const std::vector<double>& margins = s.grid(opt.full);
  const std::vector<const te::Scheme*> schemes = selectedSchemes(opt, out);
  networksMeta(s, opt, out);
  std::string grid;
  for (const double m : margins) grid += " " + formatCell(m, 1);
  out.comment("Table I: %s base model, margins%s", s.demand.name(),
              grid.c_str());
  out.comment("networks with <= %d nodes use the exact slave-LP adversary "
              "(exact = yes); larger ones the corner pool",
              s.exact_node_limit);
  out.table(withSchemes({{"network", "network", 14, 0},
                         {"exact", "exact", 6, 0},
                         {"margin", "margin", 8, 1}},
                        schemes));

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
    for (const double margin : margins) {
      json::Value row = schemeRowJson(schemes, sweep.run(margin));
      row["network"] = name;
      row["exact"] = sopt.exact_eval;
      out.add(std::move(row));
    }
  }
}

// --- kLocalSearch (Fig. 9) --------------------------------------------

void runLocalSearch(const Scenario& s, const RunOptions& opt,
                    KindOutput& out) {
  const Graph base_graph = s.topology.build();
  const tm::TrafficMatrix base = s.demand.build(base_graph);
  networkMeta(s, out);

  out.comment("%s, %s base matrix, local-search weights",
              s.topology.label().c_str(), s.demand.name());
  out.table({{"margin", "margin", 8, 1},
             {"ecmp", "ECMP", 8, 2},
             {"partial", "COYOTE-pk", 12, 2},
             {"moves", "moves", 8, 0},
             {"ecmp_over_partial", "ECMP/pk", 10, 2}});

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
    out.add(std::move(row));
  }
  if (gap_rows > 0) {
    const double avg_gap = 100.0 * gap_sum / gap_rows;
    out.comment("ECMP's average distance-from-optimum is %.0f%% of "
                "COYOTE's (paper: ~180%%)",
                avg_gap);
    out.extra["ecmp_gap_percent"] = avg_gap;
  }
}

// --- kQuantization (Fig. 10) ------------------------------------------

void runQuantization(const Scenario& s, const RunOptions& opt,
                     KindOutput& out) {
  const Graph g = s.topology.build();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = s.demand.build(g);
  networkMeta(s, out);

  out.comment("%s, %s base matrix: ECMP vs quantized COYOTE",
              s.topology.label().c_str(), s.demand.name());
  std::vector<Column> columns = {{"margin", "margin", 8, 1},
                                 {"ecmp", "ECMP", 8, 2}};
  for (const int k : s.quantize_multiplicities) {
    const std::string kk = std::to_string(k);
    columns.push_back({"quantized." + kk, "COYOTE-" + kk + "NH", 12, 2});
  }
  columns.push_back({"ideal", "COYOTE-ideal", 12, 2});
  out.table(std::move(columns));

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
    json::Value quantized = json::Value::object();
    // k virtual links per interface allow multiplicity k+1 per next-hop.
    for (const int k : s.quantize_multiplicities) {
      quantized[std::to_string(k)] =
          pool.ratioFor(fib::quantizeConfig(g, ideal.routing, k + 1));
    }
    row["quantized"] = std::move(quantized);
    row["ideal"] = ideal.pool_ratio;
    out.add(std::move(row));
  }
}

// --- kStretch (Fig. 11) -----------------------------------------------

void runStretch(const Scenario& s, const RunOptions& opt, KindOutput& out) {
  networksMeta(s, opt, out);
  out.comment("average path stretch vs ECMP, margin %.1f", s.fixed_margin);
  out.table({{"network", "network", 14, 0},
             {"oblivious", "COYOTE-obl", 16, 3},
             {"partial", "COYOTE-pk", 18, 3}});

  for (const std::string& name : s.networkList(opt.full)) {
    const Graph g = topo::makeZoo(name);
    const auto dags = core::augmentedDagsShared(g);
    const tm::TrafficMatrix base = s.demand.build(g);
    const tm::DemandBounds box = tm::marginBounds(base, s.fixed_margin);

    const routing::RoutingConfig ecmp = routing::ecmpConfig(g, dags);
    const core::CoyoteOptions& copt = s.sweep.coyote;
    const core::CoyoteResult obl = core::coyoteOblivious(g, dags, copt);
    const core::CoyoteResult pk = core::coyoteWithBounds(g, dags, box, copt);

    json::Value row = json::Value::object();
    row["network"] = name;
    row["oblivious"] = routing::averageStretch(g, obl.routing, ecmp);
    row["partial"] = routing::averageStretch(g, pk.routing, ecmp);
    out.add(std::move(row));
  }
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

json::Value prototypeRow(const char* scheme,
                         const std::vector<sim::StepStats>& stats) {
  json::Value drops = json::Value::array();
  double sent = 0.0, del = 0.0;
  for (const auto& st : stats) {
    drops.push_back(100.0 * st.dropRate());
    sent += st.sent;
    del += st.delivered;
  }
  json::Value row = json::Value::object();
  row["scheme"] = scheme;
  row["drop_percent_per_second"] = std::move(drops);
  row["sent_mb"] = sent;
  row["dropped_percent"] = 100.0 * (1.0 - del / sent);
  return row;
}

void runPrototype(const Scenario&, const RunOptions&, KindOutput& out) {
  const Graph g = topo::prototypeTriangle();
  const NodeId s1 = *g.findNode("s1");
  const NodeId s2 = *g.findNode("s2");
  const NodeId t = *g.findNode("t");
  const EdgeId s1t = *g.findEdge(s1, t);
  const EdgeId s2t = *g.findEdge(s2, t);
  const EdgeId s1s2 = *g.findEdge(s1, s2);
  const EdgeId s2s1 = *g.findEdge(s2, s1);
  const PrototypeSchedule sched{s1, s2};

  out.comment("Fig. 12: 1 Mbps links; 3 x 15 s scenarios "
              "(0,2) -> (1,1) -> (2,0) Mbps; 1 s bins");
  out.table({{"scheme", "scheme", 8, 0},
             {"sent_mb", "sent-Mb", 8, 0},
             {"dropped_percent", "drop%", 6, 0},
             {"drop_percent_per_second", "drop% per second", 0, 0}});

  {  // TE1: both sources route directly (single shared DAG).
    sim::FluidNetwork net(g);
    for (const sim::PrefixId p : {0, 1}) {
      net.setPrefixOwner(p, t);
      net.setForwarding(p, s1, {{s1t, 1.0}});
      net.setForwarding(p, s2, {{s2t, 1.0}});
    }
    sched.install(net);
    out.add(prototypeRow("TE1", net.run(45.0, 1.0)));
  }
  {  // TE2: s1 splits via s2; s2 direct (still one DAG for both prefixes).
    sim::FluidNetwork net(g);
    for (const sim::PrefixId p : {0, 1}) {
      net.setPrefixOwner(p, t);
      net.setForwarding(p, s1, {{s1t, 0.5}, {s1s2, 0.5}});
      net.setForwarding(p, s2, {{s2t, 1.0}});
    }
    sched.install(net);
    out.add(prototypeRow("TE2", net.run(45.0, 1.0)));
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
    out.add(prototypeRow("COYOTE", net.run(45.0, 1.0)));
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
  out.comment("OSPF lies realizing COYOTE's per-prefix DAGs: %d fake "
              "nodes, verified: %s",
              model.fakeNodeCount(), ok ? "yes" : "NO");
  out.extra["fake_nodes"] = model.fakeNodeCount();
  out.extra["verified"] = ok;
  out.ok = ok;
}

// --- kDagAug ----------------------------------------------------------

void runDagAug(const Scenario& s, const RunOptions& opt, KindOutput& out) {
  networksMeta(s, opt, out);
  out.comment("COYOTE-pk ratio, margin %.1f: shortest-path DAGs vs "
              "augmented DAGs",
              s.fixed_margin);
  out.table({{"network", "network", 14, 0},
             {"sp_dags", "SP-DAGs", 10, 2},
             {"augmented", "augmented", 10, 2},
             {"ecmp", "ECMP", 10, 2}});

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

    json::Value row = json::Value::object();
    row["network"] = name;
    row["sp_dags"] = eval.ratioFor(sp_on_aug);
    row["augmented"] = eval.ratioFor(aug_cfg.routing);
    row["ecmp"] = eval.ratioFor(routing::ecmpConfig(g, aug));
    out.add(std::move(row));
  }
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

void runOptimizer(const Scenario&, const RunOptions&, KindOutput& out) {
  out.comment("inner-optimizer ablation: pool ratio vs iterations");
  out.table({{"instance", "instance", 16, 0},
             {"iterations", "iters", 8, 0},
             {"gp_condensation", "GP-condens.", 14, 4},
             {"mirror_descent", "mirror-desc.", 14, 4}});

  const auto record = [&](const char* instance, int iters,
                          const routing::PerformanceEvaluator& eval,
                          const Graph& g) {
    json::Value row = json::Value::object();
    row["instance"] = instance;
    row["iterations"] = iters;
    row["gp_condensation"] = optimizerRunOnce(
        g, eval, core::SplitMethod::kGpCondensation, iters);
    row["mirror_descent"] = optimizerRunOnce(
        g, eval, core::SplitMethod::kMirrorDescent, iters);
    out.add(std::move(row));
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
      record("running-example", iters, eval, g);
    }
    out.comment("running-example closed-form optimum: %.4f",
                std::sqrt(5.0) - 1.0);
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
      record("abilene-m2", iters, eval, g);
    }
  }
}

// --- kHardness --------------------------------------------------------

void runHardness(const Scenario&, const RunOptions&, KindOutput& out) {
  out.comment("BIPARTITION reduction (Theorem 1 / Lemmas 2-3); "
              "the gap is 4/3 = 1.3333");
  out.table({{"integer_set", "integer set", 16, 0},
             {"positive", "positive?", 12, 0},
             {"best_oblivious_ratio", "best oblivious ratio", 22, 4}});
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
    json::Value row = json::Value::object();
    row["kind"] = "bipartition";
    row["integer_set"] = wstr;
    row["positive"] = c.positive;
    row["best_oblivious_ratio"] = best;
    out.add(std::move(row));
  }

  out.comment("Omega(|V|) gap (Theorem 4): path instance, oblivious "
              "ratio = n");
  out.table({{"n", "n", 6, 0}, {"oblivious_ratio", "oblivious ratio", 16, 2}});
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
    json::Value row = json::Value::object();
    row["kind"] = "path-gap";
    row["n"] = n;
    row["oblivious_ratio"] = worst;
    out.add(std::move(row));
  }
}

// --- kFailure (src/failure/: post-failure four-scheme sweep) ----------

void runFailure(const Scenario& s, const RunOptions& opt, KindOutput& out) {
  const Graph g = s.topology.build();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = s.demand.build(g);
  const std::vector<const te::Scheme*> schemes = selectedSchemes(opt, out);
  networkMeta(s, out);
  out.extra["failure_model"] = s.failure.name();

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

  out.comment("%s, %s base matrix -- %s failure sweep, margin %.1f",
              s.topology.label().c_str(), s.demand.name(), s.failure.name(),
              s.fixed_margin);
  out.comment("post-failure ratios: worst over the corner pool, normalized "
              "by the unrestricted optimum on the surviving network; cut = "
              "demand pairs disconnected (such failures are not evaluated)");
  out.table(withSchemes(
      {{"label", "failed", 24, 0}, {"disconnected_pairs", "cut", 4, 0}},
      schemes));

  for (const failure::FailureOutcome& o : res.outcomes) {
    json::Value row = json::Value::object();
    row["label"] = o.label;
    row["evaluated"] = o.evaluated;
    row["disconnected_pairs"] = o.disconnected_pairs;
    if (o.evaluated) {
      json::Value unroutable = json::Value::array();
      for (std::size_t i = 0; i < schemes.size(); ++i) {
        const char* key = schemes[i]->key();
        if (o.routable[i]) {
          row[key] = o.ratio[i];
        } else {
          unroutable.push_back(key);
        }
      }
      row["unroutable"] = std::move(unroutable);
    }
    out.add(std::move(row));
  }

  json::Value block = json::Value::object();
  block["model"] = s.failure.name();
  block["margin"] = s.fixed_margin;
  block["scenarios"] = static_cast<int>(res.outcomes.size());
  block["evaluated"] = res.evaluated;
  block["disconnecting"] = res.disconnecting;
  block["disconnected_pairs"] = res.disconnected_pairs;
  block["pool_size"] = static_cast<int>(eval.intact().pool().size());
  // The ruler's bound-and-prune work: slot LPs solved and pruned.
  block["lp_ruler_solved"] = res.slots_solved;
  block["lp_ruler_skipped"] = res.slots_skipped;
  json::Value per_scheme = json::Value::object();
  std::string summary;
  for (const auto& [key, st] : res.schemes) {
    json::Value v = json::Value::object();
    v["worst"] = st.worst;
    v["median"] = st.median;
    v["p95"] = st.p95;
    v["evaluated"] = st.evaluated;
    v["unroutable"] = st.unroutable;
    summary += "  " + key + " " + formatCell(st.worst, 2) + "/" +
               formatCell(st.median, 2) + "/" + formatCell(st.p95, 2);
    per_scheme[key] = std::move(v);
  }
  block["schemes"] = std::move(per_scheme);
  out.extra["failures"] = std::move(block);

  out.comment("failures: %zu total, %d evaluated, %d disconnecting "
              "(%d demand pair(s) cut)",
              res.outcomes.size(), res.evaluated, res.disconnecting,
              res.disconnected_pairs);
  out.comment("worst/median/p95:%s", summary.c_str());
}

// --- kServe (online TE daemon trace replay, src/serve/) ---------------

void runServe(const Scenario& s, const RunOptions& opt, KindOutput& out) {
  const Graph g = s.topology.build();
  const tm::TrafficMatrix base = s.demand.build(g);
  networkMeta(s, out);

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
  sopt.schemes = selectedSchemes(opt, out);
  serve::TeService service(g, base, sopt);

  out.comment("%s, %s base matrix -- online TE daemon replay: %zu events, "
              "margin %.1f, pool %d",
              s.topology.label().c_str(), s.demand.name(), trace.size(),
              s.fixed_margin,
              static_cast<int>(service.intact().pool().size()));

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
  std::sort(latency_ms.begin(), latency_ms.end());

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

  out.table({{"op", "op", 12, 0}, {"events", "events", 8, 0}});
  for (int k = 0; k < kNumOps; ++k) {
    json::Value row = json::Value::object();
    row["op"] = kOps[k];
    row["events"] = counts[k];
    out.add(std::move(row));
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
  block["pool_size"] = static_cast<int>(service.intact().pool().size());
  block["errors"] = errors;
  block["final_margin"] = service.intact().options().margin;
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
  const double p50 = util::nearestRank(latency_ms, 0.50);
  const double p99 = util::nearestRank(latency_ms, 0.99);
  out.timing_extra["replay_seconds"] = replay_seconds;
  out.timing_extra["events_per_second"] = events_per_second;
  out.timing_extra["event_p50_ms"] = p50;
  out.timing_extra["event_p99_ms"] = p99;

  out.comment("errors: %d", errors);
  out.comment("throughput: %.1f events/s, latency p50 %.2f ms, p99 %.2f ms",
              events_per_second, p50, p99);
  out.comment("reoptimize: %lld splitting iterations saved by warm starts",
              service.reoptimizeSavedIters());
  if (const json::Value* ratios = final_state.find("ratios")) {
    std::string line;
    for (const auto& [key, v] : ratios->asObject()) {
      line += "  " + key + " " + formatCell(v, 2);
    }
    out.comment("final ratios:%s", line.c_str());
  }
}

// --- kScaling (structured-generator size ladders) ---------------------

void runScaling(const Scenario& s, const RunOptions& opt, KindOutput& out) {
  const std::vector<const te::Scheme*> schemes = selectedSchemes(opt, out);
  json::Array rungs;
  for (const TopologySpec& spec : s.ladder) rungs.emplace_back(spec.label());
  out.extra["ladder"] = std::move(rungs);
  out.extra["demand_model"] = s.demand.name();
  out.extra["margin"] = s.fixed_margin;

  out.comment("scaling curve: %zu rung(s), %s base model, margin %.1f",
              s.ladder.size(), s.demand.name(), s.fixed_margin);
  std::vector<Column> columns = withSchemes({{"rung", "rung", 18, 0},
                                             {"nodes", "nodes", 7, 0},
                                             {"edges", "edges", 7, 0}},
                                            schemes);
  columns.push_back({"mem_peak_rss_mb", "RSS-MiB", 8, 1});
  out.table(std::move(columns));

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

    json::Value row = schemeRowJson(schemes, r);
    row["rung"] = spec.label();
    row["nodes"] = g.numNodes();
    row["edges"] = g.numEdges();
    row["mem_peak_rss_mb"] = util::peakRssMb();
    out.add(std::move(row));
    out.comment("  %s: %.2fs", spec.label().c_str(), seconds);

    json::Value t = json::Value::object();
    t["rung"] = spec.label();
    t["seconds"] = seconds;
    rung_seconds.push_back(std::move(t));
  }
  out.timing_extra["rungs"] = std::move(rung_seconds);
}

void runKind(const Scenario& s, const RunOptions& opt, KindOutput& out) {
  switch (s.kind) {
    case ScenarioKind::kSchemes:
      return runSchemes(s, opt, out);
    case ScenarioKind::kTable:
      return runTable(s, opt, out);
    case ScenarioKind::kLocalSearch:
      return runLocalSearch(s, opt, out);
    case ScenarioKind::kQuantization:
      return runQuantization(s, opt, out);
    case ScenarioKind::kStretch:
      return runStretch(s, opt, out);
    case ScenarioKind::kPrototype:
      return runPrototype(s, opt, out);
    case ScenarioKind::kDagAug:
      return runDagAug(s, opt, out);
    case ScenarioKind::kOptimizer:
      return runOptimizer(s, opt, out);
    case ScenarioKind::kHardness:
      return runHardness(s, opt, out);
    case ScenarioKind::kFailure:
      return runFailure(s, opt, out);
    case ScenarioKind::kServe:
      return runServe(s, opt, out);
    case ScenarioKind::kScaling:
      return runScaling(s, opt, out);
  }
  require(false, "unknown scenario kind");
}

}  // namespace

double ScenarioResult::minSeconds() const {
  double m = std::numeric_limits<double>::infinity();
  for (const double s : seconds) m = std::min(m, s);
  return seconds.empty() ? 0.0 : m;
}

double ScenarioResult::medianSeconds() const {
  std::vector<double> sorted = seconds;
  std::sort(sorted.begin(), sorted.end());
  return util::medianOf(sorted);
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

  KindOutput output(false);
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
    output = KindOutput(print);
    runKind(s, opt_, output);
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
    // A library exception fails this scenario only; the batch goes on.
    ScenarioResult result;
    try {
      result = run(*s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scenario %s: %s\n", s->id.c_str(), e.what());
      ++failures;
      continue;
    }
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
