// coyote_cli -- command-line front end to the library.
//
//   coyote_cli topo     <network>                         topology summary
//   coyote_cli optimize <network> [margin] [--oblivious]  splitting ratios
//   coyote_cli lies     <network> [margin] [budget]       OSPF lie plan
//   coyote_cli eval     <network> [margin]                scheme comparison
//
// <network> is either `zoo:<Name>` (see `coyote_cli topo zoo:list`) or a
// path to a topology file in the plain-text format of topo/parser.hpp.
//
// Examples:
//   ./build/examples/coyote_cli topo zoo:Abilene
//   ./build/examples/coyote_cli optimize zoo:Geant 2.0
//   ./build/examples/coyote_cli lies my-backbone.topo 2.5 3
//   ./build/examples/coyote_cli eval zoo:NSF 3.0

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/coyote.hpp"
#include "core/dag_builder.hpp"
#include "exp/sweep.hpp"
#include "fibbing/lie_synthesis.hpp"
#include "fibbing/ospf_model.hpp"
#include "routing/ecmp.hpp"
#include "routing/optu.hpp"
#include "tm/traffic_matrix.hpp"
#include "topo/parser.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace coyote;

int usage() {
  std::fprintf(stderr,
               "usage: coyote_cli topo|optimize|lies|eval <network> [args]\n"
               "       <network> = zoo:<Name> | <file.topo>   "
               "(zoo:list shows the corpus)\n");
  return 2;
}

Graph loadNetwork(const std::string& spec) {
  if (spec.rfind("zoo:", 0) == 0) {
    return topo::makeZoo(spec.substr(4));
  }
  std::ifstream in(spec);
  if (!in) throw std::invalid_argument("cannot open topology file: " + spec);
  return topo::parseTopology(in);
}

int cmdTopo(const std::string& spec) {
  if (spec == "zoo:list") {
    for (const auto& name : topo::zooNames()) std::printf("%s\n", name.c_str());
    return 0;
  }
  const Graph g = loadNetwork(spec);
  std::printf("nodes: %d   directed edges: %d   strongly connected: %s\n",
              g.numNodes(), g.numEdges(),
              g.stronglyConnected() ? "yes" : "no");
  double cap_min = 1e300, cap_max = 0.0;
  for (const Edge& e : g.edges()) {
    cap_min = std::min(cap_min, e.capacity);
    cap_max = std::max(cap_max, e.capacity);
  }
  std::printf("capacities: [%g, %g]\n", cap_min, cap_max);
  const auto dags = core::augmentedDags(g);
  std::size_t dag_edges = 0;
  for (const auto& d : dags) dag_edges += d.edges().size();
  std::printf("augmented DAG edges (all destinations): %zu\n", dag_edges);
  return 0;
}

struct Pipeline {
  Graph g;
  std::shared_ptr<const DagSet> dags;
  tm::TrafficMatrix base;
  double margin;

  Pipeline(const std::string& spec, double margin_in)
      : g(loadNetwork(spec)),
        dags(core::augmentedDagsShared(g)),
        base(tm::gravityMatrix(g, 1.0)),
        margin(margin_in) {}

  core::CoyoteOptions options() const {
    core::CoyoteOptions opt;
    opt.splitting.iterations = 300;
    return opt;
  }

  /// COYOTE-pk's corner pool of the margin box.
  static tm::PoolOptions corners() {
    tm::PoolOptions popt;
    popt.source_hotspots = false;
    popt.max_hotspots = 12;
    return popt;
  }
};

int cmdOptimize(const std::string& spec, double margin, bool oblivious) {
  Pipeline p(spec, margin);
  const core::CoyoteResult res =
      oblivious ? core::coyoteOblivious(p.g, p.dags, p.options())
                : core::coyoteWithBounds(p.g, p.dags,
                                         tm::marginBounds(p.base, margin),
                                         Pipeline::corners(), p.options());
  if (oblivious) {
    std::printf("# COYOTE oblivious, ratio on optimization pool: %.3f\n",
                res.pool_ratio);
  } else {
    std::printf("# COYOTE margin %.2f, ratio on optimization pool: %.3f\n",
                margin, res.pool_ratio);
  }
  std::printf("# non-trivial splitting entries (destination node edge ratio):\n");
  for (NodeId t = 0; t < p.g.numNodes(); ++t) {
    for (const EdgeId e : (*p.dags)[t].edges()) {
      const double r = res.routing.ratio(t, e);
      if (r <= 0.0 || r >= 1.0 - 1e-9) continue;  // trivial 0/1 entries
      std::printf("split %s %s->%s %.4f\n", p.g.nodeName(t).c_str(),
                  p.g.nodeName(p.g.edge(e).src).c_str(),
                  p.g.nodeName(p.g.edge(e).dst).c_str(), r);
    }
  }
  return 0;
}

int cmdLies(const std::string& spec, double margin, int virtual_links) {
  Pipeline p(spec, margin);
  const int budget = virtual_links + 1;
  const core::CoyoteResult res = core::coyoteWithBounds(
      p.g, p.dags, tm::marginBounds(p.base, margin), Pipeline::corners(),
      p.options());

  fib::OspfModel model(p.g);
  int fake = 0, routers = 0;
  bool all_ok = true;
  for (NodeId t = 0; t < p.g.numNodes(); ++t) {
    model.advertisePrefix(t, t);
    const fib::LiePlan plan =
        fib::synthesizeLies(p.g, res.routing, t, t, budget);
    fib::applyPlan(model, plan);
    fake += plan.fake_nodes;
    routers += plan.routers_lied_to;
    const bool ok = fib::verifyRealization(model, res.routing, t, t, budget);
    all_ok = all_ok && ok && model.forwardingIsLoopFree(t);
    for (const auto& lie : plan.lies) {
      std::printf("lie at=%s prefix=%s via=%s x%d cost=%.2f\n",
                  p.g.nodeName(lie.router).c_str(),
                  p.g.nodeName(t).c_str(), p.g.nodeName(lie.via).c_str(),
                  lie.count, lie.cost);
    }
  }
  std::printf("# total: %d fake nodes across %d (router,prefix) entries; "
              "verified: %s\n",
              fake, routers, all_ok ? "yes" : "NO");
  return all_ok ? 0 : 1;
}

int cmdEval(const std::string& spec, double margin) {
  Pipeline p(spec, margin);
  // The same scheme margin sweep the experiment harness runs
  // (exp::NetworkSweep over every registered te::Scheme);
  // coyote_experiments sweeps whole margin grids.
  exp::SweepOptions opt;
  opt.coyote = p.options();
  const exp::NetworkSweep sweep(p.g, p.dags, p.base, opt,
                                te::SchemeRegistry::builtin().all());
  const exp::SchemeRow row = sweep.run(margin);
  std::printf("margin %.2f", margin);
  for (std::size_t i = 0; i < sweep.schemes().size(); ++i) {
    std::printf("  %s %.3f", sweep.schemes()[i]->display(), row.ratio[i]);
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string spec = argv[2];
  try {
    if (cmd == "topo") return cmdTopo(spec);
    const double margin = argc > 3 ? std::atof(argv[3]) : 2.0;
    if (cmd == "optimize") {
      const bool oblivious =
          (argc > 3 && std::strcmp(argv[3], "--oblivious") == 0) ||
          (argc > 4 && std::strcmp(argv[4], "--oblivious") == 0);
      return cmdOptimize(spec, margin, oblivious);
    }
    if (cmd == "lies") {
      const int virtual_links = argc > 4 ? std::atoi(argv[4]) : 3;
      return cmdLies(spec, margin, virtual_links);
    }
    if (cmd == "eval") return cmdEval(spec, margin);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
