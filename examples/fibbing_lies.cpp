// Inspecting the "lies": what COYOTE actually injects into OSPF.
//
// Optimizes splitting ratios for one destination of Abilene, synthesizes
// the fake advertisements that realize them on unmodified routers
// (Sec. V-D), prints each lie in a human-readable form, and verifies the
// router model installs exactly the intended next-hop multisets.
//
// Build & run:   ./build/examples/fibbing_lies [virtual-links-per-interface]

#include <cstdio>
#include <cstdlib>

#include "core/coyote.hpp"
#include "core/dag_builder.hpp"
#include "fibbing/lie_synthesis.hpp"
#include "fibbing/ospf_model.hpp"
#include "tm/traffic_matrix.hpp"
#include "topo/zoo.hpp"

int main(int argc, char** argv) {
  using namespace coyote;
  const int virtual_links = argc > 1 ? std::atoi(argv[1]) : 3;
  const int max_multiplicity = virtual_links + 1;

  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const tm::DemandBounds box = tm::marginBounds(base, 2.0);

  core::CoyoteOptions copt;
  copt.splitting.iterations = 300;
  const core::CoyoteResult res =
      core::coyoteWithBounds(g, dags, box, {}, copt);
  std::printf("COYOTE on Abilene (margin 2.0): pool ratio %.3f\n\n",
              res.pool_ratio);

  fib::OspfModel model(g);
  int total_fake = 0;
  int total_routers = 0;
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    model.advertisePrefix(t, t);
    const fib::LiePlan plan =
        fib::synthesizeLies(g, res.routing, t, t, max_multiplicity);
    fib::applyPlan(model, plan);
    total_fake += plan.fake_nodes;
    total_routers += plan.routers_lied_to;
    if (!fib::verifyRealization(model, res.routing, t, t, max_multiplicity)) {
      std::printf("verification FAILED for destination %s\n",
                  g.nodeName(t).c_str());
      return 1;
    }
  }

  // Show the lies for one destination in detail.
  const NodeId dest = *g.findNode("NewYork");
  const fib::LiePlan plan =
      fib::synthesizeLies(g, res.routing, dest, dest, max_multiplicity);
  std::printf("Lies for prefix %s (%d fake nodes):\n",
              g.nodeName(dest).c_str(), plan.fake_nodes);
  for (const auto& lie : plan.lies) {
    std::printf(
        "  at %-12s advertise %s via %-12s x%d at cost %.1f  (real dist "
        "%.1f)\n",
        g.nodeName(lie.router).c_str(), g.nodeName(dest).c_str(),
        g.nodeName(lie.via).c_str(), lie.count, lie.cost,
        shortestPathsTo(g, dest).dist[lie.router]);
  }

  std::printf(
      "\nNetwork-wide: %d fake nodes across %d (router,prefix) entries with "
      "%d virtual links/interface.\n",
      total_fake, total_routers, virtual_links);
  std::printf("All %d per-prefix FIBs verified loop-free and exact.\n",
              g.numNodes());
  return 0;
}
