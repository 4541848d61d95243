// Microbenchmarks of the LP substrate: the simplex solver on the LP
// families the pipeline actually solves (OPTU normalization, base-optimal
// routing, worst-case slave LP), and the min cut that replaces the LP for
// single-destination OPTU.
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/dag_builder.hpp"
#include "lp/stats.hpp"
#include "routing/ecmp.hpp"
#include "routing/evaluator.hpp"
#include "routing/optu.hpp"
#include "routing/worst_case.hpp"
#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace coyote;

void BM_OptuDagRestricted(benchmark::State& state) {
  const auto names = topo::zooNames();
  const Graph g = topo::makeZoo(names[static_cast<std::size_t>(state.range(0))]);
  const DagSet dags = core::augmentedDags(g);
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::optimalUtilization(g, dags, d));
  }
  state.SetLabel(names[static_cast<std::size_t>(state.range(0))] + " n=" +
                 std::to_string(g.numNodes()));
}
BENCHMARK(BM_OptuDagRestricted)->Arg(3)->Arg(14)->Arg(10)->Arg(9);
// indices into zooNames(): Abilene, NSF, Germany, Geant

void BM_OptuUnrestricted(benchmark::State& state) {
  const Graph g = topo::makeZoo("Abilene");
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::optimalUtilizationUnrestricted(g, d));
  }
}
BENCHMARK(BM_OptuUnrestricted);

void BM_OptuSingleSinkPool(benchmark::State& state) {
  // The oblivious scheme's normalization on a fat-tree: every matrix of
  // the destination-concentrated pool has one destination, so addPool
  // solves each as a min cut and must run no LP.
  const Graph g = topo::fatTree(8);
  const auto dags = core::augmentedDagsShared(g);
  tm::ObliviousPoolOptions opt;
  opt.source_concentrated = false;
  opt.uniform = false;
  opt.random_sparse = 0;
  const std::vector<tm::TrafficMatrix> pool =
      tm::obliviousPool(g.numNodes(), opt);
  util::ThreadPool one(1);
  for (auto _ : state) {
    const lp::StatsSnapshot before = lp::statsSnapshot();
    routing::PerformanceEvaluator eval(g, dags);
    eval.setThreadPool(one);
    eval.addPool(pool);
    if ((lp::statsSnapshot() - before).solves != 0) {
      state.SkipWithError("a single-destination normalization ran an LP");
      break;
    }
    benchmark::DoNotOptimize(eval.size());
  }
  state.SetLabel("fatTree(8), " + std::to_string(pool.size()) + " matrices");
}
BENCHMARK(BM_OptuSingleSinkPool)->Unit(benchmark::kMillisecond);

void BM_BaseOptimalRouting(benchmark::State& state) {
  const Graph g = topo::makeZoo("NSF");
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::optimalRoutingForDemand(g, dags, d));
  }
}
BENCHMARK(BM_BaseOptimalRouting);

void BM_SlaveLpSingleEdge(benchmark::State& state) {
  const Graph g = topo::runningExample();
  const auto dags = core::augmentedDagsShared(g);
  const auto ecmp = routing::ecmpConfig(g, dags);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::findWorstCaseDemandForEdge(g, ecmp, 0));
  }
}
BENCHMARK(BM_SlaveLpSingleEdge);

void BM_SlaveLpAllEdgesAbilene(benchmark::State& state) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  const auto ecmp = routing::ecmpConfig(g, dags);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::findWorstCaseDemand(g, ecmp));
  }
}
BENCHMARK(BM_SlaveLpAllEdgesAbilene)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_DualWarmChain(benchmark::State& state) {
  // Warm bound-mutation chain on GEANT (the failure-sweep shape): one
  // resident engine re-solves the same demand while single edges fail
  // and restore, each toggle a bounds mutation that leaves the retained
  // basis dual-feasible but primal-infeasible for the dual simplex to
  // repair. Every answer is cross-checked against a reference chain.
  const Graph g = topo::makeZoo("Geant");
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 1.0);
  std::vector<std::vector<EdgeId>> chain;
  std::vector<double> reference;
  {
    // Keep only survivable single-edge failures (bridges disconnect
    // demand and the OPTU LP rightly reports infeasible).
    routing::OptuEngine ref_engine(g, dags);
    const double intact = ref_engine.utilization(d);
    for (EdgeId e = 0; e < g.numEdges() && chain.size() < 16; ++e) {
      try {
        ref_engine.setFailedEdges({e});
        const double u = ref_engine.utilization(d);
        chain.push_back({e});
        reference.push_back(u);
        chain.push_back({});  // restore before the next failure
        reference.push_back(intact);
      } catch (const std::exception&) {
        ref_engine.setFailedEdges({});
      }
    }
  }
  routing::OptuEngine engine(g, dags);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i++ % chain.size();
    engine.setFailedEdges(chain[k]);
    const double u = engine.utilization(d);
    if (std::abs(u - reference[k]) > 1e-7 * (1.0 + reference[k])) {
      state.SkipWithError("warm-chain answer diverged from reference");
      break;
    }
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_DualWarmChain);

}  // namespace

BENCHMARK_MAIN();
