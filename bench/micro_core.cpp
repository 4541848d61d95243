// Microbenchmarks of COYOTE's core machinery: optimizer iteration
// throughput, lie synthesis, split apportionment, fluid-simulator steps.
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/dag_builder.hpp"
#include "core/splitting_optimizer.hpp"
#include "fibbing/lie_synthesis.hpp"
#include "fibbing/ospf_model.hpp"
#include "lp/stats.hpp"
#include "routing/ecmp.hpp"
#include "routing/evaluator.hpp"
#include "routing/optu.hpp"
#include "routing/worst_case.hpp"
#include "sim/fluid.hpp"
#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace coyote;

void BM_SplittingOptimizerIterations(benchmark::State& state) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  routing::PerformanceEvaluator eval(g, dags);
  tm::PoolOptions popt;
  popt.source_hotspots = false;
  popt.random_corners = 2;
  eval.addPool(
      tm::cornerPool(tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0), popt));
  const auto init = routing::RoutingConfig::uniform(g, dags);
  core::SplittingOptions opt;
  opt.iterations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimizeSplitting(g, eval, init, opt));
  }
  state.SetItemsProcessed(state.iterations() * opt.iterations);
}
BENCHMARK(BM_SplittingOptimizerIterations)->Arg(50)->Arg(200);

// PERF evaluation hot path: ratioFor scans the whole pool, one propagation
// per matrix, distributed over the thread pool. The series sweeps the
// thread count over a >= 64-matrix pool; acceptance is >= 2x at 4 threads
// with bit-identical results (cross-checked against the 1-thread run).
void BM_RatioForThreadScaling(benchmark::State& state) {
  // Shared across thread-count args: building the pool solves one
  // normalization LP per matrix and dominates setup time.
  static const Graph g = topo::makeZoo("Geant");
  static const auto dags = core::augmentedDagsShared(g);
  static routing::PerformanceEvaluator* eval = [] {
    auto* e = new routing::PerformanceEvaluator(g, dags);
    tm::PoolOptions popt;
    popt.random_corners = 48;
    popt.pair_hotspots = 24;
    popt.seed = 11;
    e->addPool(
        tm::cornerPool(tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0), popt));
    return e;
  }();
  static const auto cfg = routing::RoutingConfig::uniform(g, dags);
  static const double serial_ratio = [] {
    util::ThreadPool one(1);
    eval->setThreadPool(one);
    const double r = eval->ratioFor(cfg);
    eval->setThreadPool(util::ThreadPool::global());
    return r;
  }();

  util::ThreadPool tp(static_cast<unsigned>(state.range(0)));
  eval->setThreadPool(tp);
  for (auto _ : state) {
    const double r = eval->ratioFor(cfg);
    if (r != serial_ratio) {
      state.SkipWithError("parallel ratio differs from serial ratio");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  eval->setThreadPool(util::ThreadPool::global());  // tp dies here
  state.SetItemsProcessed(state.iterations() * eval->size());
  state.SetLabel("pool=" + std::to_string(eval->size()) + " matrices");
}
BENCHMARK(BM_RatioForThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_AddPoolThreadScaling(benchmark::State& state) {
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  tm::PoolOptions popt;
  popt.random_corners = 24;
  popt.seed = 5;
  const auto pool =
      tm::cornerPool(tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0), popt);
  util::ThreadPool tp(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    routing::PerformanceEvaluator eval(g, dags);
    eval.setThreadPool(tp);
    eval.addPool(pool);
    benchmark::DoNotOptimize(eval.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pool.size()));
}
BENCHMARK(BM_AddPoolThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// OPTU normalization of a GEANT-sized corner pool: Arg(0) solves every
// matrix cold (a fresh engine per matrix, the pre-warm-start behavior),
// Arg(1) runs the engine's warm-start chains. The warm path is cross-checked
// against the cold objectives (equal within LP tolerance) before timing;
// pivots/solve lands in the counters.
void BM_SimplexOptu(benchmark::State& state) {
  const Graph g = topo::makeZoo("Geant");
  const auto dags = core::augmentedDagsShared(g);
  tm::PoolOptions popt;
  popt.random_corners = 16;
  popt.pair_hotspots = 8;
  popt.seed = 17;
  const auto pool =
      tm::cornerPool(tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0), popt);
  const bool warm = state.range(0) != 0;
  util::ThreadPool tp(1);  // time the solver, not the fan-out

  static std::vector<double> cold_ref;
  if (!warm) {
    cold_ref.clear();
    for (const auto& d : pool) {
      routing::OptuEngine engine(g, dags);
      cold_ref.push_back(engine.utilization(d));
    }
  } else if (!cold_ref.empty()) {
    routing::OptuEngine engine(g, dags);
    const std::vector<double> got = engine.utilizationBatch(pool, tp);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (std::abs(got[i] - cold_ref[i]) > 1e-7 * (1.0 + cold_ref[i])) {
        state.SkipWithError("warm OPTU objective differs from cold");
        return;
      }
    }
  }

  const lp::StatsSnapshot before = lp::statsSnapshot();
  for (auto _ : state) {
    if (warm) {
      routing::OptuEngine engine(g, dags);
      benchmark::DoNotOptimize(engine.utilizationBatch(pool, tp));
    } else {
      for (const auto& d : pool) {
        routing::OptuEngine engine(g, dags);
        benchmark::DoNotOptimize(engine.utilization(d));
      }
    }
  }
  const lp::StatsSnapshot delta = lp::statsSnapshot() - before;
  if (delta.solves > 0) {
    state.counters["pivots_per_solve"] =
        static_cast<double>(delta.iterations) /
        static_cast<double>(delta.solves);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pool.size()));
  state.SetLabel(warm ? "warm-chained" : "cold");
}
BENCHMARK(BM_SimplexOptu)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The per-edge worst-case slave LPs on GEANT: Arg(0) is one cold solve per
// edge (fresh session each, the pre-warm-start behavior), Arg(1) the
// oracle's warm-start chains, cross-checked edge-by-edge against cold.
// Arg 0: every edge's LP cold; 1: WorstCaseOracle::find's warm chunked
// chain; 2: findWorstCaseDemand's serial scan pruned by dual bounds.
void BM_SimplexSlaveWarmStart(benchmark::State& state) {
  const Graph g = topo::makeZoo("Geant");
  const auto dags = core::augmentedDagsShared(g);
  const auto ecmp = routing::ecmpConfig(g, dags);
  const int mode = static_cast<int>(state.range(0));

  static std::vector<double> cold_ref;
  if (mode == 0) {
    cold_ref.clear();
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
      cold_ref.push_back(
          routing::findWorstCaseDemandForEdge(g, ecmp, e).ratio);
    }
  } else if (!cold_ref.empty()) {
    // Validate the scan itself: its winning ratio must match the maximum
    // of the independent cold per-edge solves.
    routing::WorstCaseOracle oracle(g, dags, nullptr);
    const double scan_best = mode == 1
                                 ? oracle.find(ecmp).ratio
                                 : routing::findWorstCaseDemand(g, ecmp).ratio;
    double cold_best = 0.0;
    for (const double r : cold_ref) cold_best = std::max(cold_best, r);
    if (std::abs(scan_best - cold_best) > 1e-7 * (1.0 + cold_best)) {
      state.SkipWithError("slave-LP scan objective differs from cold");
      return;
    }
  }

  const lp::StatsSnapshot before = lp::statsSnapshot();
  routing::WorstCaseOracle oracle(g, dags, nullptr);
  for (auto _ : state) {
    if (mode == 1) {
      benchmark::DoNotOptimize(oracle.find(ecmp));
    } else if (mode == 2) {
      benchmark::DoNotOptimize(routing::findWorstCaseDemand(g, ecmp));
    } else {
      double worst = 0.0;
      for (EdgeId e = 0; e < g.numEdges(); ++e) {
        worst = std::max(
            worst, routing::findWorstCaseDemandForEdge(g, ecmp, e).ratio);
      }
      benchmark::DoNotOptimize(worst);
    }
  }
  const lp::StatsSnapshot delta = lp::statsSnapshot() - before;
  if (delta.solves > 0) {
    state.counters["pivots_per_solve"] =
        static_cast<double>(delta.iterations) /
        static_cast<double>(delta.solves);
  }
  state.SetItemsProcessed(state.iterations() * g.numEdges());
  state.SetLabel(mode == 1 ? "warm-chained" : mode == 2 ? "pruned" : "cold");
}
BENCHMARK(BM_SimplexSlaveWarmStart)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_LieSynthesisAllDests(benchmark::State& state) {
  const Graph g = topo::makeZoo("Geant");
  const auto dags = core::augmentedDagsShared(g);
  const auto cfg = routing::RoutingConfig::uniform(g, dags);
  for (auto _ : state) {
    int fake_nodes = 0;
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      fake_nodes += fib::synthesizeLies(g, cfg, t, t, 8).fake_nodes;
    }
    benchmark::DoNotOptimize(fake_nodes);
  }
}
BENCHMARK(BM_LieSynthesisAllDests);

void BM_ApportionSplits(benchmark::State& state) {
  const std::vector<double> ratios = {0.3817, 0.2511, 0.1903, 0.1102, 0.0667};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fib::apportionSplits(ratios, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_ApportionSplits)->Arg(4)->Arg(11)->Arg(32);

void BM_OspfSpfGeant(benchmark::State& state) {
  const Graph g = topo::makeZoo("Geant");
  fib::OspfModel model(g);
  for (NodeId t = 0; t < g.numNodes(); ++t) model.advertisePrefix(t, t);
  for (auto _ : state) {
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      benchmark::DoNotOptimize(model.computeFibs(t));
    }
  }
  state.SetItemsProcessed(state.iterations() * g.numNodes());
}
BENCHMARK(BM_OspfSpfGeant);

void BM_FluidSimulation(benchmark::State& state) {
  const Graph g = topo::prototypeTriangle();
  const NodeId s1 = *g.findNode("s1");
  const NodeId s2 = *g.findNode("s2");
  const NodeId t = *g.findNode("t");
  sim::FluidNetwork net(g);
  for (const sim::PrefixId p : {0, 1}) {
    net.setPrefixOwner(p, t);
    net.setForwarding(p, s1, {{*g.findEdge(s1, t), 0.5},
                              {*g.findEdge(s1, s2), 0.5}});
    net.setForwarding(p, s2, {{*g.findEdge(s2, t), 1.0}});
  }
  net.addFlow({s1, 0, 1.5, 0.0, 45.0});
  net.addFlow({s2, 1, 1.5, 0.0, 45.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.run(45.0, 0.1));
  }
}
BENCHMARK(BM_FluidSimulation);

}  // namespace

BENCHMARK_MAIN();
