// Microbenchmarks of the LP substrate: the simplex solver on the LP
// families the pipeline actually solves (OPTU normalization, base-optimal
// routing, worst-case slave LP), and the min cut that replaces the LP for
// single-destination OPTU.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "../tests/lu_reference.hpp"
#include "core/dag_builder.hpp"
#include "lp/basis.hpp"
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

// LU maintenance on a real basis: the optimal basis of Geant's
// unrestricted OPTU LP (gravity demand) is factorized once, then takes 128
// Forrest-Tomlin updates -- random nonbasic columns entering on the row of
// their largest |alpha| -- refactorizing wherever an update is refused.
// The sequence is fixed in setup; one iteration replays it. Arg 0 replays
// it on lu_reference::LuFactor (the dense-loop factor, tests/), arg 1 on
// lp::LuFactor; both must end with the same ftran and btran, bit for bit.
struct LuReplay {
  int m = 0;
  std::vector<std::vector<lp::ColNz>> cols;  ///< [A | I], by column id
  std::vector<int> basics;                   ///< the optimal basis
  std::vector<std::pair<int, int>> steps;    ///< (leave row, entering col)

  /// Factorizes the basic columns (column id per row, -1 entries skipped)
  /// the way the simplex does: sparsest first, ties by column.
  template <class Lu>
  std::vector<int> refactor(Lu& lu, std::vector<int> at) const {
    std::erase(at, -1);
    std::sort(at.begin(), at.end(), [&](int a, int b) {
      return cols[a].size() != cols[b].size() ? cols[a].size() < cols[b].size()
                                              : a < b;
    });
    std::vector<int> row_counts(m, 0);
    for (const int c : at) {
      for (const lp::ColNz& nz : cols[c]) ++row_counts[nz.row];
    }
    lu.reset(m, std::move(row_counts));
    std::vector<int> at_row(m, -1);
    for (const int c : at) {
      const int piv = lu.addColumn(cols[c], 1e-11);
      if (piv >= 0) at_row[piv] = c;
    }
    const int first_logical = static_cast<int>(cols.size()) - m;
    for (int r = 0; r < m; ++r) {
      if (!lu.rowPivoted(r)) {
        const int piv = lu.addColumn(cols[first_logical + r], 1e-11);
        if (piv >= 0) at_row[piv] = first_logical + r;
      }
    }
    lu.sealRefactor();
    return at_row;
  }

  /// One refactorization and the update sequence; returns ftran and btran
  /// of a fixed dense vector on the final factor.
  template <class Lu>
  std::vector<double> replay(Lu& lu) const {
    std::vector<int> at_row = refactor(lu, basics);
    for (const auto& [leave, enter] : steps) {
      if (lu.update(leave, cols[enter])) {
        at_row[leave] = enter;
      } else {
        at_row = refactor(lu, at_row);
      }
    }
    std::vector<double> z(m), y(m);
    for (int r = 0; r < m; ++r) z[r] = y[r] = 1.0 + r % 7;
    lu.ftran(z);
    lu.btran(y);
    z.insert(z.end(), y.begin(), y.end());
    return z;
  }

  LuReplay() {
    const Graph g = topo::makeZoo("Geant");
    const tm::TrafficMatrix d = tm::gravityMatrix(g, 1.0);
    const int E = g.numEdges();
    // minimize alpha s.t. per destination t: flow conservation with
    // demand d(u,t) on u's row; per edge: sum_t f_t(e) - c(e) alpha <= 0.
    lp::LpProblem p;
    const int alpha = p.addVar(1.0);
    std::vector<std::vector<lp::Term>> cap_rows(E);
    std::vector<std::vector<lp::Term>> rows;
    std::vector<double> rhs;
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      if (!d.hasDemandTo(t)) continue;
      const int first = p.numVars();
      for (EdgeId e = 0; e < E; ++e) {
        p.addVar(0.0);
        cap_rows[e].push_back({first + e, 1.0});
      }
      for (NodeId u = 0; u < g.numNodes(); ++u) {
        if (u == t) continue;
        std::vector<lp::Term> row;
        for (const EdgeId e : g.outEdges(u)) row.push_back({first + e, 1.0});
        for (const EdgeId e : g.inEdges(u)) row.push_back({first + e, -1.0});
        rows.push_back(std::move(row));
        rhs.push_back(d.at(u, t));
      }
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      p.addConstraint(rows[i], lp::Rel::kEq, rhs[i]);
    }
    for (EdgeId e = 0; e < E; ++e) {
      cap_rows[e].push_back({alpha, -g.edge(e).capacity});
      rows.push_back(cap_rows[e]);
      p.addConstraint(cap_rows[e], lp::Rel::kLe, 0.0);
    }
    const lp::LpResult res = lp::solve(p);
    m = p.numRows();
    const int n = p.numVars();
    cols.assign(static_cast<std::size_t>(n) + m, {});
    for (int i = 0; i < m; ++i) {
      for (const lp::Term& t : rows[i]) cols[t.var].push_back({i, t.coef});
      cols[n + i].push_back({i, 1.0});
    }
    std::vector<int> nonbasic;
    for (int c = 0; c < n + m; ++c) {
      (res.basis.status[c] == lp::Basis::kBasic ? basics : nonbasic)
          .push_back(c);
    }
    // The update sequence, chosen on a reference factor.
    lu_reference::LuFactor lu;
    std::vector<int> at_row = refactor(lu, basics);
    std::mt19937_64 rng(5);
    std::uniform_int_distribution<std::size_t> pick(0, nonbasic.size() - 1);
    while (steps.size() < 128) {
      const int enter = nonbasic[pick(rng)];
      if (std::find(at_row.begin(), at_row.end(), enter) != at_row.end()) {
        continue;
      }
      std::vector<double> a(m, 0.0);
      for (const lp::ColNz& nz : cols[enter]) a[nz.row] = nz.val;
      lu.ftran(a);
      int leave = 0;
      for (int r = 1; r < m; ++r) {
        if (std::abs(a[r]) > std::abs(a[leave])) leave = r;
      }
      if (a[leave] == 0.0) continue;
      steps.emplace_back(leave, enter);
      if (lu.update(leave, cols[enter])) {
        at_row[leave] = enter;
      } else {
        at_row = refactor(lu, at_row);
      }
    }
  }
};

void BM_LuRefactorAndUpdates(benchmark::State& state) {
  static const LuReplay replay;
  static const std::vector<double> expected = [] {
    lu_reference::LuFactor lu;
    return replay.replay(lu);
  }();
  const auto run = [&]() -> std::vector<double> {
    if (state.range(0) == 0) {
      lu_reference::LuFactor lu;
      return replay.replay(lu);
    }
    lp::LuFactor lu;
    return replay.replay(lu);
  };
  for (auto _ : state) {
    const std::vector<double> out = run();
    if (!std::equal(out.begin(), out.end(), expected.begin(),
                    [](double a, double b) {
                      return std::bit_cast<std::uint64_t>(a) ==
                             std::bit_cast<std::uint64_t>(b);
                    })) {
      state.SkipWithError("ftran/btran differ from the reference factor's");
      break;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(std::string(state.range(0) == 0 ? "reference" : "lp::LuFactor") +
                 ", m=" + std::to_string(replay.m) + ", " +
                 std::to_string(replay.steps.size()) + " updates");
}
BENCHMARK(BM_LuRefactorAndUpdates)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
