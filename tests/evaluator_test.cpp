// Pool invariants and thread-count determinism of PerformanceEvaluator.
#include "routing/evaluator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/dag_builder.hpp"
#include "routing/ecmp.hpp"
#include "routing/optu.hpp"
#include "routing/propagation.hpp"
#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"
#include "topo/zoo.hpp"

namespace coyote {
namespace {

struct AbileneFixture {
  Graph g = topo::makeZoo("Abilene");
  std::shared_ptr<const DagSet> dags = core::augmentedDagsShared(g);
  tm::TrafficMatrix base = tm::gravityMatrix(g, 10.0);

  std::vector<tm::TrafficMatrix> cornerPool(double margin) const {
    tm::PoolOptions opt;
    opt.random_corners = 4;
    opt.source_hotspots = false;
    opt.seed = 3;
    return tm::cornerPool(tm::marginBounds(base, margin), opt);
  }
};

TEST(PerformanceEvaluator, PooledMatricesAreNormalizedToUnitOptu) {
  const AbileneFixture f;
  routing::PerformanceEvaluator eval(f.g, f.dags);
  eval.addPool(f.cornerPool(2.0));
  ASSERT_GT(eval.size(), 0);
  for (int i = 0; i < eval.size(); ++i) {
    EXPECT_NEAR(routing::optimalUtilization(f.g, *f.dags, eval.matrix(i)), 1.0,
                1e-6)
        << "pool matrix " << i;
  }
}

TEST(PerformanceEvaluator, ScaledDuplicatesCollapse) {
  const AbileneFixture f;
  routing::PerformanceEvaluator eval(f.g, f.dags);
  const int first = eval.addMatrix(f.base);
  ASSERT_EQ(first, 0);
  // Normalization divides by OPTU, so any positive rescaling of the same
  // matrix lands on the already-pooled normalized matrix.
  tm::TrafficMatrix tripled = f.base;
  tripled.scale(3.0);
  EXPECT_EQ(eval.addMatrix(tripled), -1);
  EXPECT_EQ(eval.addMatrix(f.base), -1);
  EXPECT_EQ(eval.size(), 1);
}

TEST(PerformanceEvaluator, ZeroDemandMatrixIsIgnored) {
  const AbileneFixture f;
  routing::PerformanceEvaluator eval(f.g, f.dags);
  EXPECT_EQ(eval.addMatrix(tm::TrafficMatrix(f.g.numNodes())), -1);
  EXPECT_EQ(eval.size(), 0);
}

TEST(PerformanceEvaluator, AddPoolMatchesSequentialAddMatrix) {
  const AbileneFixture f;
  const auto pool = f.cornerPool(1.5);

  routing::PerformanceEvaluator batched(f.g, f.dags);
  batched.addPool(pool);
  routing::PerformanceEvaluator sequential(f.g, f.dags);
  for (const auto& d : pool) sequential.addMatrix(d);

  // addPool normalizes in fixed warm-start chunks while addMatrix chains
  // one retained session, so the two paths may take different pivot
  // sequences to the same optimum: the normalized matrices agree to LP
  // round-off (the evaluator's own dedup tolerance), not bit-for-bit.
  ASSERT_EQ(batched.size(), sequential.size());
  for (int i = 0; i < batched.size(); ++i) {
    const tm::TrafficMatrix& a = batched.matrix(i);
    const tm::TrafficMatrix& b = sequential.matrix(i);
    for (NodeId s = 0; s < f.g.numNodes(); ++s) {
      for (NodeId t = 0; t < f.g.numNodes(); ++t) {
        EXPECT_NEAR(a.at(s, t), b.at(s, t),
                    1e-9 * (1.0 + std::abs(a.at(s, t))))
            << "index " << i << " pair (" << s << "," << t << ")";
      }
    }
  }
}

TEST(PerformanceEvaluator, EmptyPoolRatioIsZeroAndWorstIndexInvalid) {
  const AbileneFixture f;
  const routing::PerformanceEvaluator eval(f.g, f.dags);
  const auto cfg = routing::RoutingConfig::uniform(f.g, f.dags);
  EXPECT_DOUBLE_EQ(eval.ratioFor(cfg), 0.0);
  EXPECT_EQ(eval.worst(cfg).first, -1);
}

TEST(PerformanceEvaluator, WorstReturnsArgmaxOfPerMatrixUtilization) {
  const AbileneFixture f;
  routing::PerformanceEvaluator eval(f.g, f.dags);
  eval.addPool(f.cornerPool(2.0));
  ASSERT_GT(eval.size(), 1);
  const auto cfg = routing::ecmpConfig(f.g, f.dags);
  const auto [arg, ratio] = eval.worst(cfg);
  ASSERT_GE(arg, 0);
  EXPECT_DOUBLE_EQ(ratio, eval.ratioFor(cfg));
  // No pooled matrix does worse, and the reported one reproduces the max.
  double recomputed = 0.0;
  for (int i = 0; i < eval.size(); ++i) {
    const double u = routing::maxLinkUtilization(f.g, cfg, eval.matrix(i));
    EXPECT_LE(u, ratio + 1e-12);
    if (i == arg) recomputed = u;
  }
  EXPECT_DOUBLE_EQ(recomputed, ratio);
}

// --- determinism across thread counts ------------------------------------

TEST(PerformanceEvaluator, AddPoolIsBitIdenticalAcrossThreadCounts) {
  const AbileneFixture f;
  const auto pool = f.cornerPool(2.0);
  std::vector<std::unique_ptr<util::ThreadPool>> tps;
  std::vector<std::unique_ptr<routing::PerformanceEvaluator>> evals;
  for (const unsigned threads : {1u, 2u, 8u}) {
    tps.push_back(std::make_unique<util::ThreadPool>(threads));
    auto e = std::make_unique<routing::PerformanceEvaluator>(f.g, f.dags);
    e->setThreadPool(*tps.back());
    ASSERT_EQ(&e->threadPool(), tps.back().get());
    e->addPool(pool);
    evals.push_back(std::move(e));
  }
  ASSERT_GT(evals[0]->size(), 0);
  for (std::size_t k = 1; k < evals.size(); ++k) {
    ASSERT_EQ(evals[k]->size(), evals[0]->size());
    for (int i = 0; i < evals[0]->size(); ++i) {
      // operator== compares raw doubles: bit-identical pools, same order.
      EXPECT_TRUE(evals[k]->matrix(i) == evals[0]->matrix(i))
          << "threads run " << k << ", matrix " << i;
    }
  }
}

TEST(PerformanceEvaluator, RatioForIsBitIdenticalAcrossThreadCounts) {
  const AbileneFixture f;
  util::ThreadPool one(1);
  routing::PerformanceEvaluator eval(f.g, f.dags);
  EXPECT_EQ(&eval.threadPool(), &util::ThreadPool::global());
  eval.setThreadPool(one);
  eval.addPool(f.cornerPool(2.0));
  ASSERT_GT(eval.size(), 1);

  const auto ecmp = routing::ecmpConfig(f.g, f.dags);
  const auto uniform = routing::RoutingConfig::uniform(f.g, f.dags);
  for (const auto* cfg : {&ecmp, &uniform}) {
    eval.setThreadPool(one);
    const auto serial = eval.worst(*cfg);
    for (const unsigned threads : {2u, 8u}) {
      util::ThreadPool tp(threads);
      eval.setThreadPool(tp);
      ASSERT_EQ(&eval.threadPool(), &tp);
      const auto parallel = eval.worst(*cfg);
      EXPECT_EQ(parallel.first, serial.first) << threads << " threads";
      // Bit-identical, not just close: reduction order is serial.
      EXPECT_EQ(parallel.second, serial.second) << threads << " threads";
      EXPECT_EQ(eval.ratioFor(*cfg), serial.second) << threads << " threads";
    }
  }
}

// --- require() failure paths ---------------------------------------------

TEST(PerformanceEvaluator, NullDagSetThrows) {
  const AbileneFixture f;
  EXPECT_THROW(routing::PerformanceEvaluator(f.g, nullptr),
               std::invalid_argument);
}

TEST(PerformanceEvaluator, MatrixSizeMismatchThrows) {
  const AbileneFixture f;
  routing::PerformanceEvaluator eval(f.g, f.dags);
  const tm::TrafficMatrix wrong(f.g.numNodes() + 1);
  EXPECT_THROW(eval.addMatrix(wrong), std::invalid_argument);
  EXPECT_THROW(eval.addPool({wrong}), std::invalid_argument);
}

TEST(PerformanceEvaluator, AddPoolValidatesBeforePartialInsert) {
  const AbileneFixture f;
  routing::PerformanceEvaluator eval(f.g, f.dags);
  // A bad matrix anywhere in the batch must leave the pool untouched.
  EXPECT_THROW(eval.addPool({f.base, tm::TrafficMatrix(2)}),
               std::invalid_argument);
  EXPECT_EQ(eval.size(), 0);
}

}  // namespace
}  // namespace coyote
