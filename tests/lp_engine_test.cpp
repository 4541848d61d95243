// The sparse revised-simplex session engine: warm starts, mutations
// (setObjective / setRhs / setBounds / addRow), bounded-variable corner
// cases, degenerate/cycling instances, OPTU engine chains against a
// one-shot reference LP, and -- under COYOTE_FULL=1 -- the same check over
// every registered scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dag_builder.hpp"
#include "exp/scenario.hpp"
#include "failure/degrade.hpp"
#include "failure/scenario.hpp"
#include "lp/lp.hpp"
#include "lp/stats.hpp"
#include "routing/config.hpp"
#include "routing/ecmp.hpp"
#include "routing/optu.hpp"
#include "routing/propagation.hpp"
#include "routing/worst_case.hpp"
#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace coyote::lp {
namespace {

constexpr double kTol = 1e-7;

LpProblem productionPlan() {
  // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 -> (3, 1.5), obj 21.
  LpProblem p(Sense::kMaximize);
  const int x = p.addVar(5.0);
  const int y = p.addVar(4.0);
  p.addConstraint({{x, 6.0}, {y, 4.0}}, Rel::kLe, 24.0);
  p.addConstraint({{x, 1.0}, {y, 2.0}}, Rel::kLe, 6.0);
  return p;
}

TEST(SimplexSession, SolveMatchesOneShot) {
  SimplexSolver session(productionPlan());
  const LpResult warm = session.solve();
  const LpResult cold = solve(productionPlan());
  ASSERT_EQ(warm.status, Status::kOptimal);
  EXPECT_NEAR(warm.objective, 21.0, kTol);
  EXPECT_DOUBLE_EQ(warm.objective, cold.objective);
  EXPECT_FALSE(warm.basis.empty());
}

TEST(SimplexSession, WarmObjectiveChangeAgreesWithCold) {
  SimplexSolver session(productionPlan());
  ASSERT_EQ(session.solve().status, Status::kOptimal);

  session.setObjective(0, 1.0);  // max x + 4y now
  const LpResult warm = session.solve();
  LpProblem changed = productionPlan();
  changed.setObjective(0, 1.0);
  const LpResult cold = solve(changed);
  ASSERT_EQ(warm.status, Status::kOptimal);
  ASSERT_EQ(cold.status, Status::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective,
              kTol * (1.0 + std::abs(cold.objective)));
  // The re-solve should be cheaper than the cold solve (few pivots from a
  // retained basis; never more than the cold iteration count + slack).
  EXPECT_LE(warm.stats.phase1_iters, 0);
}

TEST(SimplexSession, WarmRhsChangeAgreesWithCold) {
  SimplexSolver session(productionPlan());
  ASSERT_EQ(session.solve().status, Status::kOptimal);

  session.setRhs(0, 12.0);
  session.setRhs(1, 9.0);
  const LpResult warm = session.solve();
  LpProblem changed(Sense::kMaximize);
  const int x = changed.addVar(5.0);
  const int y = changed.addVar(4.0);
  changed.addConstraint({{x, 6.0}, {y, 4.0}}, Rel::kLe, 12.0);
  changed.addConstraint({{x, 1.0}, {y, 2.0}}, Rel::kLe, 9.0);
  const LpResult cold = solve(changed);
  ASSERT_EQ(warm.status, Status::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective,
              kTol * (1.0 + std::abs(cold.objective)));
}

TEST(SimplexSession, WarmBoundChangeAgreesWithCold) {
  SimplexSolver session(productionPlan());
  ASSERT_EQ(session.solve().status, Status::kOptimal);

  session.setBounds(0, 0.0, 1.5);  // cap x
  const LpResult warm = session.solve();
  ASSERT_EQ(warm.status, Status::kOptimal);
  // x pinned to its (binding) cap; y fills the second constraint.
  EXPECT_NEAR(warm.x[0], 1.5, kTol);
  EXPECT_NEAR(warm.objective, 5.0 * 1.5 + 4.0 * 2.25, 1e-6);

  session.setBounds(0, 0.7, 0.7);  // ub == lb: fixed variable
  const LpResult fixed = session.solve();
  ASSERT_EQ(fixed.status, Status::kOptimal);
  EXPECT_NEAR(fixed.x[0], 0.7, kTol);

  session.setBounds(0, 0.0, kInfinity);  // back to unbounded above
  const LpResult relaxed = session.solve();
  ASSERT_EQ(relaxed.status, Status::kOptimal);
  EXPECT_NEAR(relaxed.objective, 21.0, 1e-6);
}

TEST(SimplexSession, AddRowCutsTheOptimum) {
  SimplexSolver session(productionPlan());
  const LpResult before = session.solve();
  ASSERT_EQ(before.status, Status::kOptimal);
  EXPECT_NEAR(before.objective, 21.0, kTol);

  // A violated cutting plane through the old optimum (3, 1.5).
  const int row = session.addRow({{0, 1.0}, {1, 1.0}}, Rel::kLe, 3.0);
  EXPECT_EQ(row, 2);
  const LpResult after = session.solve();
  ASSERT_EQ(after.status, Status::kOptimal);
  EXPECT_LT(after.objective, before.objective - 1e-6);
  EXPECT_LE(after.x[0] + after.x[1], 3.0 + kTol);

  LpProblem cut = productionPlan();
  cut.addConstraint({{0, 1.0}, {1, 1.0}}, Rel::kLe, 3.0);
  const LpResult cold = solve(cut);
  EXPECT_NEAR(after.objective, cold.objective,
              kTol * (1.0 + std::abs(cold.objective)));
}

TEST(SimplexSession, RetainedBasisSurvivesInfeasibleInterlude) {
  SimplexSolver session(productionPlan());
  ASSERT_EQ(session.solve().status, Status::kOptimal);
  session.setRhs(0, -1.0);  // 6x + 4y <= -1 with x,y >= 0: infeasible
  EXPECT_EQ(session.solve().status, Status::kInfeasible);
  session.setRhs(0, 24.0);
  const LpResult back = session.solve();
  ASSERT_EQ(back.status, Status::kOptimal);
  EXPECT_NEAR(back.objective, 21.0, 1e-6);
}

TEST(SimplexSession, ExternalBasisWarmStartsAClone) {
  SimplexSolver a(productionPlan());
  const LpResult ra = a.solve();
  ASSERT_EQ(ra.status, Status::kOptimal);

  SimplexSolver b(productionPlan());
  b.setBasis(ra.basis);
  const LpResult rb = b.solve();
  ASSERT_EQ(rb.status, Status::kOptimal);
  EXPECT_DOUBLE_EQ(rb.objective, ra.objective);
  EXPECT_EQ(rb.stats.iterations, 0);  // already optimal
}

TEST(SimplexSession, SetBasisResetsTheRhsEditHistory) {
  // Rewriting every rhs of a solved session vetoes the dual simplex (a
  // whole new matrix), but a basis installed afterwards is judged by how
  // many of its basics the new rhs violates. Here the installed basis is
  // optimal for the neighbouring rhs (12, 7): {y, s2} stays dual feasible
  // at (12, 5), where only s2 = -1 is violated, so one dual pivot repairs
  // it and phase 1 never runs.
  SimplexSolver session(productionPlan());
  ASSERT_EQ(session.solve().status, Status::kOptimal);

  LpProblem neighbour = productionPlan();
  neighbour.setConstraintRhs(0, 12.0);
  neighbour.setConstraintRhs(1, 7.0);
  const LpResult near = solve(neighbour);
  ASSERT_EQ(near.status, Status::kOptimal);
  EXPECT_NEAR(near.objective, 12.0, kTol);

  session.setRhs(0, 12.0);
  session.setRhs(1, 5.0);
  session.setBasis(near.basis);
  const LpResult r = session.solve();
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 11.5, kTol);  // x = 0.5, y = 2.25
  EXPECT_EQ(r.stats.phase1_iters, 0);
  EXPECT_GT(r.stats.dual_pivots, 0);
}

TEST(SimplexSession, StaleBasisAfterBoundFlipIsRepaired) {
  // Install the optimal basis, then change bounds so it is primal
  // infeasible: the composite phase 1 must repair it, not crash.
  SimplexSolver session(productionPlan());
  const LpResult first = session.solve();
  ASSERT_EQ(first.status, Status::kOptimal);
  session.setBounds(0, 2.9, 3.2);
  session.setBounds(1, 0.0, 0.4);
  const LpResult repaired = session.solve();
  ASSERT_EQ(repaired.status, Status::kOptimal);
  EXPECT_GE(repaired.x[0], 2.9 - kTol);
  EXPECT_LE(repaired.x[1], 0.4 + kTol);
}

TEST(SimplexEngine, BealeCyclingInstanceTerminates) {
  // Beale's classic cycling example: Dantzig pricing cycles without an
  // anti-cycling rule; the stall detector must fall back to Bland and
  // terminate at the optimum (objective -0.05).
  SimplexOptions opt;
  opt.stall_limit = 6;  // force the fallback quickly
  LpProblem p(Sense::kMinimize);
  const int x1 = p.addVar(-0.75);
  const int x2 = p.addVar(150.0);
  const int x3 = p.addVar(-0.02);
  const int x4 = p.addVar(6.0);
  p.addConstraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                  Rel::kLe, 0.0);
  p.addConstraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                  Rel::kLe, 0.0);
  p.addConstraint({{x3, 1.0}}, Rel::kLe, 1.0);
  const LpResult r = solve(p, opt);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-9);
}

TEST(SimplexEngine, DevexAndBlandAgreeOnBealeInstance) {
  // The same instance under devex with an immediate Bland fallback
  // (stall_limit = 0 trips it on the first degenerate pivot), an early
  // one, and the default. All three must land on the same optimum.
  LpProblem p(Sense::kMinimize);
  const int x1 = p.addVar(-0.75);
  const int x2 = p.addVar(150.0);
  const int x3 = p.addVar(-0.02);
  const int x4 = p.addVar(6.0);
  p.addConstraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                  Rel::kLe, 0.0);
  p.addConstraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                  Rel::kLe, 0.0);
  p.addConstraint({{x3, 1.0}}, Rel::kLe, 1.0);

  for (const int stall_limit : {0, 6, 2000}) {
    SimplexOptions opt;
    opt.stall_limit = stall_limit;
    const LpResult r = solve(p, opt);
    ASSERT_EQ(r.status, Status::kOptimal) << "stall_limit=" << stall_limit;
    EXPECT_NEAR(r.objective, -0.05, 1e-9) << "stall_limit=" << stall_limit;
  }
}

TEST(SimplexEngine, HarrisRatioTestSolvesDegenerateVertices) {
  {  // Eight redundant hyperplanes through the optimum: every ratio test
    // ties, so the Harris second pass picks among equal-step blockers by
    // pivot magnitude. Optimum is x = (2, 0, 2), objective 4 + 2eps... the
    // exact value: max x+y+z with x+ky+z <= 4 (k=1..8), x <= 2 -> (2,0,2).
    LpProblem p(Sense::kMaximize);
    const int x = p.addVar(1.0);
    const int y = p.addVar(1.0);
    const int z = p.addVar(1.0);
    for (int k = 1; k <= 8; ++k) {
      p.addConstraint({{x, 1.0}, {y, static_cast<double>(k)}, {z, 1.0}},
                      Rel::kLe, 4.0);
    }
    p.addConstraint({{x, 1.0}}, Rel::kLe, 2.0);
    const LpResult r = solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_NEAR(r.objective, 4.0, kTol);
  }
  {  // Near-degenerate: twelve parallel copies of x + y <= 3 with rhs
    // values split by 1e-10. Any entering step hits the whole cluster at
    // once; the relaxed Harris first pass must treat it as one blocker
    // instead of grinding through 1e-10-sized steps. Optimum: y at its
    // cap, x fills the tightest copy -> (1, 2), objective 5.
    LpProblem p(Sense::kMaximize);
    const int x = p.addVar(1.0);
    const int y = p.addVar(2.0, 0.0, 2.0);
    for (int k = 0; k < 12; ++k) {
      p.addConstraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 3.0 + 1e-10 * k);
    }
    const LpResult r = solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_NEAR(r.objective, 5.0, 1e-6);
  }
  {  // Fully degenerate origin (all rhs zero): phase 2 starts on a vertex
    // where every basic variable sits exactly on its bound. The engine
    // must prove optimality (objective 0) without cycling.
    LpProblem p(Sense::kMaximize);
    const int x = p.addVar(1.0);
    const int y = p.addVar(1.0);
    p.addConstraint({{x, 1.0}, {y, -1.0}}, Rel::kLe, 0.0);
    p.addConstraint({{x, -1.0}, {y, 1.0}}, Rel::kLe, 0.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 0.0);
    const LpResult r = solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_NEAR(r.objective, 0.0, kTol);
  }
}

TEST(SimplexEngine, LongWarmChainExercisesLuUpdatesAndRefactorization) {
  // 96 mutations against one retained session with an aggressive
  // refactorization cadence (refactor_every = 4), so the chain crosses the
  // update-count threshold dozens of times and every Forrest-Tomlin update
  // path runs between crossings. Every re-solve is checked against an
  // independent cold solve of the mutated problem.
  SimplexOptions opt;
  opt.refactor_every = 4;
  LpProblem p(Sense::kMaximize);
  constexpr int kVars = 8;
  for (int j = 0; j < kVars; ++j) {
    p.addVar(1.0 + 0.1 * j, 0.0, 4.0);
  }
  for (int i = 0; i + 2 < kVars; ++i) {  // overlapping band rows
    p.addConstraint({{i, 1.0}, {i + 1, 1.0}, {i + 2, 1.0}}, Rel::kLe, 5.0);
  }
  SimplexSolver session(p, opt);
  ASSERT_EQ(session.solve().status, Status::kOptimal);

  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<int> pick(0, 99);
  std::uniform_real_distribution<double> rhs(1.0, 8.0);
  std::uniform_real_distribution<double> coef(-1.0, 3.0);
  int total_updates = 0;
  int total_refactors = 0;
  for (int step = 0; step < 96; ++step) {
    const int what = pick(rng);
    if (what < 50) {  // rhs swing: forces pivots to restore feasibility
      const int i = what % p.numRows();
      const double b = rhs(rng);
      p.setConstraintRhs(i, b);
      session.setRhs(i, b);
    } else if (what < 80) {  // objective swing: forces phase-2 pivots
      const int j = what % kVars;
      const double c = coef(rng);
      p.setObjective(j, c);
      session.setObjective(j, c);
    } else {  // bound squeeze / release
      const int j = what % kVars;
      const double ub = what < 90 ? 0.5 : 4.0;
      p.setVarBounds(j, 0.0, ub);
      session.setBounds(j, 0.0, ub);
    }
    const LpResult warm = session.solve();
    const LpResult cold = solve(p, opt);
    ASSERT_EQ(warm.status, cold.status) << "step " << step;
    if (cold.optimal()) {
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-7 * (1.0 + std::abs(cold.objective)))
          << "step " << step;
    }
    total_updates += warm.stats.lu_updates;
    total_refactors += warm.stats.refactorizations;
  }
  // The chain genuinely exercised the Forrest-Tomlin machinery: updates
  // happened, and the cadence threshold forced mid-solve refactorizations
  // well beyond the one-per-warm-start minimum.
  EXPECT_GT(total_updates, 32);
  EXPECT_GT(total_refactors, 8);
}

TEST(SimplexEngine, HighlyDegenerateWarmRestartsStayOptimal) {
  // Many redundant constraints through one vertex; re-solves with permuted
  // objectives from the retained basis must keep matching cold solves.
  std::mt19937_64 rng(7);
  LpProblem p(Sense::kMaximize);
  const int x = p.addVar(1.0);
  const int y = p.addVar(1.0);
  const int z = p.addVar(1.0);
  for (int k = 1; k <= 8; ++k) {
    p.addConstraint({{x, 1.0}, {y, static_cast<double>(k)}, {z, 1.0}},
                    Rel::kLe, 4.0);
  }
  p.addConstraint({{x, 1.0}}, Rel::kLe, 2.0);
  SimplexSolver session(p);
  std::uniform_real_distribution<double> coef(-1.0, 2.0);
  for (int round = 0; round < 20; ++round) {
    const double cx = coef(rng), cy = coef(rng), cz = coef(rng);
    session.setObjective(x, cx);
    session.setObjective(y, cy);
    session.setObjective(z, cz);
    LpProblem cold_p = p;
    cold_p.setObjective(x, cx);
    cold_p.setObjective(y, cy);
    cold_p.setObjective(z, cz);
    const LpResult warm = session.solve();
    const LpResult cold = solve(cold_p);
    ASSERT_EQ(warm.status, Status::kOptimal) << "round " << round;
    ASSERT_EQ(cold.status, Status::kOptimal) << "round " << round;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-7 * (1.0 + std::abs(cold.objective)))
        << "round " << round;
  }
}

TEST(SimplexEngine, BoundedVariableCornerCases) {
  {  // All variables fixed (lb == ub): the LP is a point.
    LpProblem p(Sense::kMinimize);
    const int x = p.addVar(3.0, 2.0, 2.0);
    const int y = p.addVar(-1.0, 0.5, 0.5);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 10.0);
    const LpResult r = solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_DOUBLE_EQ(r.x[x], 2.0);
    EXPECT_DOUBLE_EQ(r.x[y], 0.5);
    EXPECT_NEAR(r.objective, 5.5, kTol);
  }
  {  // Fixed variable conflicting with a constraint: infeasible.
    LpProblem p(Sense::kMinimize);
    const int x = p.addVar(1.0, 2.0, 2.0);
    p.addConstraint({{x, 1.0}}, Rel::kLe, 1.0);
    EXPECT_EQ(solve(p).status, Status::kInfeasible);
  }
  {  // Maximize along an unbounded-above variable: unbounded.
    LpProblem p(Sense::kMaximize);
    const int x = p.addVar(1.0, 0.0, kInfinity);
    p.addConstraint({{x, -1.0}}, Rel::kLe, 5.0);
    EXPECT_EQ(solve(p).status, Status::kUnbounded);
  }
  {  // Negative lower bounds; optimum at a mixed-bound vertex.
    LpProblem p(Sense::kMinimize);
    const int x = p.addVar(1.0, -3.0, 7.0);
    const int y = p.addVar(-2.0, -1.0, 4.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Rel::kGe, -2.0);
    const LpResult r = solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_NEAR(r.x[x], -3.0, kTol);  // pushed to its lower bound
    EXPECT_NEAR(r.x[y], 4.0, kTol);   // pulled to its upper bound
    EXPECT_NEAR(r.objective, -11.0, kTol);
  }
  {  // A bound flip is the optimal move (no basis change needed).
    LpProblem p(Sense::kMaximize);
    const int x = p.addVar(1.0, 0.0, 2.0);
    p.addConstraint({{x, 1.0}}, Rel::kLe, 100.0);  // slack never binds
    const LpResult r = solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_NEAR(r.x[x], 2.0, kTol);
  }
}

TEST(SimplexEngine, StatsAccumulateGlobally) {
  const StatsSnapshot before = statsSnapshot();
  (void)solve(productionPlan());
  const StatsSnapshot delta = statsSnapshot() - before;
  EXPECT_EQ(delta.solves, 1);
  EXPECT_GT(delta.iterations, 0);
  EXPECT_GE(delta.refactorizations, 1);
  EXPECT_EQ(delta.iter_limit_solves, 0);
  EXPECT_GE(delta.seconds, 0.0);
}

TEST(SimplexEngine, IterationLimitIsCounted) {
  const StatsSnapshot before = statsSnapshot();
  SimplexOptions opt;
  opt.max_iterations = 1;
  LpProblem p = productionPlan();
  const LpResult r = solve(p, opt);
  EXPECT_EQ(r.status, Status::kIterLimit);
  EXPECT_EQ((statsSnapshot() - before).iter_limit_solves, 1);
}

TEST(SimplexEngine, RowDualsCloseTheGap) {
  // Every variable rests on lower bound 0 with no finite upper bound, so
  // strong duality reads rhs . y == objective, and each row dual carries
  // the sign its relation and the sense dictate.
  struct Instance {
    std::string name;
    LpProblem p;
    std::vector<Rel> rels;
  };
  std::vector<Instance> cases;
  cases.push_back({"production plan", productionPlan(), {Rel::kLe, Rel::kLe}});
  {  // Beale's cycling instance (minimize, <= rows, objective -0.05).
    LpProblem p(Sense::kMinimize);
    const int x1 = p.addVar(-0.75);
    const int x2 = p.addVar(150.0);
    const int x3 = p.addVar(-0.02);
    const int x4 = p.addVar(6.0);
    p.addConstraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                    Rel::kLe, 0.0);
    p.addConstraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                    Rel::kLe, 0.0);
    p.addConstraint({{x3, 1.0}}, Rel::kLe, 1.0);
    cases.push_back({"beale", std::move(p), {Rel::kLe, Rel::kLe, Rel::kLe}});
  }
  {  // Eight redundant hyperplanes through the optimum (degenerate).
    LpProblem p(Sense::kMaximize);
    const int x = p.addVar(1.0);
    const int y = p.addVar(1.0);
    const int z = p.addVar(1.0);
    std::vector<Rel> rels;
    for (int k = 1; k <= 8; ++k) {
      p.addConstraint({{x, 1.0}, {y, static_cast<double>(k)}, {z, 1.0}},
                      Rel::kLe, 4.0);
      rels.push_back(Rel::kLe);
    }
    p.addConstraint({{x, 1.0}}, Rel::kLe, 2.0);
    rels.push_back(Rel::kLe);
    cases.push_back({"redundant hyperplanes", std::move(p), rels});
  }
  {  // Minimize over >= and = rows: x + y >= 4, x - y = 1 -> (2.5, 1.5).
    LpProblem p(Sense::kMinimize);
    const int x = p.addVar(2.0);
    const int y = p.addVar(3.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Rel::kGe, 4.0);
    p.addConstraint({{x, 1.0}, {y, -1.0}}, Rel::kEq, 1.0);
    cases.push_back({"diet", std::move(p), {Rel::kGe, Rel::kEq}});
  }
  {  // Maximize with a >= row that binds against the objective.
    LpProblem p(Sense::kMaximize);
    const int x = p.addVar(-1.0);
    const int y = p.addVar(1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Rel::kGe, 3.0);
    p.addConstraint({{y, 1.0}}, Rel::kLe, 1.0);
    cases.push_back({"max with >=", std::move(p), {Rel::kGe, Rel::kLe}});
  }

  for (const Instance& c : cases) {
    const LpResult r = solve(c.p);
    ASSERT_EQ(r.status, Status::kOptimal) << c.name;
    ASSERT_EQ(r.row_duals.size(), c.rels.size()) << c.name;
    const bool maximize = c.p.sense() == Sense::kMaximize;
    double by = 0.0;
    for (std::size_t i = 0; i < c.rels.size(); ++i) {
      const double y = r.row_duals[i];
      by += c.p.rowRhs(static_cast<int>(i)) * y;
      // d(objective)/d(rhs): loosening a <= row helps a max, hurts a min.
      if (c.rels[i] == Rel::kLe) {
        EXPECT_GE(maximize ? y : -y, -1e-9) << c.name << " row " << i;
      } else if (c.rels[i] == Rel::kGe) {
        EXPECT_LE(maximize ? y : -y, 1e-9) << c.name << " row " << i;
      }
    }
    EXPECT_NEAR(by, r.objective, 1e-9 * (1.0 + std::abs(r.objective)))
        << c.name;
  }
}

// --- Worst-case oracle: degenerate box semantics. ------------------------

TEST(WorstCaseOracleTest, UnroutableBoxLowerBoundPinsLambdaToZero) {
  // A box pair with a positive lower bound the DAGs cannot carry admits
  // no lambda > 0 scaling of the box: every edge's worst-case ratio is 0
  // (the legacy per-edge LP reached the same verdict through a pinned
  // demand variable; the oracle must not silently drop the pair).
  const Graph g = exp::ScenarioRegistry::global()
                      .find("running-example")
                      ->topology.build();
  const int n = g.numNodes();
  // DAGs that route nothing anywhere: destination 0 only, no edges.
  DagSet dags;
  for (NodeId dest = 0; dest < n; ++dest) {
    dags.emplace_back(g, dest, std::vector<EdgeId>{});
  }
  auto shared = std::make_shared<const DagSet>(std::move(dags));
  routing::RoutingConfig cfg(g, shared);

  tm::TrafficMatrix lo(n), hi(n);
  lo.set(1, 0, 0.5);  // mandatory demand no empty DAG can route
  hi.set(1, 0, 1.0);
  const tm::DemandBounds box{lo, hi};
  const auto wc = routing::findWorstCaseDemand(g, cfg, &box);
  EXPECT_DOUBLE_EQ(wc.ratio, 0.0);
  EXPECT_DOUBLE_EQ(wc.demand.total(), 0.0);
  const auto cert = routing::certifyBoxRatio(g, cfg, box);
  EXPECT_EQ(cert.ratio, 0.0);
  EXPECT_TRUE(routing::checkBoxCertificate(g, cfg, box, cert));

  // Every other destination routes on its augmented DAG, so edges carry
  // load, and only the pinned pair proves that their bound is 0: each
  // loaded edge needs an explicit certificate, not an empty one.
  DagSet routed = *core::augmentedDagsShared(g);
  routed[0] = Dag(g, 0, {});
  const routing::RoutingConfig uni = routing::RoutingConfig::uniform(
      g, std::make_shared<const DagSet>(std::move(routed)));
  const tm::DemandBounds gravity =
      tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(routing::findWorstCaseDemand(g, uni, &gravity).ratio, 0.0);
  routing::BoxCertificate pinned = routing::certifyBoxRatio(g, uni, gravity);
  EXPECT_EQ(pinned.ratio, 0.0);
  EXPECT_TRUE(routing::checkBoxCertificate(g, uni, gravity, pinned));
  int loaded = 0;
  for (const auto& ec : pinned.edges) {
    EXPECT_EQ(ec.ratio, 0.0) << "edge " << ec.edge;
    if (!ec.pi.empty()) ++loaded;
  }
  EXPECT_GT(loaded, 0);
  for (auto& ec : pinned.edges) ec.pi.clear();
  EXPECT_FALSE(routing::checkBoxCertificate(g, uni, gravity, pinned));
}

TEST(WorstCaseOracleTest, IterationLimitThrows) {
  // A slave LP is never infeasible or unbounded, so a non-optimal verdict
  // is a solver failure; reading it as ratio 0 under-reports the worst
  // case (Abilene ECMP's is 3).
  const Graph g = topo::makeZoo("Abilene");
  const auto dags = core::augmentedDagsShared(g);
  const auto ecmp = routing::ecmpConfig(g, dags);
  EXPECT_NEAR(routing::findWorstCaseDemand(g, ecmp).ratio, 3.0, 1e-9);

  SimplexOptions opt;
  opt.max_iterations = 3;
  const auto expectThrow = [](const auto& call, const std::string& what) {
    try {
      (void)call();
      ADD_FAILURE() << what << ": no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(
                    "worst-case LP not optimal: iteration-limit (edge ", 0),
                0u)
          << what << ": " << e.what();
    }
  };
  expectThrow([&] { return routing::findWorstCaseDemand(g, ecmp, nullptr, opt); },
              "findWorstCaseDemand");
  expectThrow(
      [&] { return routing::findWorstCaseDemandForEdge(g, ecmp, 0, nullptr, opt); },
      "findWorstCaseDemandForEdge");
  routing::WorstCaseOracle oracle(g, dags, nullptr, opt);
  expectThrow([&] { return oracle.find(ecmp); }, "WorstCaseOracle::find");
  expectThrow([&] { return oracle.findForEdge(ecmp, 0); },
              "WorstCaseOracle::findForEdge");
}

/// Splits each node's traffic toward every destination over its DAG
/// out-edges in seeded random proportions.
routing::RoutingConfig randomRouting(const Graph& g,
                                     const std::shared_ptr<const DagSet>& dags,
                                     std::uint64_t seed) {
  routing::RoutingConfig cfg(g, dags);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> share(0.05, 1.0);
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    for (NodeId u = 0; u < g.numNodes(); ++u) {
      const auto& out = (*dags)[t].outEdges(u);
      std::vector<double> w;
      double sum = 0.0;
      for (std::size_t k = 0; k < out.size(); ++k) {
        w.push_back(share(rng));
        sum += w.back();
      }
      for (std::size_t k = 0; k < out.size(); ++k) {
        cfg.setRatio(t, out[k], w[k] / sum);
      }
    }
  }
  cfg.validate(g);
  return cfg;
}

TEST(WorstCaseOracleTest, PrunedScanMatchesEveryEdge) {
  // The one-shot scan skips edges whose Theorem-5 bound cannot beat the
  // best ratio found; its answer must still be the maximum over every
  // edge's own LP, with a witness that is routable, in the box cone, and
  // loads the winning edge to exactly the ratio. The certifier runs the
  // same scan: its certificate passes the solver-free checker, claims the
  // same ratio, and bounds every edge's own LP from above -- so each
  // ratio is pinned from both sides without trusting the simplex.
  struct Case {
    std::string name;
    const Graph* g;
    std::shared_ptr<const DagSet> dags;
    routing::RoutingConfig cfg;
    std::optional<tm::DemandBounds> box;
  };
  std::vector<Graph> nets;
  nets.push_back(topo::runningExample());
  nets.push_back(topo::makeZoo("Abilene"));
  nets.push_back(topo::makeZoo("NSF"));
  nets.push_back(topo::grid(3, 3));
  const std::vector<std::string> net_names = {"running-example", "Abilene",
                                              "NSF", "grid(3,3)"};
  std::vector<Case> cases;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const Graph& g = nets[i];
    const auto dags = core::augmentedDagsShared(g);
    const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
    const std::vector<std::pair<std::string, routing::RoutingConfig>> routings =
        {{"ecmp", routing::ecmpConfig(g, dags)},
         {"uniform", routing::RoutingConfig::uniform(g, dags)},
         {"random", randomRouting(g, dags, 17 + i)}};
    for (const auto& [rname, cfg] : routings) {
      cases.push_back({net_names[i] + " " + rname + " oblivious", &g, dags,
                       cfg, std::nullopt});
      for (const double margin : {1.0, 3.0, 5.0}) {
        cases.push_back({net_names[i] + " " + rname + " margin " +
                             std::to_string(margin),
                         &g, dags, cfg, tm::marginBounds(base, margin)});
      }
    }
  }

  const auto boxOf = [](const Case& c) {
    return c.box.has_value() ? &*c.box : nullptr;
  };
  std::vector<routing::WorstCaseResult> serial;
  int pruned_cases = 0;
  for (const Case& c : cases) {
    const Graph& g = *c.g;
    const tm::DemandBounds* box = boxOf(c);
    const lp::StatsSnapshot before = lp::statsSnapshot();
    serial.push_back(routing::findWorstCaseDemand(g, c.cfg, box));
    const std::int64_t solves = (lp::statsSnapshot() - before).solves;
    const routing::WorstCaseResult& wc = serial.back();

    double best = 0.0;
    int positive = 0;
    std::vector<double> per_edge;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
      per_edge.push_back(
          routing::findWorstCaseDemandForEdge(g, c.cfg, e, box).ratio);
      best = std::max(best, per_edge.back());
      if (per_edge.back() > 0.0) ++positive;
    }
    if (solves < positive) ++pruned_cases;
    EXPECT_NEAR(wc.ratio, best, 1e-9 * best) << c.name;

    const lp::StatsSnapshot cert_before = lp::statsSnapshot();
    double cert_ratio = 0.0;
    std::vector<double> edge_bound;
    if (box == nullptr) {
      const auto cert = routing::certifyObliviousRatio(g, c.cfg);
      EXPECT_TRUE(routing::checkCertificate(g, c.cfg, cert)) << c.name;
      cert_ratio = cert.ratio;
      for (const auto& ec : cert.edges) edge_bound.push_back(ec.ratio);
    } else {
      const auto cert = routing::certifyBoxRatio(g, c.cfg, *box);
      EXPECT_TRUE(routing::checkBoxCertificate(g, c.cfg, *box, cert))
          << c.name;
      cert_ratio = cert.ratio;
      for (const auto& ec : cert.edges) edge_bound.push_back(ec.ratio);
    }
    EXPECT_EQ((lp::statsSnapshot() - cert_before).solves, solves) << c.name;
    EXPECT_EQ(cert_ratio, wc.ratio) << c.name;
    ASSERT_EQ(edge_bound.size(), per_edge.size()) << c.name;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
      EXPECT_GE(edge_bound[e], per_edge[e] * (1.0 - 1e-9))
          << c.name << " edge " << e;
      EXPECT_LE(edge_bound[e], cert_ratio * (1.0 + 1e-9))
          << c.name << " edge " << e;
    }
    ASSERT_GE(wc.edge, 0) << c.name;
    EXPECT_NEAR(per_edge[wc.edge], best, 1e-9 * best) << c.name;

    EXPECT_LE(routing::optimalUtilization(g, *c.dags, wc.demand), 1.0 + 1e-6)
        << c.name;
    EXPECT_NEAR(routing::maxLinkUtilization(g, c.cfg, wc.demand), wc.ratio,
                1e-6)
        << c.name;
    if (box != nullptr) {
      // Some lambda >= 0 has lambda*lo <= d <= lambda*hi.
      double lam_min = 0.0;
      double lam_max = std::numeric_limits<double>::infinity();
      for (NodeId s = 0; s < g.numNodes(); ++s) {
        for (NodeId t = 0; t < g.numNodes(); ++t) {
          if (s == t || box->hi.at(s, t) <= 0.0) continue;
          lam_min = std::max(lam_min, wc.demand.at(s, t) / box->hi.at(s, t));
          if (box->lo.at(s, t) > 0.0) {
            lam_max = std::min(lam_max, wc.demand.at(s, t) / box->lo.at(s, t));
          }
        }
      }
      EXPECT_LE(lam_min, lam_max * (1.0 + 1e-6)) << c.name;
    }
  }
  EXPECT_GT(pruned_cases, 0);

  // The scan is serial and shares no state between calls: eight
  // concurrent scans reproduce the one-thread answers bit for bit.
  std::vector<std::optional<routing::WorstCaseResult>> parallel(cases.size());
  util::ThreadPool tp(8);
  tp.parallelFor(cases.size(), [&](std::size_t i) {
    parallel[i] =
        routing::findWorstCaseDemand(*cases[i].g, cases[i].cfg, boxOf(cases[i]));
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(parallel[i].has_value()) << cases[i].name;
    EXPECT_EQ(parallel[i]->ratio, serial[i].ratio) << cases[i].name;
    EXPECT_EQ(parallel[i]->edge, serial[i].edge) << cases[i].name;
    EXPECT_EQ(parallel[i]->demand, serial[i].demand) << cases[i].name;
  }
}

// --- OPTU engine: warm-start chains vs independent cold solves. ----------

// OPTU as one plain LP, solved cold by the one-shot lp::solve -- never
// through OptuEngine, so neither its warm chains nor its decomposition
// pre-solve can leak into the reference. Variables and rows are created in
// the engine's order: min alpha over per-destination flows g_t(e) -- on
// DAG edges, or with `dags` null on every edge not leaving t (the
// unrestricted OPTU) -- conservation at every non-destination node, and
// sum_t g_t(e) <= alpha * c(e) on every edge. Flow on an edge marked in
// `failed` is pinned to zero, as OptuEngine::setFailedEdges pins it.
double referenceOptu(const Graph& g, const DagSet* dags,
                     const tm::TrafficMatrix& d,
                     const std::vector<char>& failed = {}) {
  const int n = g.numNodes();
  LpProblem p(Sense::kMinimize);
  const int alpha = p.addVar(1.0);
  std::vector<std::vector<Term>> cap_terms(g.numEdges());
  std::vector<int> var(g.numEdges(), -1);
  for (NodeId t = 0; t < n; ++t) {
    bool active = false;
    for (NodeId s = 0; s < n; ++s) {
      active = active || (s != t && d.at(s, t) > 0.0);
    }
    if (!active) continue;
    std::vector<EdgeId> edges;
    if (dags != nullptr) {
      edges = (*dags)[t].edges();
    } else {
      for (EdgeId e = 0; e < g.numEdges(); ++e) {
        if (g.edge(e).src != t) edges.push_back(e);
      }
    }
    for (const EdgeId e : edges) {
      const bool down = !failed.empty() && failed[e];
      var[e] = p.addVar(0.0, 0.0, down ? 0.0 : kInfinity);
      cap_terms[e].push_back({var[e], 1.0});
    }
    for (NodeId u = 0; u < n; ++u) {
      if (u == t) continue;
      std::vector<Term> terms;
      for (const EdgeId e : g.outEdges(u)) {
        if (var[e] >= 0) terms.push_back({var[e], 1.0});
      }
      for (const EdgeId e : g.inEdges(u)) {
        if (var[e] >= 0) terms.push_back({var[e], -1.0});
      }
      if (terms.empty()) {
        require(d.at(u, t) <= 0.0, "reference OPTU: unroutable demand");
        continue;
      }
      p.addConstraint(std::move(terms), Rel::kEq, d.at(u, t));
    }
    for (const EdgeId e : edges) var[e] = -1;
  }
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    if (cap_terms[e].empty()) continue;
    cap_terms[e].push_back({alpha, -g.edge(e).capacity});
    p.addConstraint(std::move(cap_terms[e]), Rel::kLe, 0.0);
  }
  const LpResult r = solve(p);
  require(r.optimal(), "reference OPTU LP not optimal");
  return r.x[alpha];
}

/// Number of destinations that some source sends demand to.
int activeDestinations(const tm::TrafficMatrix& d) {
  int count = 0;
  for (NodeId t = 0; t < d.numNodes(); ++t) {
    for (NodeId s = 0; s < d.numNodes(); ++s) {
      if (s != t && d.at(s, t) > 0.0) {
        ++count;
        break;
      }
    }
  }
  return count;
}

TEST(OptuEngineTest, BatchIsIdenticalForAnyThreadCount) {
  const Graph g = exp::ScenarioRegistry::global()
                      .find("running-example")
                      ->topology.build();
  const auto dags = core::augmentedDagsShared(g);
  std::vector<tm::TrafficMatrix> pool;
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> dem(0.0, 2.0);
  for (int k = 0; k < 37; ++k) {
    tm::TrafficMatrix d(g.numNodes());
    for (NodeId s = 0; s < g.numNodes(); ++s) {
      for (NodeId t = 0; t < g.numNodes(); ++t) {
        if (s != t && rng() % 3 != 0) d.set(s, t, dem(rng));
      }
    }
    pool.push_back(std::move(d));
  }
  // Single-destination matrices, interleaved with the LP ones: they take
  // the min cut instead of a warm chain.
  for (int k = 0; k < 2 * g.numNodes(); ++k) {
    const NodeId t = k % g.numNodes();
    tm::TrafficMatrix d(g.numNodes());
    for (NodeId s = 0; s < g.numNodes(); ++s) {
      if (s != t) d.set(s, t, 0.1 + dem(rng));
    }
    pool.insert(pool.begin() + 3 * k, std::move(d));
  }

  std::vector<std::vector<double>> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    routing::OptuEngine engine(g, dags);
    util::ThreadPool tp(threads);
    results.push_back(engine.utilizationBatch(pool, tp));
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    // Chunking is fixed, so the warm-start chains -- and therefore every
    // solve -- are bit-identical no matter how many threads run them.
    EXPECT_DOUBLE_EQ(results[0][i], results[1][i]) << "matrix " << i;
    EXPECT_DOUBLE_EQ(results[0][i], results[2][i]) << "matrix " << i;
  }
  // And the chained solves agree with independent cold solves to LP tol.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].total() <= 0.0) continue;
    const double cold = referenceOptu(g, dags.get(), pool[i]);
    EXPECT_NEAR(results[0][i], cold, 1e-7 * (1.0 + cold)) << "matrix " << i;
  }
  // The per-matrix entry points agree with the batch: bit for bit on the
  // min cut, which has no warm chain to differ by; to LP tolerance on the
  // rest.
  routing::OptuEngine serial(g, dags);
  routing::OptuEngine slots(g, dags);
  int single = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const double u = serial.utilization(pool[i]);
    const double at = slots.utilizationAt(i, pool[i]);
    if (activeDestinations(pool[i]) == 1) {
      ++single;
      EXPECT_EQ(u, results[0][i]) << "matrix " << i;
      EXPECT_EQ(at, results[0][i]) << "matrix " << i;
    } else {
      EXPECT_NEAR(u, results[0][i], 1e-9 * (1.0 + u)) << "matrix " << i;
      EXPECT_NEAR(at, results[0][i], 1e-9 * (1.0 + at)) << "matrix " << i;
    }
  }
  EXPECT_GE(single, 2 * g.numNodes());
}

/// Expects every OPTU entry point to throw E on d.
template <class E>
void expectEveryEntryThrows(routing::OptuEngine& engine,
                            const tm::TrafficMatrix& d,
                            const std::string& what) {
  util::ThreadPool tp(2);
  EXPECT_THROW((void)engine.utilization(d), E) << what;
  EXPECT_THROW((void)engine.utilizationAt(0, d), E) << what;
  EXPECT_THROW((void)engine.utilizationBatch({d}, tp), E) << what;
}

TEST(OptuEngineTest, SingleDestinationThrowsLikeTheLp) {
  // A bad demand raises the same exception whether its matrix takes the
  // min cut (one destination) or the LP (a second destination added).
  Graph g = topo::runningExample();  // s1, s2, v, t
  const DagSet base = core::augmentedDags(g);
  const NodeId z = g.addNode("z");  // isolated: no usable edge anywhere
  auto dags = std::make_shared<DagSet>();
  for (NodeId t = 0; t < g.numNodes(); ++t) {
    dags->emplace_back(g, t, t < z ? base[t].edges() : std::vector<EdgeId>{});
  }
  const NodeId s1 = 0;
  const NodeId s2 = 1;
  const NodeId v = 2;
  const NodeId t = 3;
  const auto oneAndTwo = [&](NodeId src) {
    tm::TrafficMatrix one(g.numNodes());
    one.set(src, t, 1.0);
    tm::TrafficMatrix two = one;
    two.set(s2, v, 1.0);
    EXPECT_EQ(activeDestinations(one), 1);
    EXPECT_EQ(activeDestinations(two), 2);
    return std::vector<tm::TrafficMatrix>{one, two};
  };
  // Every link at s1 fails: s1 keeps its edges, but none carries flow.
  std::vector<EdgeId> around_s1;
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    if (g.edge(e).src == s1 || g.edge(e).dst == s1) around_s1.push_back(e);
  }
  for (const bool within : {true, false}) {
    routing::OptuEngine engine = within ? routing::OptuEngine(g, dags)
                                        : routing::OptuEngine(g);
    const std::string mode = within ? "within DAGs" : "unrestricted";
    for (const tm::TrafficMatrix& d : oneAndTwo(z)) {
      expectEveryEntryThrows<std::invalid_argument>(
          engine, d, mode + ", no usable edge");
    }
    engine.setFailedEdges(around_s1);
    for (const tm::TrafficMatrix& d : oneAndTwo(s1)) {
      expectEveryEntryThrows<std::runtime_error>(engine, d,
                                                 mode + ", cut off");
    }
  }
}

TEST(OptuEngineTest, DecomposedBatchIsIdenticalForAnyThreadCount) {
  // Same contract as above, but on a topology large enough to cross
  // kDecompMinRows so the block-angular pre-solve actually runs: the
  // decomposed path must be bit-identical for any thread count too
  // (blocks are chunked fixed-size, prices are updated in edge order).
  const Graph g = exp::TopologySpec::zoo("Geant").build();
  const auto dags = core::augmentedDagsShared(g);
  std::vector<tm::TrafficMatrix> pool;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dem(0.0, 40.0);
  for (int k = 0; k < 9; ++k) {
    tm::TrafficMatrix d(g.numNodes());
    for (NodeId s = 0; s < g.numNodes(); ++s) {
      for (NodeId t = 0; t < g.numNodes(); ++t) {
        if (s != t && rng() % 4 == 0) d.set(s, t, dem(rng));
      }
    }
    pool.push_back(std::move(d));
  }

  const StatsSnapshot before = statsSnapshot();
  std::vector<std::vector<double>> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    routing::OptuEngine engine(g, dags);
    util::ThreadPool tp(threads);
    results.push_back(engine.utilizationBatch(pool, tp));
  }
  // The decomposed pre-solve ran (once per engine, seeding the batch).
  EXPECT_GE((statsSnapshot() - before).decomp_rounds,
            3 * routing::OptuEngine::kDecompRounds);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[0][i], results[1][i]) << "matrix " << i;
    EXPECT_DOUBLE_EQ(results[0][i], results[2][i]) << "matrix " << i;
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].total() <= 0.0) continue;
    const double cold = referenceOptu(g, dags.get(), pool[i]);
    EXPECT_NEAR(results[0][i], cold, 1e-7 * (1.0 + cold)) << "matrix " << i;
  }
}

TEST(OptuEngineTest, PoolMemoMatchesReferenceAcrossEventChain) {
  // utilizationAt re-solves a pool slot from the basis that slot ended
  // with when it was last solved. Drive the unrestricted Geant ruler
  // through the serve daemon's event kinds -- fail a link, restore it,
  // fail a pair, scale the demand, move the margin, shrink and regrow the
  // pool -- visiting the slots in pool order, in reverse, or only every
  // other one (the caller picks, as the bound-and-prune ruler does), and
  // check every answer against a cold one-shot solve.
  const Graph g = exp::TopologySpec::zoo("Geant").build();
  tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  tm::PoolOptions popt;  // the failure sweeps' pool shape
  popt.source_hotspots = false;
  popt.max_hotspots = 8;
  popt.random_corners = 4;
  popt.pair_hotspots = 4;

  // The first pair of links whose loss strands no demand; either link
  // alone then strands none either.
  const std::vector<EdgeId> links = failure::physicalLinks(g);
  failure::FailureScenario pair;
  for (std::size_t a = 0; a < links.size() && pair.links.empty(); ++a) {
    for (std::size_t b = a + 1; b < links.size() && pair.links.empty(); ++b) {
      const failure::FailureScenario f{"", {links[a], links[b]}};
      if (failure::disconnectedPairs(failure::degradedGraph(g, f), base) ==
          0) {
        pair = f;
      }
    }
  }
  ASSERT_FALSE(pair.links.empty());
  const failure::FailureScenario one{"", {pair.links.front()}};
  const failure::FailureScenario intact;

  routing::OptuEngine engine(g);
  std::vector<tm::TrafficMatrix> pool =
      tm::cornerPool(tm::marginBounds(base, 2.0), popt);
  enum class Order { kForward, kReverse, kEven };
  const auto check = [&](const failure::FailureScenario& f, Order order,
                         const std::string& step) {
    engine.setFailedEdges(failure::directedEdges(g, f));
    const std::vector<char> failed = failure::failedEdgeMask(g, f);
    const std::size_t m = pool.size();
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t j = order == Order::kReverse ? m - 1 - k : k;
      if (order == Order::kEven && j % 2 == 1) continue;
      const double got = engine.utilizationAt(j, pool[j]);
      const double ref = referenceOptu(g, nullptr, pool[j], failed);
      EXPECT_NEAR(got, ref, 1e-9 * (1.0 + ref)) << step << ", matrix " << j;
    }
  };

  const StatsSnapshot before = statsSnapshot();
  check(intact, Order::kForward, "intact");
  check(one, Order::kEven, "link down");
  check(intact, Order::kReverse, "link up");
  check(pair, Order::kForward, "pair down");
  base.scale(1.3);
  pool = tm::cornerPool(tm::marginBounds(base, 2.0), popt);
  check(pair, Order::kReverse, "demand x1.3");
  pool = tm::cornerPool(tm::marginBounds(base, 2.5), popt);
  check(pair, Order::kEven, "margin 2.5");
  const std::vector<tm::TrafficMatrix> full = pool;
  pool.erase(pool.begin() + 3, pool.end());
  check(intact, Order::kForward, "pool shrunk");
  pool = full;
  check(pair, Order::kForward, "pool regrown");
  // The memoized bases re-entered through the dual simplex.
  EXPECT_GT((statsSnapshot() - before).dual_pivots, 0);
}

// --- Single-destination matrices: the min cut vs the reference LP. -------

TEST(SingleSinkOptu, MatchesReferenceOptu) {
  // A matrix with one destination takes the parametric min cut. It must
  // match the reference LP within 1e-12 relative and run no LP at all,
  // intact and under every single-link failure that leaves its sources
  // connected; the failures that cut a source off must report the LP's
  // infeasibility.
  std::vector<std::pair<std::string, Graph>> nets;
  nets.emplace_back("Geant", topo::makeZoo("Geant"));
  nets.emplace_back("fatTree(4)", topo::fatTree(4));
  nets.emplace_back("grid(3,3)", topo::grid(3, 3));
  int checked = 0;
  int cut_off = 0;
  for (const auto& [name, g] : nets) {
    const auto dags = core::augmentedDagsShared(g);
    const int n = g.numNodes();
    // Unit and seeded random supplies toward every destination.
    std::vector<tm::TrafficMatrix> pool;
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> dem(0.1, 10.0);
    for (const bool unit : {true, false}) {
      for (NodeId t = 0; t < n; ++t) {
        tm::TrafficMatrix d(n);
        for (NodeId s = 0; s < n; ++s) {
          if (s == t || (!unit && rng() % 4 == 0)) continue;
          d.set(s, t, unit ? 1.0 : dem(rng));
        }
        if (d.total() <= 0.0) d.set((t + 1) % n, t, 1.0);
        pool.push_back(std::move(d));
      }
    }
    std::vector<failure::FailureScenario> failures(1);  // intact first
    for (const EdgeId link : failure::physicalLinks(g)) {
      failures.push_back({"", {link}});
    }
    for (const bool within : {true, false}) {
      const DagSet* dag_set = within ? dags.get() : nullptr;
      routing::OptuEngine engine = within ? routing::OptuEngine(g, dags)
                                          : routing::OptuEngine(g);
      util::ThreadPool tp(2);
      for (std::size_t f = 0; f < failures.size(); ++f) {
        engine.setFailedEdges(failure::directedEdges(g, failures[f]));
        const std::vector<char> failed =
            failure::failedEdgeMask(g, failures[f]);
        const std::string where = name + (within ? " within DAGs" : "") +
                                  ", failure " + std::to_string(f);
        std::vector<double> ref(pool.size(), -1.0);  // -1: a source cut off
        std::vector<tm::TrafficMatrix> routable;
        for (std::size_t j = 0; j < pool.size(); ++j) {
          try {
            ref[j] = referenceOptu(g, dag_set, pool[j], failed);
            routable.push_back(pool[j]);
          } catch (const std::invalid_argument&) {
          }
        }
        const StatsSnapshot before = statsSnapshot();
        const std::vector<double> batch = engine.utilizationBatch(routable, tp);
        std::size_t k = 0;
        for (std::size_t j = 0; j < pool.size(); ++j) {
          if (ref[j] < 0.0) {
            EXPECT_THROW((void)engine.utilization(pool[j]), std::runtime_error)
                << where << ", matrix " << j;
            ++cut_off;
            continue;
          }
          const double got = engine.utilization(pool[j]);
          EXPECT_NEAR(got, ref[j], 1e-12 * ref[j])
              << where << ", matrix " << j;
          EXPECT_EQ(engine.utilizationAt(j, pool[j]), got)
              << where << ", matrix " << j;
          EXPECT_EQ(batch[k++], got) << where << ", matrix " << j;
          ++checked;
        }
        EXPECT_EQ((statsSnapshot() - before).solves, 0) << where;
      }
    }
  }
  EXPECT_GT(checked, 5000);
  EXPECT_GT(cut_off, 0);  // grid and fat-tree DAGs lose sources to a link
}

// --- COYOTE_FULL=1: the engine vs the reference LP on every scenario. ----

TEST(OptuEngineTest, EngineMatchesReferenceAcrossAllScenarios) {
  if (!util::envFlag("COYOTE_FULL")) {
    GTEST_SKIP() << "set COYOTE_FULL=1 for the full registry sweep";
  }
  int checked = 0;
  int decomposed = 0;
  for (const exp::Scenario& s : exp::ScenarioRegistry::global().all()) {
    Graph g;
    try {
      g = s.topology.build();
    } catch (const std::exception&) {
      continue;  // network-list kinds have no single topology
    }
    if (g.numNodes() == 0) continue;
    const auto dags = core::augmentedDagsShared(g);
    const tm::TrafficMatrix base = s.demand.build(g);
    if (base.total() <= 0.0) continue;

    // First solve: on templates of at least kDecompMinRows rows the
    // block-angular pre-solve seeds the basis, but the crossover hands the
    // full LP to the exact simplex, so it must match the reference to
    // solver tolerance, not just "roughly".
    routing::OptuEngine engine(g, dags);
    const StatsSnapshot before = statsSnapshot();
    const double w1 = engine.utilization(base);
    if ((statsSnapshot() - before).decomp_rounds > 0) ++decomposed;
    const double c1 = referenceOptu(g, dags.get(), base);
    ASSERT_NEAR(w1, c1, 1e-9 * (1.0 + c1)) << s.id;

    // Warm chain: margin-scaled variants, re-solved by rhs mutation
    // against the retained basis.
    tm::TrafficMatrix scaled = base;
    scaled.scale(1.7);
    const double w2 = engine.utilization(scaled);
    tm::TrafficMatrix perturbed = base;
    perturbed.scale(0.4);
    const double w3 = engine.utilization(perturbed);
    const double c2 = referenceOptu(g, dags.get(), scaled);
    const double c3 = referenceOptu(g, dags.get(), perturbed);
    ASSERT_NEAR(w2, c2, 1e-7 * (1.0 + c2)) << s.id;
    ASSERT_NEAR(w3, c3, 1e-7 * (1.0 + c3)) << s.id;
    // OPTU is positively homogeneous: the scaled solves cross-check.
    EXPECT_NEAR(w2, 1.7 * w1, 1e-6 * (1.0 + w2)) << s.id;
    EXPECT_NEAR(w3, 0.4 * w1, 1e-6 * (1.0 + w3)) << s.id;
    ++checked;
  }
  EXPECT_GT(checked, 40);  // most of the registered scenarios
  // The sweep exercised the decomposed path on the larger topologies,
  // not just sub-threshold networks that skip the pre-solve.
  EXPECT_GT(decomposed, 10);
}

}  // namespace
}  // namespace coyote::lp
