// Differential fuzzing of lp::SimplexSolver against the dense textbook
// oracle in lp_reference.hpp: seeded random bounded LPs (status + objective
// must agree), structured post-failure flow LPs with zeroed capacities, and
// warm-start mutation chains (every setRhs/setBounds/setObjective is
// re-checked against a cold reference solve of the mutated problem) -- the
// class of warm-start corruption bug fixed in PR 3 shows up here as an
// "optimal" status with a wrong objective.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "lp/stats.hpp"
#include "lp_reference.hpp"

namespace coyote {
namespace {

using lp_reference::DenseLp;
using lp_reference::RefResult;

constexpr double kObjTol = 1e-6;

/// One comparison: the engine under test (cold) vs the reference.
void expectAgreement(const DenseLp& dense, const std::string& context) {
  const RefResult ref = lp_reference::solve(dense);
  const lp::LpResult got = lp::solve(dense.toProblem());
  ASSERT_NE(got.status, lp::Status::kIterLimit) << context;
  EXPECT_EQ(lp::toString(got.status), lp::toString(ref.status)) << context;
  if (ref.optimal() && got.optimal()) {
    EXPECT_NEAR(got.objective, ref.objective,
                kObjTol * (1.0 + std::fabs(ref.objective)))
        << context;
  }
}

/// Random bounded LP. Coefficients are halves in [-3, 3] to keep the
/// instances well-conditioned; ~half the variables get finite upper
/// bounds, a few are "failed" (fixed to zero), lower bounds may be
/// negative. Infeasible and unbounded draws are kept: status agreement is
/// part of the contract.
DenseLp randomLp(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> nvars(2, 6), nrows(1, 5);
  std::uniform_int_distribution<int> coef(-6, 6);      // halves
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int> rhs(-5, 5);
  std::uniform_int_distribution<int> rel(0, 2);

  DenseLp p;
  p.sense = pct(rng) < 50 ? lp::Sense::kMinimize : lp::Sense::kMaximize;
  const int n = nvars(rng);
  for (int j = 0; j < n; ++j) {
    const double c = coef(rng) / 3.0;
    double lo = 0.0;
    if (pct(rng) < 25) lo = coef(rng) / 6.0;  // negative/positive lbs
    double hi = lp::kInfinity;
    if (pct(rng) < 55) hi = lo + std::abs(coef(rng)) / 2.0;
    if (pct(rng) < 10) hi = lo;  // fixed ("failed") variable
    p.addVar(c, lo, hi);
  }
  const int m = nrows(rng);
  for (int i = 0; i < m; ++i) {
    std::vector<double> row(n, 0.0);
    int nonzeros = 0;
    for (int j = 0; j < n; ++j) {
      if (pct(rng) < 60) {
        row[j] = coef(rng) / 2.0;
        nonzeros += row[j] != 0.0;
      }
    }
    if (nonzeros == 0) row[0] = 1.0;
    const int which = rel(rng);
    const lp::Rel r = which == 0   ? lp::Rel::kLe
                      : which == 1 ? lp::Rel::kGe
                                   : lp::Rel::kEq;
    p.addRow(std::move(row), r, rhs(rng));
  }
  return p;
}

TEST(LpFuzz, RandomBoundedLpsAgreeWithTextbookOracle) {
  std::mt19937_64 rng(20260730);
  for (int k = 0; k < 200; ++k) {
    const DenseLp p = randomLp(rng);
    expectAgreement(p, "random instance " + std::to_string(k));
  }
}

/// Post-failure flow instance: min alpha s.t. a unit s->t demand routes on
/// a bidirectional ring of n nodes, f_e <= alpha on every surviving arc and
/// f_e fixed to 0 on failed ones (exactly the OptuEngine::setFailedEdges
/// mutation shape). The optimum is known: with the clockwise path length a
/// and counter-clockwise length n - a, splitting x / 1-x over intact rings
/// gives alpha = 1/2... in general the LP must match the oracle; with a
/// failed arc one direction dies and alpha = 1 on the survivor.
DenseLp ringFlowLp(int n, int s, int t, const std::vector<int>& failed_arcs) {
  // Arcs: 2n of them; arc j (j < n) is i -> i+1 (clockwise, from node j),
  // arc n + j is j+1 -> j (counter-clockwise).
  DenseLp p;
  p.sense = lp::Sense::kMinimize;
  const int alpha = p.addVar(1.0, 0.0, lp::kInfinity);
  std::vector<int> fvar(2 * n);
  for (int j = 0; j < 2 * n; ++j) fvar[j] = p.addVar(0.0, 0.0, lp::kInfinity);
  for (const int j : failed_arcs) {
    p.ub[fvar[j]] = 0.0;  // failed arc: flow pinned to zero
  }
  // Conservation at every node except t.
  for (int v = 0; v < n; ++v) {
    if (v == t) continue;
    std::vector<double> row(p.obj.size(), 0.0);
    row[fvar[v]] += 1.0;                          // out: v -> v+1
    row[fvar[n + ((v + n - 1) % n)]] += 1.0;      // out: v -> v-1
    row[fvar[(v + n - 1) % n]] -= 1.0;            // in: v-1 -> v
    row[fvar[n + v]] -= 1.0;                      // in: v+1 -> v
    p.addRow(std::move(row), lp::Rel::kEq, v == s ? 1.0 : 0.0);
  }
  // Capacity: f_j - alpha <= 0 (unit capacities).
  for (int j = 0; j < 2 * n; ++j) {
    std::vector<double> row(p.obj.size(), 0.0);
    row[fvar[j]] = 1.0;
    row[alpha] = -1.0;
    p.addRow(std::move(row), lp::Rel::kLe, 0.0);
  }
  return p;
}

TEST(LpFuzz, PostFailureRingFlowsAgreeWithTextbookOracle) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> nodes(3, 6), pct(0, 99);
  for (int k = 0; k < 60; ++k) {
    const int n = nodes(rng);
    std::uniform_int_distribution<int> node(0, n - 1);
    const int s = node(rng);
    int t = node(rng);
    if (t == s) t = (s + 1) % n;
    std::vector<int> failed;
    for (int j = 0; j < 2 * n; ++j) {
      if (pct(rng) < 15) failed.push_back(j);
    }
    expectAgreement(ringFlowLp(n, s, t, failed),
                    "ring n=" + std::to_string(n) + " k=" + std::to_string(k));
  }
}

TEST(LpFuzz, IntactRingHasKnownOptimum) {
  // Sanity anchor for the generator itself: unit demand on an intact ring
  // splits across the two arc-disjoint paths; alpha = 1/2 always.
  const DenseLp p = ringFlowLp(5, 0, 2, {});
  const RefResult ref = lp_reference::solve(p);
  ASSERT_TRUE(ref.optimal());
  EXPECT_NEAR(ref.objective, 0.5, 1e-9);
  const lp::LpResult got = lp::solve(p.toProblem());
  ASSERT_TRUE(got.optimal());
  EXPECT_NEAR(got.objective, 0.5, 1e-9);
}

/// Highly-degenerate instance: small-integer coefficients, duplicate rows
/// (the same left-hand side repeated, sometimes under a different relation)
/// and a block of zero right-hand sides. Many basic variables sit exactly
/// on a bound at the optimum, so the Harris two-pass ratio test and the
/// bounded degeneracy perturbation are exercised where they actually
/// differ from the textbook minimum-ratio rule.
DenseLp degenerateLp(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> nvars(2, 5), nrows(2, 4);
  std::uniform_int_distribution<int> coef(-2, 2);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int> rel(0, 2);

  DenseLp p;
  p.sense = pct(rng) < 50 ? lp::Sense::kMinimize : lp::Sense::kMaximize;
  const int n = nvars(rng);
  for (int j = 0; j < n; ++j) {
    double hi = lp::kInfinity;
    if (pct(rng) < 50) hi = pct(rng) < 50 ? 0.0 : 1.0;  // degenerate ubs
    p.addVar(coef(rng), 0.0, hi);
  }
  const int m = nrows(rng);
  std::vector<std::vector<double>> lhs;
  for (int i = 0; i < m; ++i) {
    std::vector<double> row(n, 0.0);
    int nonzeros = 0;
    for (int j = 0; j < n; ++j) {
      if (pct(rng) < 70) {
        row[j] = coef(rng);
        nonzeros += row[j] != 0.0;
      }
    }
    if (nonzeros == 0) row[0] = 1.0;
    lhs.push_back(row);
    const int which = rel(rng);
    const lp::Rel r = which == 0   ? lp::Rel::kLe
                      : which == 1 ? lp::Rel::kGe
                                   : lp::Rel::kEq;
    // Zero rhs block: most rows pass through the origin, so the cold
    // all-logical basis is maximally degenerate.
    const double b = pct(rng) < 70 ? 0.0 : coef(rng);
    p.addRow(std::move(row), r, b);
  }
  // Duplicate a few of the rows verbatim (same lhs; relation and rhs may
  // differ), planting exact ties in every ratio test and dependent
  // columns in every refactorization.
  for (const auto& row : lhs) {
    if (pct(rng) >= 50) continue;
    const int which = rel(rng);
    const lp::Rel r = which == 0   ? lp::Rel::kLe
                      : which == 1 ? lp::Rel::kGe
                                   : lp::Rel::kEq;
    std::vector<double> copy = row;
    p.addRow(std::move(copy), r, pct(rng) < 70 ? 0.0 : coef(rng));
  }
  return p;
}

TEST(LpFuzz, DegenerateDuplicateRowLpsAgreeWithTextbookOracle) {
  std::mt19937_64 rng(20260808);
  for (int k = 0; k < 200; ++k) {
    const DenseLp p = degenerateLp(rng);
    expectAgreement(p, "degenerate instance " + std::to_string(k));
  }
}

TEST(LpFuzz, DegenerateWarmChainsAgreeWithColdOracle) {
  // The warm-start shape on the degenerate corpus: rhs perturbations in
  // and out of the zero block, so phase 1 repeatedly restores feasibility
  // across near-singular bases.
  std::mt19937_64 rng(606060);
  std::uniform_int_distribution<int> pct(0, 99), rhs(-2, 2);
  for (int k = 0; k < 40; ++k) {
    DenseLp dense = degenerateLp(rng);
    lp::SimplexSolver session(dense.toProblem());
    (void)session.solve();
    for (int step = 0; step < 6; ++step) {
      std::uniform_int_distribution<int> row(0, dense.numRows() - 1);
      const int i = row(rng);
      const double b = pct(rng) < 60 ? 0.0 : rhs(rng);
      dense.rhs[i] = b;
      session.setRhs(i, b);
      const RefResult ref = lp_reference::solve(dense);
      const lp::LpResult warm = session.solve();
      const std::string context =
          "degenerate chain " + std::to_string(k) + " step " +
          std::to_string(step);
      ASSERT_NE(warm.status, lp::Status::kIterLimit) << context;
      EXPECT_EQ(lp::toString(warm.status), lp::toString(ref.status))
          << context;
      if (ref.optimal() && warm.optimal()) {
        EXPECT_NEAR(warm.objective, ref.objective,
                    kObjTol * (1.0 + std::fabs(ref.objective)))
            << context;
      }
    }
  }
}

TEST(LpFuzz, DualSimplexRhsBoundChainsAgreeWithAlwaysBlandOracle) {
  // The dual simplex's home turf, differentially fuzzed: warm sessions
  // driven through rhs/bound-only mutation chains (the OPTU re-solve and
  // setFailedEdges shapes), every step re-checked against the dense
  // always-Bland oracle. Two seeded corpora with different mutation mixes.
  // The chains must also actually exercise the dual path (dual_pivots > 0
  // process-wide) and cover status flips in both directions -- in
  // particular chains where a mutation makes the LP infeasible and a later
  // one restores an optimum, the transition the dual-ray verdict and the
  // primal phase-1 backstop hand off across.
  const auto check = [](lp::SimplexSolver& session, const DenseLp& dense,
                        const std::string& context) {
    const RefResult ref = lp_reference::solve(dense);
    const lp::LpResult warm = session.solve();
    EXPECT_NE(warm.status, lp::Status::kIterLimit) << context;
    EXPECT_EQ(lp::toString(warm.status), lp::toString(ref.status))
        << context;
    if (ref.optimal() && warm.optimal()) {
      EXPECT_NEAR(warm.objective, ref.objective,
                  kObjTol * (1.0 + std::fabs(ref.objective)))
          << context;
    }
    return warm.status;
  };
  const lp::StatsSnapshot before = lp::statsSnapshot();

  std::mt19937_64 rng(90210);
  std::uniform_int_distribution<int> pct(0, 99), rhs(-5, 5);
  int infeasible_to_optimal = 0;
  for (int k = 0; k < 60; ++k) {
    DenseLp dense = randomLp(rng);
    lp::SimplexSolver session(dense.toProblem());
    lp::Status prev = session.solve().status;
    for (int step = 0; step < 8; ++step) {
      std::uniform_int_distribution<int> var(0, dense.numVars() - 1);
      std::uniform_int_distribution<int> row(0, dense.numRows() - 1);
      const int what = pct(rng);
      if (what < 55) {  // rhs mutation
        const int i = row(rng);
        const double b = rhs(rng);
        dense.rhs[i] = b;
        session.setRhs(i, b);
      } else if (what < 80) {  // fail a variable (zeroed capacity)
        const int j = var(rng);
        dense.lb[j] = 0.0;
        dense.ub[j] = 0.0;
        session.setBounds(j, 0.0, 0.0);
      } else {  // restore a variable
        const int j = var(rng);
        dense.lb[j] = 0.0;
        dense.ub[j] = lp::kInfinity;
        session.setBounds(j, 0.0, lp::kInfinity);
      }
      const lp::Status now = check(
          session, dense,
          "dual chain " + std::to_string(k) + " step " + std::to_string(step));
      if (prev == lp::Status::kInfeasible && now == lp::Status::kOptimal) {
        ++infeasible_to_optimal;
      }
      prev = now;
    }
  }

  // Second corpus: rhs edits and single-variable fail/restore toggles.
  std::mt19937_64 rng2(515151);
  for (int k = 0; k < 40; ++k) {
    DenseLp dense = randomLp(rng2);
    lp::SimplexSolver session(dense.toProblem());
    (void)session.solve();
    for (int step = 0; step < 6; ++step) {
      std::uniform_int_distribution<int> var(0, dense.numVars() - 1);
      std::uniform_int_distribution<int> row(0, dense.numRows() - 1);
      if (pct(rng2) < 60) {
        const int i = row(rng2);
        const double v = rhs(rng2);
        dense.rhs[i] = v;
        session.setRhs(i, v);
      } else {
        const int j = var(rng2);
        const double hi = pct(rng2) < 50 ? 0.0 : lp::kInfinity;
        dense.lb[j] = 0.0;
        dense.ub[j] = hi;
        session.setBounds(j, 0.0, hi);
      }
      (void)check(session, dense,
                  "toggle chain " + std::to_string(k) + " step " +
                      std::to_string(step));
    }
  }
  // The corpora are seeded, so these are deterministic floors, not flakes.
  EXPECT_GT((lp::statsSnapshot() - before).dual_pivots, 0);
  EXPECT_GE(infeasible_to_optimal, 3);
}

TEST(LpFuzz, WarmStartMutationChainsAgreeWithColdOracle) {
  std::mt19937_64 rng(42424242);
  std::uniform_int_distribution<int> pct(0, 99), rhs(-5, 5), coef(-6, 6);
  for (int k = 0; k < 40; ++k) {
    DenseLp dense = randomLp(rng);
    lp::SimplexSolver session(dense.toProblem());
    (void)session.solve();  // establish a basis (any status is fine)
    for (int step = 0; step < 6; ++step) {
      std::uniform_int_distribution<int> var(0, dense.numVars() - 1);
      std::uniform_int_distribution<int> row(0, dense.numRows() - 1);
      const int what = pct(rng);
      if (what < 30) {  // rhs mutation (the OPTU per-matrix re-solve shape)
        const int i = row(rng);
        const double b = rhs(rng);
        dense.rhs[i] = b;
        session.setRhs(i, b);
      } else if (what < 55) {  // fail a variable (zeroed capacity)
        const int j = var(rng);
        dense.lb[j] = 0.0;
        dense.ub[j] = 0.0;
        session.setBounds(j, 0.0, 0.0);
      } else if (what < 75) {  // restore a variable
        const int j = var(rng);
        dense.lb[j] = 0.0;
        dense.ub[j] = lp::kInfinity;
        session.setBounds(j, 0.0, lp::kInfinity);
      } else {  // objective mutation (slave-LP edge scan)
        const int j = var(rng);
        const double c = coef(rng) / 3.0;
        dense.obj[j] = c;
        session.setObjective(j, c);
      }

      const RefResult ref = lp_reference::solve(dense);
      const lp::LpResult warm = session.solve();
      const std::string context =
          "chain " + std::to_string(k) + " step " + std::to_string(step);
      ASSERT_NE(warm.status, lp::Status::kIterLimit) << context;
      EXPECT_EQ(lp::toString(warm.status), lp::toString(ref.status))
          << context;
      if (ref.optimal() && warm.optimal()) {
        EXPECT_NEAR(warm.objective, ref.objective,
                    kObjTol * (1.0 + std::fabs(ref.objective)))
            << context;
      }
    }
  }
}

}  // namespace
}  // namespace coyote
